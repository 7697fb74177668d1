//! Sealed per-tenant checkpoint snapshots (crash recovery).
//!
//! A checkpoint captures everything a tenant needs to resume mid-stream
//! after the enclave is killed: its window arrays (every array of the data
//! plane's window map, each with its window, side and ingest lane — the
//! cut is the TEE's own, not a list the control plane hands in), the
//! control plane's watermarks and cursor, ingest/egress counters, and the
//! audit-trail cursor the resumed log continues from. The plaintext
//! is serialized to the versioned `SBTC` wire format below, hashed
//! (the hash is chained into the signed audit trail through an
//! [`sbt_attest::AuditRecord::Checkpoint`] record, so the cloud detects
//! rollback to a stale snapshot), then sealed — AES-CTR encrypted and
//! HMAC-authenticated under keys derived from the platform master secret
//! per `(tenant, epoch, ckpt_seq)` — before it leaves the enclave. No
//! plaintext state ever crosses the boundary, and untrusted storage can
//! at worst withhold or corrupt a snapshot, which unsealing rejects.
//!
//! # Snapshot plaintext wire format (`SBTC` v2)
//!
//! ```text
//! magic            4 B   "SBTC"
//! version          u16   2
//! tenant           u32
//! ckpt_seq         u64   monotone per-tenant checkpoint counter
//! epoch            u32   key epoch the snapshot is sealed under
//! retired_before   u32   epoch-retirement horizon at seal time
//! audit_cursor     u64   segment seq the resumed audit log continues at
//! egress_seq       u64
//! events_ingested  u64
//! bytes_ingested   u64
//! left_watermark   u64   milliseconds
//! right_watermark  u64   milliseconds
//! next_unexecuted  u32   first window not yet fired
//! batches          4 × u32  per side: batches since its last watermark,
//!                        and in the window before
//! next_uarray_id   u64   id floor for the restored plane's allocator
//! n_arrays         u32
//! per array, in (window, side, lane) order:
//!   win_no         u32
//!   side           u8
//!   lane           u32
//!   n_events       u32, then 12 B per event
//! ```
//!
//! All integers little-endian. Parsing fails closed: any truncation,
//! length mismatch or bad magic/version rejects the whole snapshot.

use crate::egress::{Plaintext, Sealer};
use crate::error::DataPlaneError;
use crate::opaque::OpaqueRef;
use sbt_crypto::{sha256, AesCtr, MasterSecret, Signature};
use sbt_types::{Event, LanePool, TenantId, WindowId, EVENT_BYTES};
use std::sync::Arc;

/// Magic opening every snapshot plaintext.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SBTC";
/// Current snapshot wire-format version.
pub const SNAPSHOT_VERSION: u16 = 2;

/// What the control plane hands a checkpoint: its cursor at a quiescent
/// point (no window mid-fire, no ingest in flight). The window arrays are
/// not named here; the data plane snapshots every one it holds.
#[derive(Debug, Clone, Default)]
pub struct CheckpointManifest {
    /// Primary-stream watermark, milliseconds.
    pub left_watermark_ms: u64,
    /// Secondary-stream watermark, milliseconds.
    pub right_watermark_ms: u64,
    /// First window not yet executed.
    pub next_unexecuted: u32,
    /// Per stream side, the batches the control plane sent since the
    /// side's last watermark and in the window before: where its ingest
    /// lanes resume.
    pub batches: [[u32; 2]; 2],
}

/// One window array a restore put back into the data plane's window map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowArray {
    /// Its window.
    pub window: WindowId,
    /// Its stream side (0, or 1 for a join's secondary stream).
    pub side: u8,
    /// The ingest lane that appends to it.
    pub lane: u32,
    /// A fresh reference to it; later batches of its lane append to it and
    /// reply with the same reference.
    pub opaque: OpaqueRef,
}

/// A sealed snapshot: safe to hand to untrusted storage. The header
/// fields are authenticated by the MAC (and bound into the sealing-key
/// derivation), so tampering with any of them fails the unseal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedSnapshot {
    /// The owning tenant.
    pub tenant: u32,
    /// The checkpoint's monotone sequence number.
    pub ckpt_seq: u64,
    /// Key epoch the snapshot is sealed under.
    pub epoch: u32,
    /// AES-CTR ciphertext of the `SBTC` plaintext.
    pub ciphertext: Vec<u8>,
    /// HMAC over `tenant ‖ ckpt_seq ‖ epoch ‖ ciphertext`.
    pub mac: Signature,
}

impl SealedSnapshot {
    /// Total sealed size in bytes (as stored).
    pub fn len(&self) -> usize {
        4 + 8 + 4 + 4 + self.ciphertext.len() + 32
    }

    /// Whether the ciphertext is empty (never true for a real snapshot).
    pub fn is_empty(&self) -> bool {
        self.ciphertext.is_empty()
    }

    /// Serialize for untrusted storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(&self.tenant.to_le_bytes());
        out.extend_from_slice(&self.ckpt_seq.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.ciphertext.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.ciphertext);
        out.extend_from_slice(&self.mac.0);
        out
    }

    /// Parse stored bytes. Fails closed on truncation or trailing bytes
    /// (a torn write is not a snapshot).
    pub fn from_bytes(bytes: &[u8]) -> Result<SealedSnapshot, DataPlaneError> {
        let mut cur = Cursor::new(bytes);
        let tenant = cur.u32()?;
        let ckpt_seq = cur.u64()?;
        let epoch = cur.u32()?;
        let ct_len = cur.u32()? as usize;
        let ciphertext = cur.bytes(ct_len)?.to_vec();
        let mac = Signature(cur.bytes(32)?.try_into().expect("32 bytes"));
        if !cur.at_end() {
            return Err(DataPlaneError::SnapshotRejected("trailing bytes after snapshot"));
        }
        Ok(SealedSnapshot { tenant, ckpt_seq, epoch, ciphertext, mac })
    }
}

/// The outcome of [`crate::DataPlane::restore_tenant`]: everything the
/// control plane needs to adopt the recovered state and resume serving.
#[derive(Debug, Clone)]
pub struct RestoredTenant {
    /// The restored tenant.
    pub tenant: TenantId,
    /// The checkpoint the tenant resumed from.
    pub ckpt_seq: u64,
    /// The key epoch it resumed under.
    pub epoch: u32,
    /// Primary-stream watermark at checkpoint time, milliseconds.
    pub left_watermark_ms: u64,
    /// Secondary-stream watermark at checkpoint time, milliseconds.
    pub right_watermark_ms: u64,
    /// First window not yet executed at checkpoint time.
    pub next_unexecuted: u32,
    /// The control plane's batch counts at checkpoint time
    /// ([`CheckpointManifest::batches`]).
    pub batches: [[u32; 2]; 2],
    /// The re-committed window arrays, in (window, side, lane) order.
    pub windows: Vec<WindowArray>,
    /// Total events re-committed into secure memory.
    pub events_restored: u64,
}

/// Decoded snapshot plaintext — never leaves the enclave.
pub(crate) struct SnapshotPlaintext {
    pub tenant: u32,
    pub ckpt_seq: u64,
    pub epoch: u32,
    pub retired_before: u32,
    pub audit_cursor: u64,
    pub egress_seq: u64,
    pub events_ingested: u64,
    pub bytes_ingested: u64,
    pub left_watermark_ms: u64,
    pub right_watermark_ms: u64,
    pub next_unexecuted: u32,
    pub batches: [[u32; 2]; 2],
    pub next_uarray_id: u64,
    pub arrays: Vec<SnapshotArray>,
}

/// One window array inside a decoded snapshot.
pub(crate) struct SnapshotArray {
    pub win_no: u32,
    pub side: u8,
    pub lane: u32,
    pub events: Vec<Event>,
}

impl SnapshotPlaintext {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let events: usize = self.arrays.iter().map(|a| a.events.len()).sum();
        // 106 header bytes (magic through `n_arrays`), 13 per array (its
        // window, side, lane and event count).
        let mut out = Vec::with_capacity(106 + 13 * self.arrays.len() + EVENT_BYTES * events);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.tenant.to_le_bytes());
        out.extend_from_slice(&self.ckpt_seq.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.retired_before.to_le_bytes());
        out.extend_from_slice(&self.audit_cursor.to_le_bytes());
        out.extend_from_slice(&self.egress_seq.to_le_bytes());
        out.extend_from_slice(&self.events_ingested.to_le_bytes());
        out.extend_from_slice(&self.bytes_ingested.to_le_bytes());
        out.extend_from_slice(&self.left_watermark_ms.to_le_bytes());
        out.extend_from_slice(&self.right_watermark_ms.to_le_bytes());
        out.extend_from_slice(&self.next_unexecuted.to_le_bytes());
        for count in self.batches.as_flattened() {
            out.extend_from_slice(&count.to_le_bytes());
        }
        out.extend_from_slice(&self.next_uarray_id.to_le_bytes());
        out.extend_from_slice(&(self.arrays.len() as u32).to_le_bytes());
        for a in &self.arrays {
            out.extend_from_slice(&a.win_no.to_le_bytes());
            out.push(a.side);
            out.extend_from_slice(&a.lane.to_le_bytes());
            out.extend_from_slice(&(a.events.len() as u32).to_le_bytes());
            for e in &a.events {
                out.extend_from_slice(&e.to_bytes());
            }
        }
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<SnapshotPlaintext, DataPlaneError> {
        let mut cur = Cursor::new(bytes);
        if cur.bytes(4)? != SNAPSHOT_MAGIC {
            return Err(DataPlaneError::SnapshotRejected("bad snapshot magic"));
        }
        if cur.u16()? != SNAPSHOT_VERSION {
            return Err(DataPlaneError::SnapshotRejected("unsupported snapshot version"));
        }
        let tenant = cur.u32()?;
        let ckpt_seq = cur.u64()?;
        let epoch = cur.u32()?;
        let retired_before = cur.u32()?;
        let audit_cursor = cur.u64()?;
        let egress_seq = cur.u64()?;
        let events_ingested = cur.u64()?;
        let bytes_ingested = cur.u64()?;
        let left_watermark_ms = cur.u64()?;
        let right_watermark_ms = cur.u64()?;
        let next_unexecuted = cur.u32()?;
        let mut batches = [[0; 2]; 2];
        for count in batches.as_flattened_mut() {
            *count = cur.u32()?;
        }
        let next_uarray_id = cur.u64()?;
        let n_arrays = cur.u32()? as usize;
        let mut arrays = Vec::new();
        for _ in 0..n_arrays {
            let (win_no, side, lane) = (cur.u32()?, cur.bytes(1)?[0], cur.u32()?);
            let n_events = cur.u32()? as usize;
            let events = Event::slice_from_bytes(cur.bytes(n_events * EVENT_BYTES)?);
            arrays.push(SnapshotArray { win_no, side, lane, events });
        }
        if !cur.at_end() {
            return Err(DataPlaneError::SnapshotRejected("trailing bytes in snapshot"));
        }
        Ok(SnapshotPlaintext {
            tenant,
            ckpt_seq,
            epoch,
            retired_before,
            audit_cursor,
            egress_seq,
            events_ingested,
            bytes_ingested,
            left_watermark_ms,
            right_watermark_ms,
            next_unexecuted,
            batches,
            next_uarray_id,
            arrays,
        })
    }
}

/// Seal `plaintext`: AES-CTR under the `(tenant, epoch, ckpt_seq)`-derived
/// sealing keys (the checkpoint sequence is part of the derivation, so no
/// two checkpoints ever share a keystream), MAC over the header and
/// ciphertext. Returns the sealed container and the SHA-256 of the
/// plaintext (what the audit trail chains).
///
/// Runs through the data plane's [`Sealer`]: plaintext hash, encryption and
/// MAC advance chunk by chunk in one pass, the encrypt lanes on `pool`.
pub(crate) fn seal_snapshot(
    master: &MasterSecret,
    plain: &SnapshotPlaintext,
    sealer: &Sealer,
    pool: Option<&dyn LanePool>,
) -> (SealedSnapshot, [u8; 32]) {
    let keys = master.sealing_keys(plain.tenant, plain.epoch, plain.ckpt_seq);
    let mut signer = keys.mac.signer();
    signer.update(&plain.tenant.to_le_bytes());
    signer.update(&plain.ckpt_seq.to_le_bytes());
    signer.update(&plain.epoch.to_le_bytes());
    let sealed = sealer.seal(
        Plaintext::Bytes(Arc::new(plain.encode())),
        AesCtr::new(&keys.key, &keys.nonce),
        signer,
        true,
        pool,
        None,
    );
    (
        SealedSnapshot {
            tenant: plain.tenant,
            ckpt_seq: plain.ckpt_seq,
            epoch: plain.epoch,
            ciphertext: sealed.ciphertext,
            mac: sealed.signature,
        },
        sealed.plain_hash.expect("the seal was asked to hash the plaintext"),
    )
}

/// Unseal and decode a snapshot, failing closed on any authentication or
/// parse failure. Returns the plaintext and its SHA-256 (for matching
/// against the trail's sealed-checkpoint record).
pub(crate) fn unseal_snapshot(
    master: &MasterSecret,
    sealed: &SealedSnapshot,
) -> Result<(SnapshotPlaintext, [u8; 32]), DataPlaneError> {
    let keys = master.sealing_keys(sealed.tenant, sealed.epoch, sealed.ckpt_seq);
    let authentic = keys.mac.verify_parts(
        &[
            &sealed.tenant.to_le_bytes(),
            &sealed.ckpt_seq.to_le_bytes(),
            &sealed.epoch.to_le_bytes(),
            &sealed.ciphertext,
        ],
        &sealed.mac,
    );
    if !authentic {
        return Err(DataPlaneError::SnapshotRejected("snapshot authentication failed"));
    }
    let mut bytes = vec![0u8; sealed.ciphertext.len()];
    AesCtr::new(&keys.key, &keys.nonce).apply_keystream_into(&sealed.ciphertext, &mut bytes, 0);
    let hash = sha256(&bytes);
    let plain = SnapshotPlaintext::decode(&bytes)?;
    // The authenticated header must agree with the sealed body.
    if plain.tenant != sealed.tenant
        || plain.ckpt_seq != sealed.ckpt_seq
        || plain.epoch != sealed.epoch
    {
        return Err(DataPlaneError::SnapshotRejected("snapshot header mismatch"));
    }
    Ok((plain, hash))
}

/// Bounds-checked little-endian reader that fails closed.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DataPlaneError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DataPlaneError::SnapshotRejected("truncated snapshot"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, DataPlaneError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, DataPlaneError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, DataPlaneError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotPlaintext {
        SnapshotPlaintext {
            tenant: 3,
            ckpt_seq: 7,
            epoch: 2,
            retired_before: 1,
            audit_cursor: 42,
            egress_seq: 5,
            events_ingested: 1000,
            bytes_ingested: 12_000,
            left_watermark_ms: 9_000,
            right_watermark_ms: 0,
            next_unexecuted: 9,
            batches: [[2, 4], [0, 3]],
            next_uarray_id: 77,
            arrays: vec![
                SnapshotArray {
                    win_no: 9,
                    side: 0,
                    lane: 0,
                    events: (0..10u32).map(|i| Event::new(i, i * 2, 9_000 + i)).collect(),
                },
                SnapshotArray {
                    win_no: 9,
                    side: 0,
                    lane: 3,
                    events: vec![Event::new(99, 1, 9_500)],
                },
                SnapshotArray { win_no: 10, side: 1, lane: 0, events: Vec::new() },
            ],
        }
    }

    fn seal(master: &MasterSecret, plain: &SnapshotPlaintext) -> (SealedSnapshot, [u8; 32]) {
        seal_snapshot(master, plain, &Sealer::new(), None)
    }

    #[test]
    fn sealed_bytes_are_the_three_pass_construction() {
        // What the sealer streams equals hashing, encrypting and MACing the
        // whole encoded plaintext one pass after another.
        let master = MasterSecret::demo();
        let plain = sample();
        let (sealed, hash) = seal(&master, &plain);
        let encoded = plain.encode();
        let keys = master.sealing_keys(plain.tenant, plain.epoch, plain.ckpt_seq);
        assert_eq!(hash, sha256(&encoded));
        let ciphertext = AesCtr::new(&keys.key, &keys.nonce).encrypt(&encoded);
        assert_eq!(sealed.ciphertext, ciphertext);
        let mac = keys.mac.sign_parts(&[
            &plain.tenant.to_le_bytes(),
            &plain.ckpt_seq.to_le_bytes(),
            &plain.epoch.to_le_bytes(),
            &ciphertext,
        ]);
        assert_eq!(sealed.mac, mac);
    }

    #[test]
    fn plaintext_round_trips() {
        let plain = sample();
        let encoded = plain.encode();
        assert_eq!(encoded.capacity(), encoded.len(), "encode sizes its buffer exactly");
        let decoded = SnapshotPlaintext::decode(&plain.encode()).unwrap();
        assert_eq!(decoded.tenant, 3);
        assert_eq!(decoded.ckpt_seq, 7);
        assert_eq!(decoded.audit_cursor, 42);
        assert_eq!(decoded.batches, [[2, 4], [0, 3]]);
        assert_eq!(decoded.arrays.len(), 3);
        assert_eq!(decoded.arrays[0].events, plain.arrays[0].events);
        assert_eq!((decoded.arrays[1].win_no, decoded.arrays[1].lane), (9, 3));
        assert_eq!((decoded.arrays[2].win_no, decoded.arrays[2].side), (10, 1));
    }

    #[test]
    fn seal_then_unseal_round_trips_and_hashes_match() {
        let master = MasterSecret::demo();
        let (sealed, hash) = seal(&master, &sample());
        assert_eq!(sealed.tenant, 3);
        let (plain, unhash) = unseal_snapshot(&master, &sealed).unwrap();
        assert_eq!(unhash, hash);
        assert_eq!(plain.arrays[1].events, vec![Event::new(99, 1, 9_500)]);
        // The ciphertext is not the plaintext.
        assert_ne!(sealed.ciphertext, sample().encode());
    }

    #[test]
    fn corruption_fails_closed() {
        let master = MasterSecret::demo();
        let (sealed, _) = seal(&master, &sample());
        // Bit flip in the ciphertext.
        let mut flipped = sealed.clone();
        flipped.ciphertext[10] ^= 0x40;
        assert!(matches!(
            unseal_snapshot(&master, &flipped),
            Err(DataPlaneError::SnapshotRejected(_))
        ));
        // Truncated ciphertext (torn write).
        let mut torn = sealed.clone();
        torn.ciphertext.truncate(torn.ciphertext.len() / 2);
        assert!(unseal_snapshot(&master, &torn).is_err());
        // Tampered header: claims another tenant / epoch / sequence.
        for tamper in [
            SealedSnapshot { tenant: 4, ..sealed.clone() },
            SealedSnapshot { epoch: 3, ..sealed.clone() },
            SealedSnapshot { ckpt_seq: 8, ..sealed.clone() },
        ] {
            assert!(unseal_snapshot(&master, &tamper).is_err());
        }
        // The wrong master secret cannot open it at all.
        let other = MasterSecret::new(b"not the platform secret");
        assert!(unseal_snapshot(&other, &sealed).is_err());
    }

    #[test]
    fn stored_bytes_round_trip() {
        let master = MasterSecret::demo();
        let (sealed, _) = seal(&master, &sample());
        let bytes = sealed.to_bytes();
        assert_eq!(bytes.len(), sealed.len());
        assert_eq!(SealedSnapshot::from_bytes(&bytes).unwrap(), sealed);
        // Truncation at every prefix length fails closed, never panics.
        for cut in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(SealedSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(SealedSnapshot::from_bytes(&padded).is_err());
    }
}
