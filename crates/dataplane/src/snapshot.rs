//! Sealed per-tenant checkpoint snapshots (crash recovery).
//!
//! A checkpoint captures everything a tenant needs to resume mid-stream
//! after the enclave is killed: its windowed state (the event arrays of
//! every not-yet-fired window), watermarks, ingest/egress counters, and
//! the audit-trail cursor the resumed log continues from. The plaintext
//! is serialized to the versioned `SBTC` wire format below, hashed
//! (the hash is chained into the signed audit trail through an
//! [`sbt_attest::AuditRecord::Checkpoint`] record, so the cloud detects
//! rollback to a stale snapshot), then sealed — AES-CTR encrypted and
//! HMAC-authenticated under keys derived from the platform master secret
//! per `(tenant, epoch, ckpt_seq)` — before it leaves the enclave. No
//! plaintext state ever crosses the boundary, and untrusted storage can
//! at worst withhold or corrupt a snapshot, which unsealing rejects.
//!
//! # Snapshot plaintext wire format (`SBTC` v1)
//!
//! ```text
//! magic            4 B   "SBTC"
//! version          u16   1
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
//! next_uarray_id   u64   id floor for the restored plane's allocator
//! n_windows        u32
//! per window:
//!   win_no         u32
//!   n_left         u32, then per array: n_events u32 + 12 B events
//!   n_right        u32, same layout
//! ```
//!
//! All integers little-endian. Parsing fails closed: any truncation,
//! length mismatch or bad magic/version rejects the whole snapshot.

use crate::egress::{Plaintext, Sealer};
use crate::error::DataPlaneError;
use crate::opaque::OpaqueRef;
use sbt_crypto::{sha256, AesCtr, MasterSecret, Signature};
use sbt_types::{Event, LanePool, TenantId, EVENT_BYTES};
use std::sync::Arc;

/// Magic opening every snapshot plaintext.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SBTC";
/// Current snapshot wire-format version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// One window's partitions as the control plane tracks them: the opaque
/// references of each stream side, in arrival order.
#[derive(Debug, Clone)]
pub struct WindowManifest {
    /// The window number.
    pub win_no: u32,
    /// Primary-stream partition references.
    pub left: Vec<OpaqueRef>,
    /// Secondary-stream partition references (joins only).
    pub right: Vec<OpaqueRef>,
}

/// What the control plane asks the data plane to checkpoint: its
/// window-state bookkeeping at a quiescent point (no window mid-fire).
#[derive(Debug, Clone, Default)]
pub struct CheckpointManifest {
    /// Primary-stream watermark, milliseconds.
    pub left_watermark_ms: u64,
    /// Secondary-stream watermark, milliseconds.
    pub right_watermark_ms: u64,
    /// First window not yet executed.
    pub next_unexecuted: u32,
    /// Pending windows and their partition references.
    pub windows: Vec<WindowManifest>,
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
    /// Restored windows with fresh references to the re-committed
    /// partition arrays.
    pub windows: Vec<WindowManifest>,
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
    pub next_uarray_id: u64,
    pub windows: Vec<SnapshotWindow>,
}

/// One window's materialized partitions inside a decoded snapshot.
pub(crate) struct SnapshotWindow {
    pub win_no: u32,
    pub left: Vec<Vec<Event>>,
    pub right: Vec<Vec<Event>>,
}

impl SnapshotPlaintext {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let arrays = || self.windows.iter().flat_map(|w| w.left.iter().chain(&w.right));
        let events: usize = arrays().map(Vec::len).sum();
        // 90 header bytes (magic through `n_windows`), 12 per window
        // (`win_no` and its two array counts), 4 per array (`n_events`).
        let mut out = Vec::with_capacity(
            90 + 12 * self.windows.len() + 4 * arrays().count() + EVENT_BYTES * events,
        );
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
        out.extend_from_slice(&self.next_uarray_id.to_le_bytes());
        out.extend_from_slice(&(self.windows.len() as u32).to_le_bytes());
        for w in &self.windows {
            out.extend_from_slice(&w.win_no.to_le_bytes());
            for side in [&w.left, &w.right] {
                out.extend_from_slice(&(side.len() as u32).to_le_bytes());
                for events in side.iter() {
                    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
                    for e in events {
                        out.extend_from_slice(&e.to_bytes());
                    }
                }
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
        let next_uarray_id = cur.u64()?;
        let n_windows = cur.u32()? as usize;
        let mut windows = Vec::new();
        for _ in 0..n_windows {
            let win_no = cur.u32()?;
            let mut sides: [Vec<Vec<Event>>; 2] = [Vec::new(), Vec::new()];
            for side in &mut sides {
                let n_arrays = cur.u32()? as usize;
                for _ in 0..n_arrays {
                    let n_events = cur.u32()? as usize;
                    let raw = cur.bytes(n_events * EVENT_BYTES)?;
                    side.push(Event::slice_from_bytes(raw));
                }
            }
            let [left, right] = sides;
            windows.push(SnapshotWindow { win_no, left, right });
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
            next_uarray_id,
            windows,
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
            next_uarray_id: 77,
            windows: vec![
                SnapshotWindow {
                    win_no: 9,
                    left: vec![
                        (0..10u32).map(|i| Event::new(i, i * 2, 9_000 + i)).collect(),
                        vec![Event::new(99, 1, 9_500)],
                    ],
                    right: Vec::new(),
                },
                SnapshotWindow { win_no: 10, left: Vec::new(), right: Vec::new() },
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
        assert_eq!(decoded.windows.len(), 2);
        assert_eq!(decoded.windows[0].left.len(), 2);
        assert_eq!(decoded.windows[0].left[0], plain.windows[0].left[0]);
        assert_eq!(decoded.windows[1].win_no, 10);
    }

    #[test]
    fn seal_then_unseal_round_trips_and_hashes_match() {
        let master = MasterSecret::demo();
        let (sealed, hash) = seal(&master, &sample());
        assert_eq!(sealed.tenant, 3);
        let (plain, unhash) = unseal_snapshot(&master, &sealed).unwrap();
        assert_eq!(unhash, hash);
        assert_eq!(plain.windows[0].left[1], vec![Event::new(99, 1, 9_500)]);
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
