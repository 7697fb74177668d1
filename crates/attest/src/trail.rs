//! Independent verification of one tenant's audit trail.
//!
//! A multi-tenant edge uploads one segment stream per tenant, each tagged
//! with the tenant id and the tenant's **key epoch**, and signed under that
//! epoch's derived key. The cloud verifier holds the tenant's
//! [`TenantKeychain`] — the per-epoch verifier keys derived from the shared
//! master secret — and authenticates the trail in isolation: wrong-tenant
//! segments, unknown epochs, epoch regressions (a segment from an old epoch
//! spliced behind a rekey), bad signatures, and gaps or replays in the
//! per-tenant sequence numbers are all rejected. Only then does it replay
//! the decompressed records against the tenant's pipeline declaration. One
//! tenant's verification never depends on (or even sees) another tenant's
//! segments or keys.

use crate::columnar::decompress_records;
use crate::log::LogSegment;
use crate::record::AuditRecord;
use sbt_crypto::TenantKeychain;
use sbt_types::{LanePool, LaneTask, TenantId};
use std::sync::{Arc, Mutex};

/// Why a tenant trail failed authentication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrailError {
    /// A segment in the trail is tagged with a different tenant.
    WrongTenant {
        /// The tenant the trail was verified for.
        expected: TenantId,
        /// The tenant tag found on the offending segment.
        found: TenantId,
    },
    /// The keychain supplied belongs to a different tenant than the trail
    /// being verified.
    WrongKeychain {
        /// The tenant the trail was verified for.
        expected: TenantId,
        /// The tenant the keychain was derived for.
        keychain: TenantId,
    },
    /// A segment claims a key epoch the verifier's keychain does not cover.
    UnknownEpoch {
        /// Sequence number of the offending segment.
        seq: u64,
        /// The unknown epoch.
        epoch: u32,
    },
    /// A segment's epoch went backwards within the trail — an old epoch's
    /// segment spliced behind a rekey.
    EpochSplice {
        /// Sequence number of the offending segment.
        seq: u64,
        /// The epoch of the preceding segment.
        from: u32,
        /// The (earlier) epoch the offending segment claims.
        to: u32,
    },
    /// A segment's HMAC signature does not verify under its epoch's key.
    BadSignature {
        /// Sequence number of the offending segment.
        seq: u64,
    },
    /// Segment sequence numbers are not contiguous from zero (a segment was
    /// dropped, duplicated, or reordered).
    BrokenSequence {
        /// The sequence number that was expected next.
        expected: u64,
        /// The sequence number found instead.
        found: u64,
    },
    /// A segment's compressed payload failed to decode.
    CorruptSegment {
        /// Sequence number of the offending segment.
        seq: u64,
    },
    /// A resume record references an older checkpoint than the newest one
    /// sealed into the trail — the enclave was restarted from a stale
    /// snapshot, rolling the tenant's state back past sealed history.
    CheckpointRollback {
        /// Sequence number of the segment carrying the offending record.
        seq: u64,
        /// The checkpoint sequence number chained by the newest sealed
        /// checkpoint record.
        chained: u64,
        /// The (older) checkpoint sequence number the resume claims.
        found: u64,
    },
    /// A checkpoint record is inconsistent with the chained history: a
    /// resume whose snapshot hash differs from the sealed checkpoint of the
    /// same sequence number, a resume from a checkpoint the trail never
    /// sealed, or a sealed checkpoint whose sequence number fails to
    /// advance.
    CheckpointMismatch {
        /// Sequence number of the segment carrying the offending record.
        seq: u64,
        /// The checkpoint sequence number the offending record claims.
        ckpt: u64,
    },
}

impl std::fmt::Display for TrailError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrailError::WrongTenant { expected, found } => {
                write!(f, "segment tagged {found} in a trail verified for {expected}")
            }
            TrailError::WrongKeychain { expected, keychain } => {
                write!(f, "keychain for {keychain} used to verify a trail of {expected}")
            }
            TrailError::UnknownEpoch { seq, epoch } => {
                write!(f, "segment {seq} claims epoch {epoch} outside the keychain")
            }
            TrailError::EpochSplice { seq, from, to } => {
                write!(f, "segment {seq} regresses from epoch {from} to {to}")
            }
            TrailError::BadSignature { seq } => write!(f, "segment {seq} signature invalid"),
            TrailError::BrokenSequence { expected, found } => {
                write!(f, "segment sequence broken: expected {expected}, found {found}")
            }
            TrailError::CorruptSegment { seq } => write!(f, "segment {seq} failed to decompress"),
            TrailError::CheckpointRollback { seq, chained, found } => {
                write!(
                    f,
                    "segment {seq} resumes from checkpoint {found} but checkpoint {chained} \
                     is already sealed into the trail (stale-snapshot rollback)"
                )
            }
            TrailError::CheckpointMismatch { seq, ckpt } => {
                write!(f, "segment {seq} carries an inconsistent record for checkpoint {ckpt}")
            }
        }
    }
}

impl std::error::Error for TrailError {}

/// Authenticate one tenant's segment trail and return its records in order.
///
/// Checks, in order per segment: the tenant tag, the epoch (known to the
/// keychain and non-decreasing along the trail), the signature under the
/// epoch's derived key (which covers the tag, the epoch and the sequence
/// number), sequence contiguity from zero, and decodability. On success
/// returns the concatenated records, ready for
/// [`Verifier::replay`](crate::Verifier::replay).
pub fn verify_tenant_trail(
    segments: &[LogSegment],
    tenant: TenantId,
    keys: &TenantKeychain,
) -> Result<Vec<AuditRecord>, TrailError> {
    stitch_trail(segments, tenant, keys, segments.iter().map(|seg| open_segment(seg, keys)))
}

/// One segment's heavy work — the near-totality of verification time —
/// done: its HMAC checked, then its payload decompressed.
struct Opened {
    /// Whether the HMAC verified under the segment's epoch key (`false` for
    /// an epoch the keychain lacks, which the walk reports before ever
    /// reading this).
    sig_ok: bool,
    /// The decoded records, attempted only when the signature verified: a
    /// tampered segment is rejected on its signature, not on the decode of
    /// its corrupted payload. `None` with `sig_ok` means the payload failed
    /// to decompress.
    records: Option<Vec<AuditRecord>>,
}

/// Open one segment: a pure function of the segment and the keychain, so
/// where it runs — on the walk or ahead of it on a worker — cannot change
/// what the walk reports.
fn open_segment(seg: &LogSegment, keys: &TenantKeychain) -> Opened {
    let sig_ok = keys.epoch(seg.epoch).is_some_and(|epoch_keys| seg.verify(&epoch_keys.signing));
    let records = if sig_ok { decompress_records(&seg.compressed).ok() } else { None };
    Opened { sig_ok, records }
}

/// The one walk over a trail: per-segment checks in their canonical order,
/// taking the next [`Opened`] from `opened` (one per segment, in trail
/// order) when a segment reaches its signature check. The serial verifier
/// opens lazily, so a broken trail stops opening segments at its first
/// error; the parallel one hands in outcomes its workers computed ahead.
///
/// Canonical per-segment order (the first failing segment's first failing
/// check wins): tenant tag → epoch known → epoch non-decreasing →
/// signature → sequence contiguity → decodability.
fn stitch_trail(
    segments: &[LogSegment],
    tenant: TenantId,
    keys: &TenantKeychain,
    mut opened: impl Iterator<Item = Opened>,
) -> Result<Vec<AuditRecord>, TrailError> {
    if keys.tenant() != tenant.0 {
        return Err(TrailError::WrongKeychain {
            expected: tenant,
            keychain: TenantId(keys.tenant()),
        });
    }
    let mut records = Vec::new();
    let mut current_epoch = 0u32;
    // The newest sealed checkpoint's (seq, snapshot hash), chained through
    // the signed trail. Every resume must match it exactly: an older seq is
    // a rollback to a stale snapshot, a different hash (or a seq the trail
    // never sealed) is a fabricated restore point.
    let mut last_sealed: Option<(u64, [u8; 32])> = None;
    for (i, seg) in segments.iter().enumerate() {
        if seg.tenant != tenant {
            return Err(TrailError::WrongTenant { expected: tenant, found: seg.tenant });
        }
        if keys.epoch(seg.epoch).is_none() {
            return Err(TrailError::UnknownEpoch { seq: seg.seq, epoch: seg.epoch });
        }
        if seg.epoch < current_epoch {
            return Err(TrailError::EpochSplice {
                seq: seg.seq,
                from: current_epoch,
                to: seg.epoch,
            });
        }
        current_epoch = seg.epoch;
        let opened = opened.next().expect("one outcome per segment");
        if !opened.sig_ok {
            return Err(TrailError::BadSignature { seq: seg.seq });
        }
        if seg.seq != i as u64 {
            return Err(TrailError::BrokenSequence { expected: i as u64, found: seg.seq });
        }
        let decoded = opened.records.ok_or(TrailError::CorruptSegment { seq: seg.seq })?;
        for rec in &decoded {
            let AuditRecord::Checkpoint { seq: ckpt, resumed, hash, .. } = rec else {
                continue;
            };
            if *resumed {
                match last_sealed {
                    Some((chained, sealed_hash)) if chained == *ckpt && sealed_hash == *hash => {}
                    Some((chained, _)) if *ckpt < chained => {
                        return Err(TrailError::CheckpointRollback {
                            seq: seg.seq,
                            chained,
                            found: *ckpt,
                        });
                    }
                    // Hash mismatch at the chained seq, a resume from a
                    // checkpoint never sealed, or a resume before any seal.
                    _ => return Err(TrailError::CheckpointMismatch { seq: seg.seq, ckpt: *ckpt }),
                }
            } else {
                if let Some((chained, _)) = last_sealed {
                    if *ckpt <= chained {
                        return Err(TrailError::CheckpointMismatch { seq: seg.seq, ckpt: *ckpt });
                    }
                }
                last_sealed = Some((*ckpt, *hash));
            }
        }
        records.extend(decoded);
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// Parallel verification
// ---------------------------------------------------------------------------

/// Minimum compressed payload bytes per shard before parallel verification
/// fans out.
///
/// Cross-thread dispatch (enqueue, wake, cache handoff) plus the per-call
/// keychain share cost on the order of authenticating tens of KB, so shards
/// carrying less make verification *slower* than the serial walk. A trail
/// too small for two such shards stays serial.
pub const MIN_VERIFY_SHARD_BYTES: usize = 64 * 1024;

/// [`verify_tenant_trail`] with every segment opened first — HMAC check and
/// decompression, the near-totality of verification time — on `pool`, in
/// contiguous, balanced shards. The serial verifier's walk then runs over
/// those outcomes (tenant tag, epoch chain, splice, sequence contiguity,
/// checkpoint chain), so every tamper, cross-epoch and post-departure
/// detection reports the identical [`TrailError`].
///
/// The trail is shared with the workers (`Arc`), never copied. With one
/// worker, a one-segment trail, or less than [`MIN_VERIFY_SHARD_BYTES`] of
/// payload per would-be pair of shards, this is exactly the serial
/// verifier.
pub fn verify_tenant_trail_parallel(
    segments: &Arc<Vec<LogSegment>>,
    tenant: TenantId,
    keys: &TenantKeychain,
    pool: &dyn LanePool,
) -> Result<Vec<AuditRecord>, TrailError> {
    verify_tenant_trail_parallel_min_shard(segments, tenant, keys, pool, MIN_VERIFY_SHARD_BYTES)
}

/// [`verify_tenant_trail_parallel`] with an explicit per-shard payload
/// floor instead of [`MIN_VERIFY_SHARD_BYTES`] — the differential tests
/// pass `0` to force fan-out over trails far too small to ever fan out in
/// production.
pub fn verify_tenant_trail_parallel_min_shard(
    segments: &Arc<Vec<LogSegment>>,
    tenant: TenantId,
    keys: &TenantKeychain,
    pool: &dyn LanePool,
    min_shard_bytes: usize,
) -> Result<Vec<AuditRecord>, TrailError> {
    let workers = pool.workers();
    let payload_bytes: usize = segments.iter().map(|s| s.compressed.len()).sum();
    let byte_cap = match min_shard_bytes {
        0 => usize::MAX,
        floor => payload_bytes / floor,
    };
    if workers.min(byte_cap) <= 1 || segments.len() < 2 {
        return verify_tenant_trail(segments, tenant, keys);
    }
    if keys.tenant() != tenant.0 {
        return Err(TrailError::WrongKeychain {
            expected: tenant,
            keychain: TenantId(keys.tenant()),
        });
    }

    // Contiguous shards balanced to within one segment; each task opens its
    // shard and files the outcomes under its shard number.
    let shards = workers.min(segments.len()).min(byte_cap);
    let outcomes: Arc<Mutex<Vec<Vec<Opened>>>> =
        Arc::new(Mutex::new((0..shards).map(|_| Vec::new()).collect()));
    let keys = Arc::new(keys.clone());
    let mut tasks: Vec<LaneTask> = Vec::with_capacity(shards);
    let mut start = 0usize;
    for shard in 0..shards {
        let len = segments.len() / shards + usize::from(shard < segments.len() % shards);
        let (segments, keys, outcomes) = (segments.clone(), keys.clone(), outcomes.clone());
        tasks.push(Box::new(move || {
            let opened = segments[start..start + len].iter().map(|s| open_segment(s, &keys));
            outcomes.lock().expect("verify outcome table")[shard] = opened.collect();
        }));
        start += len;
    }
    pool.run(tasks);

    let table = std::mem::take(&mut *outcomes.lock().expect("verify outcome table"));
    stitch_trail(segments, tenant, keys.as_ref(), table.into_iter().flatten())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::AuditLog;
    use crate::record::{DataRef, UArrayRef};
    use sbt_crypto::{SigningKey, VerifierKeySet};

    fn key() -> SigningKey {
        SigningKey::new(b"trail-key")
    }

    fn epoch_key(epoch: u32) -> SigningKey {
        SigningKey::new(format!("trail-key-epoch-{epoch}").as_bytes())
    }

    fn chain(tenant: TenantId) -> TenantKeychain {
        TenantKeychain::single(tenant.0, key())
    }

    fn chain_through(tenant: TenantId, through: u32) -> TenantKeychain {
        TenantKeychain::from_epochs(
            tenant.0,
            (0..=through).map(|e| VerifierKeySet::signing_only(e, epoch_key(e))).collect(),
        )
    }

    fn trail(tenant: TenantId, segments: usize) -> Vec<LogSegment> {
        let mut log = AuditLog::for_tenant(key(), 2, tenant);
        let mut out = Vec::new();
        for i in 0..(segments * 2) as u32 {
            if let Some(seg) =
                log.append(AuditRecord::Ingress { ts_ms: i, data: DataRef::UArray(UArrayRef(i)) })
            {
                out.push(seg);
            }
        }
        out
    }

    /// A trail whose key rotates after every segment: segment `s` carries
    /// epoch `s`, signed under `epoch_key(s)`.
    fn rekeying_trail(tenant: TenantId, segments: usize) -> Vec<LogSegment> {
        let mut log = AuditLog::for_tenant(epoch_key(0), 2, tenant);
        let mut out = Vec::new();
        for s in 0..segments as u32 {
            log.append(AuditRecord::Ingress { ts_ms: s, data: DataRef::UArray(UArrayRef(s)) });
            if let Some(seg) =
                log.append(AuditRecord::Ingress { ts_ms: s, data: DataRef::UArray(UArrayRef(s)) })
            {
                out.push(seg);
            }
            log.rekey(epoch_key(s + 1), s + 1);
        }
        out
    }

    #[test]
    fn clean_trail_verifies_and_yields_records() {
        let segs = trail(TenantId(3), 3);
        let records = verify_tenant_trail(&segs, TenantId(3), &chain(TenantId(3))).unwrap();
        assert_eq!(records.len(), 6);
        assert!(segs.iter().all(|s| s.tenant == TenantId(3)));
        assert!(segs.iter().all(|s| s.epoch == 0));
    }

    #[test]
    fn wrong_tenant_segments_are_rejected() {
        let mut segs = trail(TenantId(1), 2);
        segs.extend(trail(TenantId(2), 1));
        let err = verify_tenant_trail(&segs, TenantId(1), &chain(TenantId(1))).unwrap_err();
        assert_eq!(err, TrailError::WrongTenant { expected: TenantId(1), found: TenantId(2) });
    }

    #[test]
    fn mismatched_keychain_is_rejected_up_front() {
        let segs = trail(TenantId(1), 1);
        let err = verify_tenant_trail(&segs, TenantId(1), &chain(TenantId(2))).unwrap_err();
        assert_eq!(err, TrailError::WrongKeychain { expected: TenantId(1), keychain: TenantId(2) });
    }

    #[test]
    fn retagging_a_segment_breaks_its_signature() {
        // A malicious control plane cannot move a segment into another
        // tenant's trail: the tag is covered by the signature.
        let mut segs = trail(TenantId(1), 1);
        segs[0].tenant = TenantId(2);
        let err = verify_tenant_trail(&segs, TenantId(2), &chain(TenantId(2))).unwrap_err();
        assert_eq!(err, TrailError::BadSignature { seq: 0 });
    }

    #[test]
    fn dropped_segments_break_the_sequence() {
        let mut segs = trail(TenantId(0), 3);
        segs.remove(1);
        let err = verify_tenant_trail(&segs, TenantId(0), &chain(TenantId(0))).unwrap_err();
        assert_eq!(err, TrailError::BrokenSequence { expected: 1, found: 2 });
    }

    #[test]
    fn tampered_payload_is_rejected() {
        let mut segs = trail(TenantId(0), 1);
        segs[0].compressed[0] ^= 0xFF;
        let err = verify_tenant_trail(&segs, TenantId(0), &chain(TenantId(0))).unwrap_err();
        assert_eq!(err, TrailError::BadSignature { seq: 0 });
    }

    #[test]
    fn rekeyed_trail_verifies_under_the_full_keychain() {
        let segs = rekeying_trail(TenantId(4), 3);
        assert_eq!(segs.iter().map(|s| s.epoch).collect::<Vec<_>>(), vec![0, 1, 2]);
        let records =
            verify_tenant_trail(&segs, TenantId(4), &chain_through(TenantId(4), 2)).unwrap();
        assert_eq!(records.len(), 6);
    }

    #[test]
    fn epochs_beyond_the_keychain_are_rejected() {
        // A keychain provisioned only through epoch 1 cannot vouch for an
        // epoch-2 segment.
        let segs = rekeying_trail(TenantId(4), 3);
        let err =
            verify_tenant_trail(&segs, TenantId(4), &chain_through(TenantId(4), 1)).unwrap_err();
        assert_eq!(err, TrailError::UnknownEpoch { seq: 2, epoch: 2 });
    }

    #[test]
    fn reordered_rekeyed_segments_are_rejected() {
        // Plain reorder across epochs: the broken sequence is caught.
        let mut segs = rekeying_trail(TenantId(4), 3);
        segs.swap(0, 2);
        assert!(verify_tenant_trail(&segs, TenantId(4), &chain_through(TenantId(4), 2)).is_err());
    }

    #[test]
    fn cross_epoch_splices_are_rejected() {
        // A splice with *contiguous* sequence numbers but a regressing
        // epoch: each signature is individually valid under its epoch's key,
        // yet an old epoch's segment behind a rekey is refused.
        let record =
            |i: u32| AuditRecord::Ingress { ts_ms: i, data: DataRef::UArray(UArrayRef(i)) };
        // Segment seq 0 under epoch 1.
        let mut new_log = AuditLog::for_tenant(epoch_key(0), 100, TenantId(4));
        new_log.rekey(epoch_key(1), 1);
        new_log.append(record(0));
        let seg0 = new_log.flush().unwrap();
        assert_eq!((seg0.seq, seg0.epoch), (0, 1));
        // Segment seq 1 under epoch 0 (an old log that kept flushing).
        let mut old_log = AuditLog::for_tenant(epoch_key(0), 100, TenantId(4));
        old_log.append(record(0));
        old_log.flush().unwrap();
        old_log.append(record(1));
        let seg1 = old_log.flush().unwrap();
        assert_eq!((seg1.seq, seg1.epoch), (1, 0));

        let err = verify_tenant_trail(&[seg0, seg1], TenantId(4), &chain_through(TenantId(4), 1))
            .unwrap_err();
        assert_eq!(err, TrailError::EpochSplice { seq: 1, from: 1, to: 0 });
    }

    /// A pool that runs every task inline but *claims* `n` workers, forcing
    /// the parallel verifier through its fan-out path deterministically.
    struct InlinePool(usize);

    impl LanePool for InlinePool {
        fn workers(&self) -> usize {
            self.0
        }
        fn run(&self, tasks: Vec<LaneTask>) {
            for t in tasks {
                t();
            }
        }
    }

    /// Verify `segments` through the serial verifier and through the
    /// parallel verifier with the shard floor disabled; the two must agree
    /// exactly (same records or same error).
    fn verify_both(
        segments: Vec<LogSegment>,
        tenant: TenantId,
        keys: &TenantKeychain,
    ) -> Result<Vec<AuditRecord>, TrailError> {
        let serial = verify_tenant_trail(&segments, tenant, keys);
        let parallel = verify_tenant_trail_parallel_min_shard(
            &Arc::new(segments),
            tenant,
            keys,
            &InlinePool(4),
            0,
        );
        assert_eq!(serial, parallel, "serial and parallel verifiers disagree");
        serial
    }

    fn ckpt(seq: u64, resumed: bool, hash: [u8; 32]) -> AuditRecord {
        AuditRecord::Checkpoint { ts_ms: 0, seq, resumed, hash }
    }

    fn data(i: u32) -> AuditRecord {
        AuditRecord::Ingress { ts_ms: i, data: DataRef::UArray(UArrayRef(i)) }
    }

    /// Build a trail from per-segment record lists (threshold high, explicit
    /// flush per segment).
    fn trail_of(tenant: TenantId, per_segment: &[&[AuditRecord]]) -> Vec<LogSegment> {
        let mut log = AuditLog::for_tenant(key(), 1000, tenant);
        let mut out = Vec::new();
        for records in per_segment {
            for r in *records {
                log.append(r.clone());
            }
            out.push(log.flush().expect("non-empty segment"));
        }
        out
    }

    #[test]
    fn matching_seal_and_resume_verifies() {
        let t = TenantId(6);
        let segs = trail_of(
            t,
            &[
                &[data(0), ckpt(0, false, [7; 32])],
                &[ckpt(0, true, [7; 32]), data(1)],
                &[data(2), ckpt(1, false, [8; 32]), ckpt(1, true, [8; 32])],
            ],
        );
        let records = verify_both(segs, t, &chain(t)).unwrap();
        assert_eq!(records.len(), 7);
    }

    #[test]
    fn resume_from_a_stale_checkpoint_is_a_rollback() {
        // Seal 0, seal 1, then resume from 0: the cloud kept the later
        // sealed checkpoint, so the stale restore is caught.
        let t = TenantId(6);
        let segs = trail_of(
            t,
            &[
                &[data(0), ckpt(0, false, [7; 32])],
                &[data(1), ckpt(1, false, [8; 32])],
                &[ckpt(0, true, [7; 32])],
            ],
        );
        let err = verify_both(segs, t, &chain(t)).unwrap_err();
        assert_eq!(err, TrailError::CheckpointRollback { seq: 2, chained: 1, found: 0 });
    }

    #[test]
    fn resume_with_a_forged_hash_is_rejected() {
        let t = TenantId(6);
        let segs = trail_of(t, &[&[data(0), ckpt(3, false, [7; 32])], &[ckpt(3, true, [9; 32])]]);
        let err = verify_both(segs, t, &chain(t)).unwrap_err();
        assert_eq!(err, TrailError::CheckpointMismatch { seq: 1, ckpt: 3 });
    }

    #[test]
    fn resume_without_a_sealed_checkpoint_is_rejected() {
        let t = TenantId(6);
        let segs = trail_of(t, &[&[data(0), ckpt(0, true, [7; 32])]]);
        let err = verify_both(segs, t, &chain(t)).unwrap_err();
        assert_eq!(err, TrailError::CheckpointMismatch { seq: 0, ckpt: 0 });
        // ... including a resume from a *future* (never sealed) checkpoint.
        let segs = trail_of(
            TenantId(6),
            &[&[data(0), ckpt(0, false, [7; 32])], &[ckpt(2, true, [7; 32])]],
        );
        let err = verify_both(segs, t, &chain(t)).unwrap_err();
        assert_eq!(err, TrailError::CheckpointMismatch { seq: 1, ckpt: 2 });
    }

    #[test]
    fn sealed_checkpoint_seq_must_advance() {
        let t = TenantId(6);
        let segs = trail_of(
            t,
            &[&[data(0), ckpt(1, false, [7; 32])], &[data(1), ckpt(1, false, [8; 32])]],
        );
        let err = verify_both(segs, t, &chain(t)).unwrap_err();
        assert_eq!(err, TrailError::CheckpointMismatch { seq: 1, ckpt: 1 });
    }

    #[test]
    fn old_epoch_key_cannot_sign_new_epoch_segments() {
        // Forge: take an epoch-1 segment and relabel it epoch 0 (whose key a
        // hypothetical attacker compromised). The signature covers the epoch
        // tag, so the forgery fails under the epoch-0 key.
        let mut segs = rekeying_trail(TenantId(4), 2);
        let mut forged = segs.remove(1);
        forged.epoch = 0;
        forged.seq = 0;
        let err = verify_tenant_trail(&[forged], TenantId(4), &chain_through(TenantId(4), 1))
            .unwrap_err();
        assert_eq!(err, TrailError::BadSignature { seq: 0 });
    }
}
