//! Differential tests: parallel trail verification must be observationally
//! identical to the serial verifier.
//!
//! The parallel verifier fans the per-segment heavy work (HMAC check,
//! decompression) over a [`LanePool`] and keeps the stitching pass
//! sequential. For any trail — arbitrary record mixes, any worker count,
//! segments in either wire format, and every tamper class the serial
//! verifier detects — both verifiers must return the same records or reject
//! with the same [`TrailError`].

mod common;

use common::{record_from_spec, v1_fixtures};
use proptest::prelude::*;
use sbt_attest::{
    compress_records_streaming, verify_tenant_trail, verify_tenant_trail_parallel,
    verify_tenant_trail_parallel_min_shard, AuditRecord, DataRef, DepartureReason, LogSegment,
    TrailError, UArrayRef,
};
use sbt_crypto::{SigningKey, TenantKeychain, VerifierKeySet};
use sbt_types::{LanePool, LaneTask, TenantId};
use std::sync::Arc;

/// Minimal conforming pool: every task on its own scoped thread, all joined
/// before `run` returns (the barrier the trait requires). Deliberately not
/// the engine's executor — the differential property must hold for *any*
/// conforming pool, and attest cannot depend on the engine.
struct ScopedPool(usize);

impl LanePool for ScopedPool {
    fn workers(&self) -> usize {
        self.0
    }

    fn run(&self, tasks: Vec<LaneTask>) {
        std::thread::scope(|scope| {
            for task in tasks {
                scope.spawn(task);
            }
        });
    }
}

fn epoch_key(epoch: u32) -> SigningKey {
    SigningKey::new(format!("parallel-verify-epoch-{epoch}").as_bytes())
}

fn chain_through(tenant: TenantId, through: u32) -> TenantKeychain {
    TenantKeychain::from_epochs(
        tenant.0,
        (0..=through).map(|e| VerifierKeySet::signing_only(e, epoch_key(e))).collect(),
    )
}

/// Build a trail of `records` split into `split`-record v3 segments, each
/// behind a captured v1 segment (the mixed-format upgrade scenario): the
/// all-kinds fixture first, since its checkpoint may appear only once in a
/// trail, the checkpoint-free one after that. Every segment is signed under
/// a non-decreasing epoch (bumping every `rekey_every` segments). Returns
/// the segments, the last epoch and the records the whole trail carries.
fn build_trail(
    records: &[AuditRecord],
    tenant: TenantId,
    split: usize,
    rekey_every: usize,
) -> (Vec<LogSegment>, u32, Vec<AuditRecord>) {
    let mut payloads = Vec::new();
    for (i, chunk) in records.chunks(split.max(1)).enumerate() {
        let [full, checkpoint_free] = v1_fixtures();
        let (v1, v1_records) = if i == 0 { full } else { checkpoint_free };
        payloads.push((v1.to_vec(), v1_records));
        payloads.push((compress_records_streaming(chunk), chunk.to_vec()));
    }
    let (mut segments, mut carried, mut epoch) = (Vec::new(), Vec::new(), 0u32);
    for (seq, (compressed, chunk)) in payloads.into_iter().enumerate() {
        if rekey_every > 0 && seq > 0 && seq.is_multiple_of(rekey_every) {
            epoch += 1;
        }
        segments.push(LogSegment::new_signed(
            tenant,
            epoch,
            seq as u64,
            compressed,
            AuditRecord::raw_size(&chunk),
            chunk.len(),
            &epoch_key(epoch),
        ));
        carried.extend(chunk);
    }
    (segments, epoch, carried)
}

/// Assert the parallel verifier agrees with the serial one for every worker
/// count — same records on acceptance, same error on rejection.
fn assert_parallel_matches_serial(
    segments: Vec<LogSegment>,
    tenant: TenantId,
    keys: &TenantKeychain,
) -> Result<Vec<AuditRecord>, TrailError> {
    let serial = verify_tenant_trail(&segments, tenant, keys);
    let shared = Arc::new(segments);
    for workers in [0usize, 1, 2, 3, 8] {
        // Shard floor 0: force genuine fan-out — these trails are far below
        // the production threshold, which would silently keep them serial.
        let parallel =
            verify_tenant_trail_parallel_min_shard(&shared, tenant, keys, &ScopedPool(workers), 0);
        assert_eq!(parallel, serial, "parallel({workers} workers) diverged from serial");
    }
    serial
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core differential property over *clean and broken* trails: an
    /// arbitrary record mix is segmented (v3, behind captured v1 segments, periodic
    /// rekeys), then optionally mutated into one of the tamper classes the
    /// serial verifier detects. Whatever the serial verifier says — accept
    /// with these records, or reject with this error — the parallel
    /// verifier must say verbatim, at every pool width.
    #[test]
    fn parallel_verify_matches_serial(
        specs in proptest::collection::vec(
            (0u8..8, 0u32..100_000, 0u32..50_000, 0u16..500), 1..150),
        split in 1usize..25,
        rekey_every in 0usize..5,
        mutation in 0u8..7,
        target in 0usize..25,
    ) {
        let tenant = TenantId(9);
        let records: Vec<AuditRecord> =
            specs.into_iter().map(|(k, ts, id, win)| record_from_spec(k, ts, id, win)).collect();
        let (mut segments, last_epoch, carried) = build_trail(&records, tenant, split, rekey_every);
        let k = target % segments.len();
        let mut keys = chain_through(tenant, last_epoch);
        match mutation {
            // Clean trail: no mutation.
            0 => {}
            1 => {
                // Tampered payload: the epoch key no longer vouches for it.
                segments[k].compressed.push(0xA5);
            }
            2 => {
                // Dropped segment (sequence gap) — unless it's the only one.
                if segments.len() > 1 {
                    segments.remove(k);
                }
            }
            3 => {
                // Cross-epoch splice: re-sign segment k under a *later*
                // epoch's key with a matching epoch tag, leaving an
                // individually-valid segment whose epoch regresses at k+1
                // (when k isn't the last segment and epochs ever moved).
                let spliced_epoch = last_epoch + 1;
                let seg = &segments[k];
                segments[k] = LogSegment::new_signed(
                    seg.tenant,
                    spliced_epoch,
                    seg.seq,
                    seg.compressed.clone(),
                    seg.raw_bytes,
                    seg.record_count,
                    &epoch_key(spliced_epoch),
                );
                keys = chain_through(tenant, spliced_epoch);
            }
            4 => {
                // Epoch beyond the keychain: verifier provisioned one epoch
                // short (only distinguishable when the trail ever rekeyed).
                if last_epoch > 0 {
                    keys = chain_through(tenant, last_epoch - 1);
                }
            }
            5 => {
                // Wrong tenant tag on one segment.
                segments[k].tenant = TenantId(10);
            }
            _ => {
                // Valid signature over a corrupt payload: decode must fail
                // *after* the signature check passes.
                let seg = &segments[k];
                segments[k] = LogSegment::new_signed(
                    seg.tenant,
                    seg.epoch,
                    seg.seq,
                    vec![0xFF; 7],
                    seg.raw_bytes,
                    seg.record_count,
                    &epoch_key(seg.epoch),
                );
            }
        }
        let serial = assert_parallel_matches_serial(segments, tenant, &keys);
        if mutation == 0 {
            prop_assert!(serial.is_ok(), "clean trail rejected: {:?}", serial);
            prop_assert_eq!(serial.unwrap(), carried);
        }
    }
}

/// Post-departure trail: a tenant drains, its last segment carries the
/// `Departure` terminal, and the full trail (including segments a buggy or
/// malicious edge might flush *after* the departure) verifies to the same
/// record sequence both ways — so the downstream replay's post-departure
/// detection sees identical input from either verifier.
#[test]
fn post_departure_trails_verify_identically() {
    let tenant = TenantId(4);
    let mut records: Vec<AuditRecord> = (0..40)
        .map(|i| AuditRecord::Ingress { ts_ms: i, data: DataRef::UArray(UArrayRef(i)) })
        .collect();
    records.push(AuditRecord::Departure { ts_ms: 40, reason: DepartureReason::Drained });
    // Records flushed after the departure terminal.
    records.push(AuditRecord::Ingress { ts_ms: 41, data: DataRef::UArray(UArrayRef(41)) });
    let (segments, last_epoch, carried) = build_trail(&records, tenant, 7, 2);
    let keys = chain_through(tenant, last_epoch);
    let verified = assert_parallel_matches_serial(segments, tenant, &keys)
        .expect("authentic post-departure trail verifies");
    assert_eq!(verified, carried);
}

/// The keychain-mismatch rejection is identical (and upfront) in both.
#[test]
fn wrong_keychain_rejects_identically() {
    let tenant = TenantId(2);
    let records = vec![AuditRecord::Ingress { ts_ms: 0, data: DataRef::UArray(UArrayRef(0)) }; 10];
    let (segments, ..) = build_trail(&records, tenant, 3, 0);
    let wrong = chain_through(TenantId(5), 0);
    let err = assert_parallel_matches_serial(segments, tenant, &wrong).unwrap_err();
    assert_eq!(err, TrailError::WrongKeychain { expected: tenant, keychain: TenantId(5) });
}

/// A pool that must never be handed tasks — proves a fallback stayed
/// serial.
struct PanicPool(usize);

impl LanePool for PanicPool {
    fn workers(&self) -> usize {
        self.0
    }
    fn run(&self, _tasks: Vec<LaneTask>) {
        panic!("this trail must be verified serially, never fanned out");
    }
}

/// A one-worker pool (or a one-segment trail) degenerates to the serial
/// verifier without touching the pool.
#[test]
fn degenerate_pools_fall_back_to_serial() {
    let tenant = TenantId(1);
    let records = vec![AuditRecord::Ingress { ts_ms: 0, data: DataRef::UArray(UArrayRef(3)) }; 6];
    let (segments, _, carried) = build_trail(&records, tenant, 2, 0);
    let keys = chain_through(tenant, 0);
    let shared = Arc::new(segments);
    let records_out = verify_tenant_trail_parallel(&shared, tenant, &keys, &PanicPool(1))
        .expect("serial fallback verifies");
    assert_eq!(records_out, carried);
}

/// Trails below the per-shard payload floor stay serial no matter how wide
/// the pool: a shard must amortize its dispatch cost over a meaningful
/// amount of HMAC + decompression work.
#[test]
fn small_trails_stay_serial_under_the_shard_floor() {
    let tenant = TenantId(6);
    let records: Vec<AuditRecord> = (0..200)
        .map(|i| AuditRecord::Ingress { ts_ms: i, data: DataRef::UArray(UArrayRef(i)) })
        .collect();
    let (segments, _, carried) = build_trail(&records, tenant, 10, 0);
    let payload: usize = segments.iter().map(|s| s.compressed.len()).sum();
    assert!(
        payload < sbt_attest::MIN_VERIFY_SHARD_BYTES,
        "trail grew past the shard floor; shrink the test input"
    );
    let keys = chain_through(tenant, 0);
    let shared = Arc::new(segments);
    let records_out = verify_tenant_trail_parallel(&shared, tenant, &keys, &PanicPool(8))
        .expect("small trail verifies serially");
    assert_eq!(records_out, carried);

    // The same trail fans out once the floor is waived.
    let fanned = verify_tenant_trail_parallel_min_shard(&shared, tenant, &keys, &ScopedPool(8), 0)
        .expect("small trail verifies fanned out");
    assert_eq!(fanned, carried);
}
