//! The zero-copy ingest path, proven three ways:
//!
//! 1. **Differential**: encrypted in-place ingest, cleartext in-place
//!    ingest and a staging reference (decrypt into a heap buffer, then
//!    parse — the path this refactor removed) agree byte-for-byte on the
//!    stored events, the admission counters and the audit records, across
//!    generic and power layouts, chunk-boundary batch sizes and CTR
//!    counter wraparound.
//! 2. **Allocation-free**: a counting global allocator shows the encrypted
//!    hot path performs no staging allocation — only the destination
//!    uArray and its `Arc` wrapper, independent of payload size.
//! 3. **Clean quota failure**: when the up-front page reservation fails,
//!    nothing is leaked — no committed bytes, no live refs, no counters,
//!    no audit records — and the plane keeps working.

use sbt_crypto::{AesCtr, MasterSecret};
use sbt_dataplane::{DataPlane, DataPlaneConfig};
use sbt_types::{Event, PowerEvent, TenantId};
use sbt_tz::{Platform, PlatformConfig, World, WorldGuard};

// Per-thread accounting: sibling tests allocating on other threads cannot
// disturb a measurement.
#[global_allocator]
static GLOBAL: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator;

fn in_tee<R>(f: impl FnOnce() -> R) -> R {
    let _g = WorldGuard::enter(World::Secure);
    f()
}

fn plane() -> std::sync::Arc<DataPlane> {
    DataPlane::new(Platform::hikey(), DataPlaneConfig::default())
}

/// Deterministic pseudo-random generic events (values exercise all bytes).
fn generic_events(n: usize, seed: u32) -> Vec<Event> {
    (0..n as u32)
        .map(|i| {
            let x = seed.wrapping_add(i).wrapping_mul(0x9E37_79B9);
            Event::new(x, x.rotate_left(11) ^ 0xA5A5_A5A5, i)
        })
        .collect()
}

fn power_events(n: usize, seed: u32) -> Vec<PowerEvent> {
    (0..n as u32)
        .map(|i| {
            let x = seed.wrapping_add(i).wrapping_mul(0x85EB_CA6B);
            PowerEvent::new(x, (x >> 8) & 0xFFFF, x >> 20, i * 3)
        })
        .collect()
}

/// Encrypt `wire` under the default tenant's epoch-0 source key at `block`.
fn encrypt(wire: &[u8], block: u32) -> Vec<u8> {
    let ks = MasterSecret::demo().tenant_keys(TenantId::DEFAULT.0, 0);
    let mut buf = wire.to_vec();
    AesCtr::new(&ks.source_key, &ks.source_nonce).apply_keystream_at(&mut buf, block);
    buf
}

/// The staging reference this refactor removed: decrypt the whole payload
/// into a heap buffer, then parse the buffer into events.
fn staging_reference(payload: &[u8], encrypted: bool, is_power: bool, block: u32) -> Vec<Event> {
    let plaintext: Vec<u8> = if encrypted {
        let ks = MasterSecret::demo().tenant_keys(TenantId::DEFAULT.0, 0);
        let mut buf = payload.to_vec();
        AesCtr::new(&ks.source_key, &ks.source_nonce).apply_keystream_at(&mut buf, block);
        buf
    } else {
        payload.to_vec()
    };
    if is_power {
        PowerEvent::slice_from_bytes(&plaintext).iter().map(|e| e.to_generic()).collect()
    } else {
        Event::slice_from_bytes(&plaintext)
    }
}

/// Zero the wall-clock timestamps so audit streams from two independently
/// started planes compare structurally.
fn strip_ts(records: Vec<sbt_attest::AuditRecord>) -> Vec<sbt_attest::AuditRecord> {
    use sbt_attest::AuditRecord::*;
    records
        .into_iter()
        .map(|r| match r {
            Ingress { data, .. } => Ingress { ts_ms: 0, data },
            Egress { data, .. } => Egress { ts_ms: 0, data },
            Windowing { input, win_no, output, .. } => {
                Windowing { ts_ms: 0, input, win_no, output }
            }
            Execution { op, inputs, outputs, hints, .. } => {
                Execution { ts_ms: 0, op, inputs, outputs, hints }
            }
            other => other,
        })
        .collect()
}

fn drained_records(dp: &DataPlane) -> Vec<sbt_attest::AuditRecord> {
    let mut out = Vec::new();
    for seg in dp.drain_audit_segments(TenantId::DEFAULT).unwrap() {
        out.extend(sbt_attest::decompress_records(&seg.compressed).expect("segment decodes"));
    }
    out
}

/// Batch shapes that straddle every interesting boundary of the 4080-byte
/// decrypt window: below it, exactly one window, one window plus one
/// record, several windows, and a single record. 340 generic events and
/// 255 power events are exactly 4080 bytes.
const GENERIC_SIZES: [usize; 6] = [1, 4, 339, 340, 341, 1000];
const POWER_SIZES: [usize; 6] = [1, 4, 254, 255, 256, 700];
/// Keystream offsets including one that wraps the 32-bit CTR counter
/// mid-batch.
const BLOCKS: [u32; 3] = [0, 12345, u32::MAX - 100];

#[test]
fn zero_copy_matches_staging_reference_everywhere() {
    // Plane A ingests ciphertext (in-place decrypt), plane B the
    // corresponding cleartext (direct parse). Identical call sequences, so
    // everything observable must match — and match the staging reference.
    let dp_enc = plane();
    let dp_clear = plane();

    for (i, (&n, &block)) in
        GENERIC_SIZES.iter().flat_map(|n| BLOCKS.iter().map(move |b| (n, b))).enumerate()
    {
        let wire = Event::slice_to_bytes(&generic_events(n, i as u32));
        let ciphertext = encrypt(&wire, block);
        let reference = staging_reference(&ciphertext, true, false, block);
        assert_eq!(reference, Event::slice_from_bytes(&wire), "reference sanity, n={n}");

        let a =
            in_tee(|| dp_enc.ingress(TenantId::DEFAULT, &ciphertext, true, false, block)).unwrap();
        let b = in_tee(|| dp_clear.ingress(TenantId::DEFAULT, &wire, false, false, block)).unwrap();
        assert_eq!(a.len, n, "encrypted ingest length, n={n} block={block}");
        assert_eq!(b.len, n);

        // Byte-identical stores: both planes run the same egress sequence
        // under the same cloud keys, so ciphertexts must be equal — and
        // open to the reference's wire bytes.
        let msg_a = in_tee(|| dp_enc.egress(TenantId::DEFAULT, a.opaque)).unwrap();
        let msg_b = in_tee(|| dp_clear.egress(TenantId::DEFAULT, b.opaque)).unwrap();
        assert_eq!(msg_a.ciphertext, msg_b.ciphertext, "stores diverge, n={n} block={block}");
        let (key, nonce, signing) = dp_enc.cloud_keys();
        let plain = msg_a.open(&key, &nonce, &signing).unwrap();
        assert_eq!(plain, Event::slice_to_bytes(&reference));

        in_tee(|| dp_enc.retire(TenantId::DEFAULT, a.opaque)).unwrap();
        in_tee(|| dp_clear.retire(TenantId::DEFAULT, b.opaque)).unwrap();
    }

    // Power layout: 16-byte events projected onto the generic layout.
    for (i, (&n, &block)) in
        POWER_SIZES.iter().flat_map(|n| BLOCKS.iter().map(move |b| (n, b))).enumerate()
    {
        let wire = PowerEvent::slice_to_bytes(&power_events(n, 77 + i as u32));
        let ciphertext = encrypt(&wire, block);
        let reference = staging_reference(&ciphertext, true, true, block);

        let a =
            in_tee(|| dp_enc.ingress(TenantId::DEFAULT, &ciphertext, true, true, block)).unwrap();
        let b = in_tee(|| dp_clear.ingress(TenantId::DEFAULT, &wire, false, true, block)).unwrap();
        assert_eq!(a.len, n);

        let msg_a = in_tee(|| dp_enc.egress(TenantId::DEFAULT, a.opaque)).unwrap();
        let msg_b = in_tee(|| dp_clear.egress(TenantId::DEFAULT, b.opaque)).unwrap();
        assert_eq!(msg_a.ciphertext, msg_b.ciphertext, "power stores diverge, n={n}");
        let (key, nonce, signing) = dp_enc.cloud_keys();
        let plain = msg_a.open(&key, &nonce, &signing).unwrap();
        assert_eq!(plain, Event::slice_to_bytes(&reference));

        in_tee(|| dp_enc.retire(TenantId::DEFAULT, a.opaque)).unwrap();
        in_tee(|| dp_clear.retire(TenantId::DEFAULT, b.opaque)).unwrap();
    }

    // Admission counters agree exactly (timing counters excepted: the two
    // planes measured different wall clocks).
    let sa = dp_enc.stats().snapshot();
    let sb = dp_clear.stats().snapshot();
    assert_eq!(sa.events_ingested, sb.events_ingested);
    assert_eq!(sa.bytes_ingested, sb.bytes_ingested);
    assert_eq!(sa.egress_count, sb.egress_count);
    assert_eq!(sa.audit_records, sb.audit_records);
    assert_eq!(
        dp_enc.tenant_ingest(TenantId::DEFAULT).unwrap(),
        dp_clear.tenant_ingest(TenantId::DEFAULT).unwrap()
    );
    // Only the encrypted plane spent decrypt time.
    assert!(sa.decrypt_nanos > 0);
    assert_eq!(sb.decrypt_nanos, 0);

    // Audit streams are structurally identical (timestamps are wall clock).
    let ra = strip_ts(drained_records(&dp_enc));
    let rb = strip_ts(drained_records(&dp_clear));
    assert!(!ra.is_empty());
    assert_eq!(ra, rb);
}

#[test]
fn tenant_isolation_holds_on_the_zero_copy_path() {
    // A payload encrypted under tenant 1's key, ingested by tenant 2,
    // decrypts to garbage — which still parses (the wire format is
    // position-based) but never to the original records.
    let dp = plane();
    dp.register_tenant(TenantId(1), None).unwrap();
    dp.register_tenant(TenantId(2), None).unwrap();
    let events = generic_events(500, 9);
    let wire = Event::slice_to_bytes(&events);
    let ks1 = MasterSecret::demo().tenant_keys(1, 0);
    let mut ciphertext = wire.clone();
    AesCtr::new(&ks1.source_key, &ks1.source_nonce).apply_keystream_at(&mut ciphertext, 0);

    let wrong = in_tee(|| dp.ingress(TenantId(2), &ciphertext, true, false, 0)).unwrap();
    let right = in_tee(|| dp.ingress(TenantId(1), &ciphertext, true, false, 0)).unwrap();
    let (wrong_plain, _) = in_tee(|| dp.egress(TenantId(2), wrong.opaque))
        .unwrap()
        .open_any(&dp.verifier_keys(TenantId(2)).unwrap())
        .unwrap();
    let (right_plain, _) = in_tee(|| dp.egress(TenantId(1), right.opaque))
        .unwrap()
        .open_any(&dp.verifier_keys(TenantId(1)).unwrap())
        .unwrap();
    assert_eq!(right_plain, wire);
    assert_ne!(wrong_plain, wire);
}

#[test]
fn encrypted_ingest_performs_no_staging_allocation() {
    let dp = plane();
    let ks = MasterSecret::demo().tenant_keys(TenantId::DEFAULT.0, 0);
    let make_payload = |n: usize, seed: u32| {
        let mut buf = Event::slice_to_bytes(&generic_events(n, seed));
        AesCtr::new(&ks.source_key, &ks.source_nonce).apply_keystream_at(&mut buf, 0);
        buf
    };

    // Warm up: size the audit encoder's buffers, the store and ref tables.
    for i in 0..8u32 {
        let payload = make_payload(4096, i);
        let out = in_tee(|| dp.ingress(TenantId::DEFAULT, &payload, true, false, 0)).unwrap();
        in_tee(|| dp.retire(TenantId::DEFAULT, out.opaque)).unwrap();
    }

    // Steady state: the only size-dependent allocation one encrypted
    // ingest may perform is the destination uArray's buffer — no staging
    // buffer for the ciphertext or the decrypted plaintext. Registration
    // bookkeeping (the `Arc` wrapper, ref-table and allocator entries)
    // costs a fixed handful of small allocations. So: the allocation
    // *count* must be identical at both payload sizes, and the allocated
    // *bytes* must grow by exactly the destination's growth — a staging
    // copy would double it. Minimum over bursts sheds harness noise and
    // amortized table growth.
    let mut count_per_size = [u64::MAX; 2];
    let mut bytes_per_size = [u64::MAX; 2];
    const SIZES: [usize; 2] = [512, 8192];
    for (slot, &n) in SIZES.iter().enumerate() {
        for round in 0..8u32 {
            let payload = make_payload(n, 100 + round);
            let before = counting_alloc::counts();
            let out = in_tee(|| dp.ingress(TenantId::DEFAULT, &payload, true, false, 0)).unwrap();
            let spent = counting_alloc::counts().since(before);
            let (count, bytes) = (spent.allocations, spent.bytes);
            count_per_size[slot] = count_per_size[slot].min(count);
            bytes_per_size[slot] = bytes_per_size[slot].min(bytes);
            in_tee(|| dp.retire(TenantId::DEFAULT, out.opaque)).unwrap();
        }
    }
    assert_eq!(
        count_per_size[0], count_per_size[1],
        "allocation count depends on payload size: a staging buffer is back"
    );
    let destination_growth = ((SIZES[1] - SIZES[0]) * sbt_types::EVENT_BYTES) as u64;
    let measured_growth = bytes_per_size[1] - bytes_per_size[0];
    assert!(
        measured_growth < destination_growth + destination_growth / 2,
        "ingesting {} extra events allocated {measured_growth} extra bytes; \
         only the {destination_growth}-byte destination growth is allowed — \
         a staging buffer would double it",
        SIZES[1] - SIZES[0],
    );
    // And the destination itself is really included in the measurement.
    assert!(measured_growth >= destination_growth);
}

#[test]
fn failed_reservation_leaks_nothing() {
    // 16 pages of secure memory; a 100 000-event batch needs ~293.
    let platform = Platform::new(PlatformConfig::hikey().with_secure_mem(16 * 4096));
    let dp = DataPlane::new(platform, DataPlaneConfig::default());
    let big = Event::slice_to_bytes(&generic_events(100_000, 1));
    let ciphertext = encrypt(&big, 0);

    let before_mem = dp.memory_report();
    let before_stats = dp.stats().snapshot();
    let err = in_tee(|| dp.ingress(TenantId::DEFAULT, &ciphertext, true, false, 0)).unwrap_err();
    assert_eq!(err, sbt_dataplane::DataPlaneError::OutOfSecureMemory);

    // All-or-nothing: no partial array, no committed pages, no refs, no
    // counters, no audit trace of the rejected batch.
    let after_mem = dp.memory_report();
    assert_eq!(after_mem.committed_bytes, before_mem.committed_bytes);
    assert_eq!(after_mem.live_uarrays, before_mem.live_uarrays);
    assert_eq!(dp.live_refs(TenantId::DEFAULT), 0);
    let after_stats = dp.stats().snapshot();
    assert_eq!(after_stats.events_ingested, before_stats.events_ingested);
    assert_eq!(after_stats.bytes_ingested, before_stats.bytes_ingested);
    assert_eq!(after_stats.audit_records, before_stats.audit_records);
    assert_eq!(after_stats.decrypt_nanos, 0, "rejected batch spent decrypt time");
    assert_eq!(dp.tenant_ingest(TenantId::DEFAULT).unwrap(), (0, 0));

    // The plane still works: a batch that fits is admitted normally.
    let small = encrypt(&Event::slice_to_bytes(&generic_events(100, 2)), 0);
    let out = in_tee(|| dp.ingress(TenantId::DEFAULT, &small, true, false, 0)).unwrap();
    assert_eq!(out.len, 100);
}
