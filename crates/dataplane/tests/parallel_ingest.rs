//! Parallel in-enclave ingest, proven equivalent to the serial zero-copy
//! path:
//!
//! 1. **Differential**: with a worker pool installed, a batch split into N
//!    decrypt lanes produces byte-identical stores, egress ciphertexts,
//!    audit trails and admission counters to the serial path — across
//!    encrypted and cleartext payloads, generic and power layouts, tenants,
//!    split counts, chunk-straddling batch sizes and CTR counter wraparound.
//! 2. **Clean quota failure**: the all-or-nothing reservation discipline
//!    survives the split — a rejected batch runs no lane work and leaks
//!    nothing.
//! 3. **Allocation-free steady state**: after warm-up, sub-batching adds no
//!    payload-size-dependent allocation beyond the destination extent (the
//!    lane buffers are pooled and recycled).
//!
//! The engine-level counterpart (`sbt_engine` tests) proves the boundary
//! half: sub-batching adds no world switches and no copied bytes.

use sbt_crypto::{AesCtr, MasterSecret};
use sbt_dataplane::{DataPlane, DataPlaneConfig};
use sbt_types::{Event, LanePool, LaneTask, PowerEvent, TenantId};
use sbt_tz::{Platform, PlatformConfig, World, WorldGuard};
use std::sync::Arc;

// Per-thread accounting: sibling tests allocating on other threads cannot
// disturb a measurement.
#[global_allocator]
static GLOBAL: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator;

/// A real-threads pool: one OS thread per lane task. Exercises the actual
/// concurrency of the disjoint-writer path without depending on the
/// engine's executor.
struct ThreadPool(usize);

impl LanePool for ThreadPool {
    fn workers(&self) -> usize {
        self.0
    }

    fn run(&self, tasks: Vec<LaneTask>) {
        let handles: Vec<_> = tasks.into_iter().map(std::thread::spawn).collect();
        for h in handles {
            h.join().expect("lane task");
        }
    }
}

/// A caller-thread pool: lanes run inline, in order. Same code path
/// (planning, disjoint writer, stitch), deterministic allocation profile.
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

fn in_tee<R>(f: impl FnOnce() -> R) -> R {
    let _g = WorldGuard::enter(World::Secure);
    f()
}

fn plane() -> Arc<DataPlane> {
    DataPlane::new(Platform::hikey(), DataPlaneConfig::default())
}

fn parallel_plane(workers: usize) -> Arc<DataPlane> {
    let dp = plane();
    dp.set_ingest_pool(Arc::new(ThreadPool(workers)));
    dp
}

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

/// Encrypt `wire` under `tenant`'s epoch-0 source key at `block`.
fn encrypt_for(tenant: TenantId, wire: &[u8], block: u32) -> Vec<u8> {
    let ks = MasterSecret::demo().tenant_keys(tenant.0, 0);
    let mut buf = wire.to_vec();
    AesCtr::new(&ks.source_key, &ks.source_nonce).apply_keystream_at(&mut buf, block);
    buf
}

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

fn drained_records(dp: &DataPlane, tenant: TenantId) -> Vec<sbt_attest::AuditRecord> {
    let mut out = Vec::new();
    for seg in dp.drain_audit_segments_for(tenant).unwrap_or_default() {
        out.extend(sbt_attest::decompress_records(&seg.compressed).expect("segment decodes"));
    }
    out
}

/// Batch sizes straddling the 4080-byte decrypt window *and* the fan-out
/// threshold: below one window, exactly two windows, a non-window-aligned
/// tail (all three stay serial — too small to amortize a lane dispatch),
/// a 10-window batch that splits into two lanes, and batches large enough
/// that an 8-way split leaves every lane multiple windows.
const GENERIC_SIZES: [usize; 6] = [1, 340, 680, 681, 3400, 20_000];
const POWER_SIZES: [usize; 5] = [255, 510, 511, 2550, 16_000];
/// Keystream offsets including one that wraps the 32-bit CTR counter
/// mid-batch (and mid-lane, for the later lanes of a split).
const BLOCKS: [u32; 3] = [0, 12345, u32::MAX - 100];
/// Split widths: a minimal split, an odd one (uneven lanes), and the
/// 8-worker regime the boundary gate measures.
const WIDTHS: [usize; 3] = [2, 3, 8];

#[test]
fn parallel_matches_serial_byte_for_byte() {
    for &width in &WIDTHS {
        // Fresh planes per width: identical call sequences mint identical
        // uArray ids, so audit trails compare structurally.
        let dp_serial = plane();
        let dp_par = parallel_plane(width);

        for (i, (&n, &block)) in
            GENERIC_SIZES.iter().flat_map(|n| BLOCKS.iter().map(move |b| (n, b))).enumerate()
        {
            let wire = Event::slice_to_bytes(&generic_events(n, i as u32));
            let ciphertext = encrypt_for(TenantId::DEFAULT, &wire, block);

            // Encrypted and cleartext, through both planes.
            for (payload, encrypted) in [(&ciphertext, true), (&wire, false)] {
                let a = in_tee(|| {
                    dp_par.ingress_arc_for(
                        TenantId::DEFAULT,
                        Arc::new(payload.clone()),
                        encrypted,
                        false,
                        block,
                    )
                })
                .unwrap();
                let b = in_tee(|| dp_serial.ingress(payload, encrypted, false, block)).unwrap();
                assert_eq!(a.len, n, "length, n={n} width={width} block={block}");
                assert_eq!(a.len, b.len);

                let msg_a = in_tee(|| dp_par.egress(a.opaque)).unwrap();
                let msg_b = in_tee(|| dp_serial.egress(b.opaque)).unwrap();
                assert_eq!(
                    msg_a.ciphertext, msg_b.ciphertext,
                    "stores diverge, n={n} width={width} block={block} encrypted={encrypted}"
                );
                let (key, nonce, signing) = dp_par.cloud_keys();
                assert_eq!(msg_a.open(&key, &nonce, &signing).unwrap(), wire);

                in_tee(|| dp_par.retire(a.opaque)).unwrap();
                in_tee(|| dp_serial.retire(b.opaque)).unwrap();
            }
        }

        // Power layout (16-byte records projected onto the generic layout).
        for (i, (&n, &block)) in
            POWER_SIZES.iter().flat_map(|n| BLOCKS.iter().map(move |b| (n, b))).enumerate()
        {
            let wire = PowerEvent::slice_to_bytes(&power_events(n, 77 + i as u32));
            let ciphertext = encrypt_for(TenantId::DEFAULT, &wire, block);

            let a = in_tee(|| {
                dp_par.ingress_arc_for(
                    TenantId::DEFAULT,
                    Arc::new(ciphertext.clone()),
                    true,
                    true,
                    block,
                )
            })
            .unwrap();
            let b = in_tee(|| dp_serial.ingress(&ciphertext, true, true, block)).unwrap();
            assert_eq!(a.len, n);

            let msg_a = in_tee(|| dp_par.egress(a.opaque)).unwrap();
            let msg_b = in_tee(|| dp_serial.egress(b.opaque)).unwrap();
            assert_eq!(msg_a.ciphertext, msg_b.ciphertext, "power stores diverge, n={n}");

            in_tee(|| dp_par.retire(a.opaque)).unwrap();
            in_tee(|| dp_serial.retire(b.opaque)).unwrap();
        }

        // Admission counters and audit trails agree exactly (timing
        // counters excepted: different wall clocks).
        let sa = dp_par.stats().snapshot();
        let sb = dp_serial.stats().snapshot();
        assert!(sa.events_ingested > 0);
        assert_eq!(sa.events_ingested, sb.events_ingested);
        assert_eq!(sa.bytes_ingested, sb.bytes_ingested);
        assert_eq!(sa.egress_count, sb.egress_count);
        assert_eq!(sa.audit_records, sb.audit_records);
        assert_eq!(
            dp_par.tenant_ingest(TenantId::DEFAULT).unwrap(),
            dp_serial.tenant_ingest(TenantId::DEFAULT).unwrap()
        );
        let ra = strip_ts(drained_records(&dp_par, TenantId::DEFAULT));
        let rb = strip_ts(drained_records(&dp_serial, TenantId::DEFAULT));
        assert!(!ra.is_empty());
        assert_eq!(ra, rb, "audit trails diverge at width {width}");
    }
}

#[test]
fn split_count_and_tenant_never_leak_into_results() {
    // The same ciphertext ingested under every split width produces the
    // same egress plaintext; tenants keep their key isolation under the
    // parallel path (wrong tenant's split decrypt yields garbage).
    let wire = Event::slice_to_bytes(&generic_events(5000, 42));

    let mut sealed = Vec::new();
    for &width in &[1usize, 2, 3, 8] {
        let dp = parallel_plane(width);
        dp.register_tenant(TenantId(1), None).unwrap();
        dp.register_tenant(TenantId(2), None).unwrap();
        let ciphertext = encrypt_for(TenantId(1), &wire, 7);

        let right = in_tee(|| {
            dp.ingress_arc_for(TenantId(1), Arc::new(ciphertext.clone()), true, false, 7)
        })
        .unwrap();
        let wrong = in_tee(|| {
            dp.ingress_arc_for(TenantId(2), Arc::new(ciphertext.clone()), true, false, 7)
        })
        .unwrap();

        let (right_plain, _) = in_tee(|| dp.egress_for(TenantId(1), right.opaque))
            .unwrap()
            .open_any(&dp.verifier_keys(TenantId(1)).unwrap())
            .unwrap();
        let (wrong_plain, _) = in_tee(|| dp.egress_for(TenantId(2), wrong.opaque))
            .unwrap()
            .open_any(&dp.verifier_keys(TenantId(2)).unwrap())
            .unwrap();
        assert_eq!(right_plain, wire, "width {width}");
        assert_ne!(wrong_plain, wire, "width {width}");
        sealed.push(right_plain);
    }
    // All widths agreed with each other, not just with the wire bytes.
    assert!(sealed.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn failed_reservation_runs_no_lane_work_and_leaks_nothing() {
    // 16 pages of secure memory; a 100 000-event batch needs ~293. The
    // reservation fails before the fill closure runs, so the lanes are
    // never executed and nothing is observable afterwards.
    let platform = Platform::new(PlatformConfig::hikey().with_secure_mem(16 * 4096));
    let dp = DataPlane::new(platform, DataPlaneConfig::default());
    dp.set_ingest_pool(Arc::new(ThreadPool(8)));
    let big = Event::slice_to_bytes(&generic_events(100_000, 1));
    let ciphertext = encrypt_for(TenantId::DEFAULT, &big, 0);

    let before_mem = dp.memory_report();
    let before_stats = dp.stats().snapshot();
    let err =
        in_tee(|| dp.ingress_arc_for(TenantId::DEFAULT, Arc::new(ciphertext), true, false, 0))
            .unwrap_err();
    assert_eq!(err, sbt_dataplane::DataPlaneError::OutOfSecureMemory);

    let after_mem = dp.memory_report();
    assert_eq!(after_mem.committed_bytes, before_mem.committed_bytes);
    assert_eq!(after_mem.live_uarrays, before_mem.live_uarrays);
    assert_eq!(dp.live_refs(), 0);
    let after_stats = dp.stats().snapshot();
    assert_eq!(after_stats.events_ingested, before_stats.events_ingested);
    assert_eq!(after_stats.bytes_ingested, before_stats.bytes_ingested);
    assert_eq!(after_stats.audit_records, before_stats.audit_records);
    assert_eq!(after_stats.decrypt_nanos, 0, "rejected batch spent decrypt time");
    assert_eq!(dp.tenant_ingest(TenantId::DEFAULT).unwrap(), (0, 0));

    // The plane still works (this batch sits below the fan-out threshold
    // and ingests serially — the pooled lane machinery is not poisoned).
    let small = encrypt_for(TenantId::DEFAULT, &Event::slice_to_bytes(&generic_events(900, 2)), 0);
    let out =
        in_tee(|| dp.ingress_arc_for(TenantId::DEFAULT, Arc::new(small), true, false, 0)).unwrap();
    assert_eq!(out.len, 900);
}

#[test]
fn steady_state_sub_batching_is_allocation_free() {
    // Inline pool: the exact parallel code path (plan, disjoint writer,
    // lane decrypt, stitch) without per-batch thread spawns, so the
    // allocation profile is the path's own.
    let dp = plane();
    dp.set_ingest_pool(Arc::new(InlinePool(4)));
    let ks = MasterSecret::demo().tenant_keys(TenantId::DEFAULT.0, 0);
    let make_payload = |n: usize, seed: u32| {
        let mut buf = Event::slice_to_bytes(&generic_events(n, seed));
        AesCtr::new(&ks.source_key, &ks.source_nonce).apply_keystream_at(&mut buf, 0);
        buf
    };

    // Warm up at the *largest* size: grows the pooled lane buffers to their
    // high-water capacity, sizes the audit encoder, store and ref tables.
    // Both sizes clear the fan-out threshold and fill all 4 pool lanes, so
    // the two regimes run the identical lane structure.
    const SIZES: [usize; 2] = [5_440, 13_600]; // 16 windows and 40 windows
    for i in 0..8u32 {
        let payload = make_payload(SIZES[1], i);
        let out =
            in_tee(|| dp.ingress_arc_for(TenantId::DEFAULT, Arc::new(payload), true, false, 0))
                .unwrap();
        in_tee(|| dp.retire(out.opaque)).unwrap();
    }

    // Steady state: sub-batching may allocate a fixed handful per batch
    // (the writer, the task boxes, the payload Arc) but nothing that scales
    // with the payload except the destination extent itself — the lane
    // buffers are recycled, never reallocated. So the allocation *count*
    // must be identical at both sizes, and the allocated *bytes* must grow
    // by the destination growth alone (a per-lane staging copy would add
    // the payload size again). Minimum over rounds sheds harness noise.
    let mut count_per_size = [u64::MAX; 2];
    let mut bytes_per_size = [u64::MAX; 2];
    for (slot, &n) in SIZES.iter().enumerate() {
        for round in 0..8u32 {
            let payload = make_payload(n, 100 + round);
            let before = counting_alloc::counts();
            let out =
                in_tee(|| dp.ingress_arc_for(TenantId::DEFAULT, Arc::new(payload), true, false, 0))
                    .unwrap();
            let spent = counting_alloc::counts().since(before);
            let (count, bytes) = (spent.allocations, spent.bytes);
            count_per_size[slot] = count_per_size[slot].min(count);
            bytes_per_size[slot] = bytes_per_size[slot].min(bytes);
            in_tee(|| dp.retire(out.opaque)).unwrap();
        }
    }
    assert_eq!(
        count_per_size[0], count_per_size[1],
        "allocation count depends on payload size: sub-batching is staging somewhere"
    );
    let destination_growth = ((SIZES[1] - SIZES[0]) * sbt_types::EVENT_BYTES) as u64;
    let measured_growth = bytes_per_size[1] - bytes_per_size[0];
    assert!(
        measured_growth < destination_growth + destination_growth / 2,
        "ingesting {} extra events allocated {measured_growth} extra bytes; only the \
         {destination_growth}-byte destination growth is allowed",
        SIZES[1] - SIZES[0],
    );
    assert!(measured_growth >= destination_growth);
}
