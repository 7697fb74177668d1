//! Differential suite for the streaming egress sealer.
//!
//! The sealer cuts a result into chunks, lets encrypt lanes on a lent
//! [`LanePool`] feed one in-order MAC stage, and must produce exactly the
//! bytes of the construction it replaced: serialize the whole result,
//! AES-CTR the whole buffer, HMAC `seq ‖ ciphertext`. This suite holds it
//! to that for every result layout, across the lengths where chunking can
//! go wrong, at every pool width — and pins the two properties the design
//! argues for rather than tests by accident: the pipeline finishes under
//! any task order a conforming pool may choose, and a steady-state seal
//! allocates nothing payload-sized but the ciphertext itself.

use proptest::prelude::*;
use sbt_crypto::{AesCtr, KeySet, MasterSecret};
use sbt_dataplane::egress::{Sealer, SEAL_CHUNK};
use sbt_dataplane::{DataPlane, DataPlaneConfig, DataPlaneError, EgressMessage, StoredData};
use sbt_telemetry::{seal_span_parts, SealStage, SpanKind, Tracer};
use sbt_types::{Event, KeyAgg, KeyValue, LanePool, LaneTask, TenantId};
use sbt_tz::{CostModel, Platform, SecureMemory, TzStats, World, WorldGuard};
use sbt_uarray::{TeePager, UArrayId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

// ---------------------------------------------------------------------------
// The shared counting allocator: per-thread accounting, so sibling tests
// allocating on other threads cannot disturb a measurement.
// ---------------------------------------------------------------------------

/// Allocations at least this large count as payload-sized: half a chunk,
/// so a staging buffer allocated per seal would be caught.
const LARGE: usize = SEAL_CHUNK / 2;

#[global_allocator]
static GLOBAL: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator;

// ---------------------------------------------------------------------------
// Pools: every order a conforming `LanePool::run` may execute tasks in.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Order {
    /// All tasks on the caller, in submission order.
    Inline,
    /// All tasks on the caller, last submitted first (what a worker that
    /// pops its own deque does).
    Reverse,
    /// One thread per task, released together by a barrier.
    Together,
    /// The first task runs alone to completion on another thread; only then
    /// do the rest start, together.
    FirstAlone,
    /// The last task gets a thread of its own; once that thread is running
    /// (a barrier says so) the rest run on the caller, one after another.
    LastAhead,
}

const ORDERS: [Order; 5] =
    [Order::Inline, Order::Reverse, Order::Together, Order::FirstAlone, Order::LastAhead];

struct OrderPool {
    workers: usize,
    order: Order,
}

impl LanePool for OrderPool {
    fn workers(&self) -> usize {
        self.workers
    }

    fn run(&self, mut tasks: Vec<LaneTask>) {
        match self.order {
            Order::Inline => tasks.into_iter().for_each(|t| t()),
            Order::Reverse => tasks.into_iter().rev().for_each(|t| t()),
            Order::Together => {
                let gate = Barrier::new(tasks.len());
                std::thread::scope(|s| {
                    for t in tasks {
                        let gate = &gate;
                        s.spawn(move || {
                            gate.wait();
                            t()
                        });
                    }
                });
            }
            Order::FirstAlone => {
                let first = tasks.remove(0);
                std::thread::scope(|s| {
                    s.spawn(first);
                });
                OrderPool { workers: self.workers, order: Order::Together }.run(tasks);
            }
            Order::LastAhead => {
                let last = tasks.pop().expect("a fan-out has at least two tasks");
                let gate = Barrier::new(2);
                std::thread::scope(|s| {
                    let gate = &gate;
                    s.spawn(move || {
                        gate.wait();
                        last()
                    });
                    gate.wait();
                    tasks.into_iter().for_each(|t| t());
                });
            }
        }
    }
}

/// A wide pool that counts the fan-outs it is handed (and runs them
/// inline): proves which seals stayed on the caller.
#[derive(Default)]
struct CountPool {
    runs: AtomicUsize,
}

impl LanePool for CountPool {
    fn workers(&self) -> usize {
        8
    }
    fn run(&self, tasks: Vec<LaneTask>) {
        self.runs.fetch_add(1, Ordering::SeqCst);
        tasks.into_iter().for_each(|t| t());
    }
}

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

fn pager() -> TeePager {
    TeePager::new(
        Arc::new(SecureMemory::new(1 << 27)),
        Arc::new(TzStats::new()),
        CostModel::hikey(),
    )
}

#[derive(Debug, Clone, Copy)]
enum LayoutKind {
    Events,
    Aggs,
    Pairs,
    Scalars,
}

const LAYOUTS: [LayoutKind; 4] =
    [LayoutKind::Events, LayoutKind::Aggs, LayoutKind::Pairs, LayoutKind::Scalars];

/// `records` records of the given layout, every field a function of the
/// index and a salt, so a misplaced chunk cannot go unnoticed.
fn stored(kind: LayoutKind, records: usize, salt: u32) -> Arc<StoredData> {
    let p = pager();
    let id = UArrayId(1);
    let mix = |i: usize| (i as u32).wrapping_mul(0x9E37_79B9) ^ salt;
    let data = match kind {
        LayoutKind::Events => {
            let v: Vec<Event> =
                (0..records).map(|i| Event::new(mix(i), mix(i).rotate_left(7), i as u32)).collect();
            StoredData::from_events(id, &v, &p)
        }
        LayoutKind::Aggs => {
            let v: Vec<KeyAgg> = (0..records)
                .map(|i| KeyAgg::new(mix(i), (mix(i) as u64) << 17 | i as u64, i as u64 + 1))
                .collect();
            StoredData::from_aggs(id, &v, &p)
        }
        LayoutKind::Pairs => {
            let v: Vec<KeyValue> = (0..records)
                .map(|i| KeyValue::new(mix(i), (mix(i) as u64) << 21 ^ i as u64))
                .collect();
            StoredData::from_pairs(id, &v, &p)
        }
        LayoutKind::Scalars => {
            let v: Vec<u64> = (0..records).map(|i| (mix(i) as u64) << 32 | i as u64).collect();
            StoredData::from_scalars(id, &v, &p)
        }
    };
    Arc::new(data.expect("fixture fits secure memory"))
}

/// The construction the sealer replaced, pass by pass.
fn reference(seq: u64, data: &StoredData, keys: &KeySet) -> (Vec<u8>, sbt_crypto::Signature) {
    let wire = data.to_wire_bytes();
    let mut nonce = keys.cloud_nonce;
    nonce[..8].copy_from_slice(&seq.to_le_bytes());
    let ciphertext = AesCtr::new(&keys.cloud_key, &nonce).encrypt(&wire);
    let mut signed = seq.to_le_bytes().to_vec();
    signed.extend_from_slice(&ciphertext);
    let signature = keys.signing.sign(&signed);
    (ciphertext, signature)
}

fn keys() -> KeySet {
    MasterSecret::demo().tenant_keys(3, 1)
}

fn quiet() -> Arc<Tracer> {
    Arc::new(Tracer::new(1, 16))
}

fn seal(
    sealer: &Sealer,
    seq: u64,
    data: &Arc<StoredData>,
    pool: Option<&dyn LanePool>,
) -> EgressMessage {
    sealer.seal_egress(seq, Arc::clone(data), &keys(), pool, &quiet(), 3)
}

fn assert_matches_reference(msg: &EgressMessage, data: &StoredData, what: &str) {
    let (ciphertext, signature) = reference(msg.seq, data, &keys());
    assert_eq!(msg.ciphertext.len(), ciphertext.len(), "{what}: ciphertext length");
    assert!(msg.ciphertext == ciphertext, "{what}: ciphertext differs");
    assert_eq!(msg.signature, signature, "{what}: signature differs");
}

/// Record counts around every place the chunking can go wrong for a layout
/// of `width`-byte records: empty, one record, one record short of a chunk,
/// exactly a chunk, one record over, and a few chunks with a ragged tail.
fn edge_lengths(width: usize) -> [usize; 6] {
    let per_chunk = SEAL_CHUNK / width;
    [0, 1, per_chunk - 1, per_chunk, per_chunk + 1, 3 * per_chunk + 7]
}

// ---------------------------------------------------------------------------
// Byte identity.
// ---------------------------------------------------------------------------

#[test]
fn chunk_is_record_and_block_aligned_for_every_layout() {
    for kind in LAYOUTS {
        let width = stored(kind, 1, 0).record_wire_bytes();
        assert_eq!(SEAL_CHUNK % width, 0, "{kind:?}: chunks must hold whole records");
    }
    assert_eq!(SEAL_CHUNK % 16, 0, "chunks must start on an AES block boundary");
}

#[test]
fn every_layout_and_edge_length_matches_the_reference_at_every_pool_width() {
    let sealer = Sealer::new();
    for kind in LAYOUTS {
        let width = stored(kind, 1, 0).record_wire_bytes();
        for records in edge_lengths(width) {
            let data = stored(kind, records, records as u32);
            let serial = seal(&sealer, 11, &data, None);
            assert_matches_reference(&serial, &data, &format!("{kind:?} × {records}, no pool"));
            for workers in 0..=8 {
                let pool = OrderPool { workers, order: Order::Together };
                let msg = seal(&sealer, 11, &data, Some(&pool));
                assert_matches_reference(&msg, &data, &format!("{kind:?} × {records}, {workers}w"));
            }
        }
    }
}

#[test]
fn the_join_sized_result_matches_the_reference() {
    // 160 000 pairs, 1.92 MB, 30 chunks: the result `join` seals per window.
    let data = stored(LayoutKind::Pairs, 160_000, 42);
    let sealer = Sealer::new();
    for (workers, order) in [(0, Order::Inline), (1, Order::Together), (8, Order::Together)] {
        let pool = OrderPool { workers, order };
        let msg = seal(&sealer, 5, &data, Some(&pool));
        assert_matches_reference(&msg, &data, &format!("160 000 pairs, {workers}w {order:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary layout, length, sequence number, pool width and task order:
    /// the sealed bytes are the reference's.
    #[test]
    fn sealed_bytes_equal_the_reference(
        layout in 0usize..4,
        records in 0usize..30_000,
        seq in 0u64..u64::MAX,
        workers in 0usize..9,
        order in 0usize..5,
        salt in 0u32..u32::MAX,
    ) {
        let data = stored(LAYOUTS[layout], records, salt);
        let pool = OrderPool { workers, order: ORDERS[order] };
        let msg = seal(&Sealer::new(), seq, &data, Some(&pool));
        let (ciphertext, signature) = reference(seq, &data, &keys());
        prop_assert!(msg.ciphertext == ciphertext, "ciphertext differs");
        prop_assert_eq!(msg.signature, signature);
        // And the cloud side opens it to the wire bytes.
        let k = keys();
        let opened = msg.open(&k.cloud_key, &k.cloud_nonce, &k.signing);
        prop_assert!(opened.as_deref() == Some(&data.to_wire_bytes()[..]));
    }
}

// ---------------------------------------------------------------------------
// Task order: the pipeline finishes, and correctly, however the pool runs it.
// ---------------------------------------------------------------------------

#[test]
fn every_task_order_finishes_with_the_reference_bytes() {
    // Ten chunks with a ragged tail: longer than the run-ahead window, so
    // lanes do meet a full window, and the MAC stage does meet chunks that
    // are claimed but not yet published.
    let data = stored(LayoutKind::Aggs, 10 * (SEAL_CHUNK / 20) + 3, 7);
    let sealer = Sealer::new();
    for order in ORDERS {
        for workers in [1, 2, 8] {
            let pool = OrderPool { workers, order };
            let msg = seal(&sealer, 77, &data, Some(&pool));
            assert_matches_reference(&msg, &data, &format!("{order:?}, {workers} workers"));
        }
    }
}

#[test]
fn results_under_two_chunks_never_reach_the_pool() {
    let sealer = Sealer::new();
    let pool = CountPool::default();
    // winsum's 8-byte result, a one-record result, an empty one, and
    // exactly one full chunk.
    for data in [
        stored(LayoutKind::Scalars, 1, 0),
        stored(LayoutKind::Events, 1, 0),
        stored(LayoutKind::Pairs, 0, 0),
        stored(LayoutKind::Scalars, SEAL_CHUNK / 8, 0),
    ] {
        let msg = seal(&sealer, 1, &data, Some(&pool));
        assert_matches_reference(&msg, &data, "inline seal");
    }
    assert_eq!(pool.runs.load(Ordering::SeqCst), 0, "a one-chunk result fanned out");
    // One record more is two chunks, and does fan out.
    let two = stored(LayoutKind::Scalars, SEAL_CHUNK / 8 + 1, 0);
    let msg = seal(&sealer, 1, &two, Some(&pool));
    assert_matches_reference(&msg, &two, "two-chunk seal");
    assert_eq!(pool.runs.load(Ordering::SeqCst), 1);
}

// ---------------------------------------------------------------------------
// Allocation profile.
// ---------------------------------------------------------------------------

#[test]
fn a_steady_state_seal_makes_exactly_one_payload_sized_allocation() {
    counting_alloc::set_large_threshold(LARGE);
    let data = stored(LayoutKind::Pairs, 160_000, 1);
    let sealer = Sealer::new();
    let tracer = quiet();
    let keys = keys();
    // Inline orders keep every allocation on this thread, where the
    // per-thread counter sees it.
    for order in [Order::Inline, Order::Reverse] {
        let pool = OrderPool { workers: 2, order };
        // Warm-up: the staging buffers are allocated once and kept.
        drop(sealer.seal_egress(0, Arc::clone(&data), &keys, Some(&pool), &tracer, 3));
        for seq in 1..4 {
            let before = counting_alloc::counts().large;
            let msg = sealer.seal_egress(seq, Arc::clone(&data), &keys, Some(&pool), &tracer, 3);
            let large = counting_alloc::counts().large - before;
            assert_eq!(
                large, 1,
                "{order:?}: a steady-state seal allocated {large} payload-sized buffers; \
                 only the ciphertext is allowed"
            );
            assert_eq!(msg.ciphertext.capacity(), msg.ciphertext.len(), "sized once, exactly");
        }
    }
    // The serial path has the same profile.
    drop(sealer.seal_egress(9, Arc::clone(&data), &keys, None, &tracer, 3));
    let before = counting_alloc::counts().large;
    drop(sealer.seal_egress(10, Arc::clone(&data), &keys, None, &tracer, 3));
    assert_eq!(counting_alloc::counts().large - before, 1);
}

// ---------------------------------------------------------------------------
// Through the data plane: refusals come before any task, spans come out.
// ---------------------------------------------------------------------------

fn in_tee<R>(f: impl FnOnce() -> R) -> R {
    let _g = WorldGuard::enter(World::Secure);
    f()
}

#[test]
fn forged_and_cross_tenant_refs_fail_before_any_task_is_spawned() {
    let dp = DataPlane::new(Platform::hikey(), DataPlaneConfig::default());
    dp.register_tenant(TenantId(1), None).unwrap();
    dp.register_tenant(TenantId(2), None).unwrap();
    let pool = Arc::new(CountPool::default());
    dp.set_lane_pool(pool.clone());
    // A result large enough that a legitimate egress would fan out.
    let events: Vec<Event> = (0..20_000u32).map(|i| Event::new(i, i, i)).collect();
    let wire = Event::slice_to_bytes(&events);
    let mine = in_tee(|| dp.ingress(TenantId(1), &wire, false, false, 0)).unwrap();

    // Tenant 2 presents tenant 1's reference; and a reference nobody minted.
    let cross = in_tee(|| dp.egress(TenantId(2), mine.opaque));
    assert_eq!(cross.unwrap_err(), DataPlaneError::InvalidReference);
    let forged = in_tee(|| dp.egress(TenantId(1), sbt_dataplane::OpaqueRef(0xDEAD_BEEF)));
    assert_eq!(forged.unwrap_err(), DataPlaneError::InvalidReference);
    assert_eq!(pool.runs.load(Ordering::SeqCst), 0, "a refused egress reached the pool");

    // Neither refusal spent a sequence number: with a real pool the
    // tenant's first egress is still message 0 and opens under its keys.
    dp.set_lane_pool(Arc::new(OrderPool { workers: 2, order: Order::Together }));
    let msg = in_tee(|| dp.egress(TenantId(1), mine.opaque)).unwrap();
    assert_eq!(msg.seq, 0);
    let opened = msg.open_any(&dp.verifier_keys(TenantId(1)).unwrap()).expect("opens");
    assert_eq!(opened.0, wire);
}

#[test]
fn each_stage_reports_its_cpu_time_and_bytes() {
    let dp = DataPlane::new(Platform::hikey(), DataPlaneConfig::default());
    dp.set_lane_pool(Arc::new(OrderPool { workers: 2, order: Order::Together }));
    let events: Vec<Event> = (0..50_000u32).map(|i| Event::new(i, i, i)).collect();
    let wire = Event::slice_to_bytes(&events);
    let r = in_tee(|| dp.ingress(TenantId::DEFAULT, &wire, false, false, 0)).unwrap();
    dp.telemetry().set_enabled(true);
    let msg = in_tee(|| dp.egress(TenantId::DEFAULT, r.opaque)).unwrap();
    dp.telemetry().set_enabled(false);

    let (mut mac_bytes, mut encrypt_bytes, mut stages) = (0, 0, 0);
    dp.telemetry().tracer().drain(|span| {
        if span.kind == SpanKind::EgressSeal {
            let (stage, bytes) = seal_span_parts(span.payload);
            match stage {
                SealStage::Mac => mac_bytes += bytes,
                SealStage::Encrypt => encrypt_bytes += bytes,
                SealStage::Call => return,
            }
            assert!(span.duration_nanos > 0, "{stage:?} span carries its CPU time");
            stages += 1;
        }
    });
    // One MAC stage over every byte; the encrypt work, however it was split
    // between the lanes and the MAC stage's own helping, adds up to the same.
    assert_eq!(mac_bytes, msg.ciphertext.len() as u64);
    assert_eq!(encrypt_bytes, msg.ciphertext.len() as u64);
    assert!(stages >= 2);
}
