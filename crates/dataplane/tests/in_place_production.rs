//! Primitives produce in place: differential suite.
//!
//! `DataPlane::invoke` runs every primitive's kernel with an open uArray
//! writer as its record sink — records land in their final location, pages
//! commit as the append index crosses them. Nothing observable may differ
//! from the construction this replaced (compute into heap vectors, then copy
//! the result into a uArray):
//!
//! 1. **Records**: for each hot kernel, what egresses is, record for record,
//!    what the definition says — stable order for Sort and Merge, descending
//!    with duplicates for TopKPerKey, key-major then left-major for Join,
//!    input order within a window for the windowed ingress's Segment
//!    kernel — at the lengths where paging can go wrong (empty, one record,
//!    one page of events ± 1).
//! 2. **Pages**: the output is charged exactly the page-rounded size of its
//!    records, as a bulk copy would have committed.
//! 3. **Trail**: a TopK and a Join pipeline, fed batches whose events meet
//!    their windows out of order, mint the same uArray ids and append the
//!    same audit records as before (compared modulo the wall-clock `ts_ms`),
//!    each carrying exactly the hints its invocation passed.
//! 4. **Allocations**: an invocation makes one payload-sized allocation per
//!    output uArray — its buffer — and none for staging.

use proptest::prelude::*;
use sbt_attest::{AuditRecord, DataRef, UArrayRef};
use sbt_dataplane::{
    Command, DataPlane, DataPlaneConfig, InvokeOutput, OpaqueRef, PrimitiveParams, Reply,
};
use sbt_types::{
    Duration, Event, KeyValue, PrimitiveKind, TenantId, WindowSpec, MAX_WINDOWS_PER_EVENT,
};
use sbt_tz::{Platform, World, WorldGuard};
use sbt_uarray::{ConsumptionHint, HintSet};
use std::collections::BTreeMap;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator;

const T: TenantId = TenantId(1);
const PAGE: u64 = 4096;

fn in_tee<R>(f: impl FnOnce() -> R) -> R {
    let _g = WorldGuard::enter(World::Secure);
    f()
}

fn plane() -> Arc<DataPlane> {
    let dp = DataPlane::new(Platform::hikey(), DataPlaneConfig::default());
    dp.register_tenant(T, None).unwrap();
    dp
}

fn ingest(dp: &DataPlane, events: &[Event]) -> OpaqueRef {
    let bytes = Event::slice_to_bytes(events);
    in_tee(|| dp.ingress(T, &bytes, false, false, 0)).unwrap().opaque
}

fn invoke(
    dp: &DataPlane,
    op: PrimitiveKind,
    inputs: &[OpaqueRef],
    params: PrimitiveParams,
) -> Vec<InvokeOutput> {
    in_tee(|| dp.invoke(T, op, inputs, params, &HintSet::none())).unwrap()
}

/// Cut a batch's events into their window arrays under `spec` on
/// `(side, lane)`; the arrays, in window order.
fn windowed(dp: &DataPlane, payload: &[u8], spec: WindowSpec, at: (u8, u32)) -> Vec<InvokeOutput> {
    let cmd = Command::WindowedIngress {
        payload,
        encrypted: false,
        is_power: false,
        keystream_block: 0,
        spec,
        side: at.0,
        lane: at.1,
    };
    match in_tee(|| dp.call(T, &[cmd])).unwrap().pop() {
        Some(Reply::WindowedIngress { windows, .. }) => windows,
        other => panic!("a windowed ingress replied {other:?}"),
    }
}

/// Invoke and report the bytes the outputs were charged to the tenant.
fn invoke_charged(
    dp: &DataPlane,
    op: PrimitiveKind,
    inputs: &[OpaqueRef],
    params: PrimitiveParams,
) -> (Vec<InvokeOutput>, u64) {
    let before = dp.tenant_memory(T).unwrap().used_bytes;
    let outputs = invoke(dp, op, inputs, params);
    (outputs, dp.tenant_memory(T).unwrap().used_bytes - before)
}

/// The wire bytes of a stored array, as the cloud opens them.
fn opened(dp: &DataPlane, r: OpaqueRef) -> Vec<u8> {
    let msg = in_tee(|| dp.egress(T, r)).unwrap();
    msg.open_with(dp.verifier_keys(T).unwrap().latest()).expect("egress opens under its keys")
}

fn opened_events(dp: &DataPlane, r: OpaqueRef) -> Vec<Event> {
    Event::slice_from_bytes(&opened(dp, r))
}

fn opened_pairs(dp: &DataPlane, r: OpaqueRef) -> Vec<KeyValue> {
    opened(dp, r)
        .chunks_exact(12)
        .map(|rec| {
            KeyValue::new(
                u32::from_le_bytes(rec[..4].try_into().unwrap()),
                u64::from_le_bytes(rec[4..].try_into().unwrap()),
            )
        })
        .collect()
}

/// Page-rounded bytes `records` records of `record_bytes` in-memory bytes
/// occupy: what a bulk copy into a fresh uArray commits.
fn pages_for(records: usize, record_bytes: usize) -> u64 {
    ((records * record_bytes) as u64).div_ceil(PAGE) * PAGE
}

/// How a generated batch spreads its keys.
#[derive(Debug, Clone, Copy)]
enum Keys {
    Single,
    Distinct,
    Few,
}

fn batch(n: usize, keys: Keys, seed: u32) -> Vec<Event> {
    let mut x = seed | 1;
    (0..n as u32)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let key = match keys {
                Keys::Single => 7,
                Keys::Distinct => u32::MAX - i.wrapping_mul(2_654_435_761) % n as u32,
                Keys::Few => x % 9,
            };
            Event::new(key, x.rotate_left(11) % 50, i)
        })
        .collect()
}

/// Empty, one record, one key, all keys distinct, and one page of events
/// (341 twelve-byte records) minus one, exactly, plus one.
const LENGTHS: [usize; 7] = [0, 1, 340, 341, 342, 683, 1_000];
const SHAPES: [Keys; 3] = [Keys::Single, Keys::Distinct, Keys::Few];

fn stable_sorted(events: &[Event]) -> Vec<Event> {
    let mut sorted = events.to_vec();
    sorted.sort_by_key(|e| e.key); // std's stable sort: the definition
    sorted
}

fn check_sort_and_merge(dp: &DataPlane, a: &[Event], b: &[Event]) {
    let (ra, rb) = (ingest(dp, a), ingest(dp, b));
    let (sa, charged) = invoke_charged(dp, PrimitiveKind::Sort, &[ra], PrimitiveParams::None);
    assert_eq!(charged, pages_for(a.len(), 12));
    let sb = invoke(dp, PrimitiveKind::Sort, &[rb], PrimitiveParams::None);
    assert_eq!(opened_events(dp, sa[0].opaque), stable_sorted(a), "Sort is stable");
    // Merge keeps `a`'s events ahead of `b`'s on equal keys: the stable
    // sort of the concatenation.
    let (merged, charged) = invoke_charged(
        dp,
        PrimitiveKind::Merge,
        &[sa[0].opaque, sb[0].opaque],
        PrimitiveParams::None,
    );
    assert_eq!(charged, pages_for(a.len() + b.len(), 12));
    assert_eq!(merged[0].len, a.len() + b.len());
    assert_eq!(opened_events(dp, merged[0].opaque), stable_sorted(&[a, b].concat()));
}

fn check_top_k_per_key(dp: &DataPlane, events: &[Event], k: usize) {
    let sorted = invoke(dp, PrimitiveKind::Sort, &[ingest(dp, events)], PrimitiveParams::None);
    let (top, charged) =
        invoke_charged(dp, PrimitiveKind::TopKPerKey, &[sorted[0].opaque], PrimitiveParams::K(k));
    let mut by_key: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for e in events {
        by_key.entry(e.key).or_default().push(e.value as u64);
    }
    let mut expected = Vec::new();
    for (key, mut values) in by_key {
        values.sort_unstable_by(|a, b| b.cmp(a));
        values.truncate(k);
        expected.extend(values.into_iter().map(|v| KeyValue::new(key, v)));
    }
    assert_eq!(charged, pages_for(expected.len(), 16));
    assert_eq!(opened_pairs(dp, top[0].opaque), expected, "descending, duplicates kept");
}

fn check_join(dp: &DataPlane, left: &[Event], right: &[Event]) {
    let l = invoke(dp, PrimitiveKind::Sort, &[ingest(dp, left)], PrimitiveParams::None);
    let r = invoke(dp, PrimitiveKind::Sort, &[ingest(dp, right)], PrimitiveParams::None);
    let (joined, charged) =
        invoke_charged(dp, PrimitiveKind::Join, &[l[0].opaque, r[0].opaque], PrimitiveParams::None);
    // Key-major, then left-major, each side in its stable-sorted order.
    let (ls, rs) = (stable_sorted(left), stable_sorted(right));
    let mut expected = Vec::new();
    for le in &ls {
        for re in rs.iter().filter(|re| re.key == le.key) {
            expected.push(KeyValue::new(le.key, ((le.value as u64) << 32) | re.value as u64));
        }
    }
    assert_eq!(charged, pages_for(expected.len(), 16));
    assert_eq!(joined[0].len, expected.len());
    assert_eq!(opened_pairs(dp, joined[0].opaque), expected);
}

fn check_segment(dp: &DataPlane, events: &[Event], spec: WindowSpec) {
    let before = dp.tenant_memory(T).unwrap().used_bytes;
    let outs = windowed(dp, &Event::slice_to_bytes(events), spec, (0, 0));
    let charged = dp.tenant_memory(T).unwrap().used_bytes - before;
    // The per-event definition.
    let mut expected: BTreeMap<u64, Vec<Event>> = BTreeMap::new();
    for e in events {
        for w in spec.assign(e.event_time()).windows() {
            expected.entry(w.0).or_default().push(*e);
        }
    }
    assert_eq!(
        outs.iter().map(|o| (o.window.unwrap().0, o.len)).collect::<Vec<_>>(),
        expected.iter().map(|(w, evs)| (*w, evs.len())).collect::<Vec<_>>(),
        "one output per non-empty window, in window order"
    );
    assert_eq!(charged, expected.values().map(|evs| pages_for(evs.len(), 12)).sum::<u64>());
    for (out, evs) in outs.iter().zip(expected.values()) {
        assert_eq!(&opened_events(dp, out.opaque), evs);
    }
}

#[test]
fn kernels_into_uarrays_match_their_definitions_at_page_boundary_lengths() {
    let dp = plane();
    for (i, &n) in LENGTHS.iter().enumerate() {
        for shape in SHAPES {
            let a = batch(n, shape, 17 + i as u32);
            let b = batch(LENGTHS[(i + 3) % LENGTHS.len()], shape, 99 + i as u32);
            check_sort_and_merge(&dp, &a, &b);
            check_top_k_per_key(&dp, &a, 3);
            // Joins of ~n²/9 rows: keep the quadratic shapes small.
            if n <= 342 {
                check_join(&dp, &a, &batch(n.min(60), shape, 5));
            }
        }
    }
    // 341 top-k records of 16 bytes straddle a page differently from events:
    // 256 pairs fill one page exactly.
    for keys in [255usize, 256, 257] {
        let events: Vec<Event> = (0..keys as u32).map(|k| Event::new(k, k, 0)).collect();
        check_top_k_per_key(&dp, &events, 1);
    }
}

#[test]
fn segment_into_uarrays_matches_the_per_event_definition() {
    let dp = plane();
    let fixed = WindowSpec::fixed(Duration::from_secs(1));
    let sliding = WindowSpec::sliding(Duration::from_millis(2_500), Duration::from_secs(1));
    // In order, spanning three windows at one page of events ± 1 each.
    for per_window in [340u32, 341, 342] {
        let events: Vec<Event> =
            (0..3 * per_window).map(|i| Event::new(i, i, i / per_window * 1_000 + 7)).collect();
        check_segment(&dp, &events, fixed);
    }
    // Out of order: later windows first, then interleaved event by event.
    let mut events: Vec<Event> = (0..900u32).map(|i| Event::new(i, i, 2_999 - i * 3)).collect();
    check_segment(&dp, &events, fixed);
    events.sort_by_key(|e| e.key.wrapping_mul(2_654_435_761));
    check_segment(&dp, &events, fixed);
    // Sliding windows whose slide does not divide their size, and Global.
    check_segment(&dp, &events, sliding);
    check_segment(&dp, &events, WindowSpec::Global);
    check_segment(&dp, &[], fixed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_batches_match_their_definitions(
        a in proptest::collection::vec((0u32..12, 0u32..40, 0u32..4_000), 0..700),
        b in proptest::collection::vec((0u32..12, 0u32..40, 0u32..4_000), 0..200),
        k in 1usize..6,
        slide_ms in 1u64..1_500,
        extra_ms in 0u64..1_500,
    ) {
        let to_events = |v: &[(u32, u32, u32)]| -> Vec<Event> {
            v.iter().map(|(key, value, ts)| Event::new(*key, *value, *ts)).collect()
        };
        let (a, b) = (to_events(&a), to_events(&b));
        let dp = plane();
        check_sort_and_merge(&dp, &a, &b);
        check_top_k_per_key(&dp, &a, k);
        check_join(&dp, &b, &a[..a.len().min(150)]);
        let slide = Duration::from_millis(slide_ms);
        let size = (slide_ms + extra_ms).min(slide_ms * MAX_WINDOWS_PER_EVENT);
        check_segment(&dp, &a, WindowSpec::sliding(Duration::from_millis(size), slide));
        check_segment(&dp, &a, WindowSpec::fixed(slide));
    }
}

/// The keyed reduces, each with the parameters it needs over a window of
/// `runs` sorted runs, `left` of them the join's left side.
fn keyed_reduces(runs: usize, left: usize) -> [(PrimitiveKind, PrimitiveParams); 7] {
    [
        (PrimitiveKind::SumCnt, PrimitiveParams::None),
        (PrimitiveKind::AveragePerKey, PrimitiveParams::None),
        (PrimitiveKind::CountPerKey, PrimitiveParams::None),
        (PrimitiveKind::MedianPerKey, PrimitiveParams::None),
        (PrimitiveKind::Unique, PrimitiveParams::None),
        (PrimitiveKind::TopKPerKey, PrimitiveParams::K(3)),
        (
            PrimitiveKind::Join,
            if runs == 2 { PrimitiveParams::None } else { PrimitiveParams::Left(left) },
        ),
    ]
}

/// A keyed reduce reads a window's sorted runs where they lie: over the
/// runs it egresses what it egresses over their `MergeK` (one per side for
/// Join), record for record, and is charged the same pages.
fn check_keyed_reduces_over_runs(dp: &DataPlane, runs: &[Vec<Event>], left: usize) {
    let sorted: Vec<OpaqueRef> = runs
        .iter()
        .map(|run| {
            invoke(dp, PrimitiveKind::Sort, &[ingest(dp, run)], PrimitiveParams::None)[0].opaque
        })
        .collect();
    let merged = |refs: &[OpaqueRef]| {
        invoke(dp, PrimitiveKind::MergeK, refs, PrimitiveParams::None)[0].opaque
    };
    let (whole, sides) = (merged(&sorted), [merged(&sorted[..left]), merged(&sorted[left..])]);
    for (op, params) in keyed_reduces(runs.len(), left) {
        let (over_runs, charged) = invoke_charged(dp, op, &sorted, params);
        let (over_merged, merged_charged) = if op == PrimitiveKind::Join {
            invoke_charged(dp, op, &sides, PrimitiveParams::None)
        } else {
            invoke_charged(dp, op, &[whole], params)
        };
        let shape = format!("{op:?} over {} runs", runs.len());
        assert_eq!(over_runs[0].len, over_merged[0].len, "{shape}");
        assert_eq!(charged, merged_charged, "{shape}: the same pages");
        assert_eq!(opened(dp, over_runs[0].opaque), opened(dp, over_merged[0].opaque), "{shape}");
    }
}

#[test]
fn keyed_reduces_read_sorted_runs_as_their_merge() {
    let dp = plane();
    for shape in SHAPES {
        // One key, distinct keys and heavy ties; empty runs and page-edge
        // lengths among them; the join split at each place it can be.
        let runs: Vec<Vec<Event>> =
            [340, 0, 341, 60, 1].iter().zip(7..).map(|(&n, seed)| batch(n, shape, seed)).collect();
        for count in 2..=runs.len() {
            for left in 1..count {
                check_keyed_reduces_over_runs(&dp, &runs[..count], left);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The trail.
// ---------------------------------------------------------------------------

/// A tenant's drained audit records with the wall-clock stamp zeroed.
fn drained_records(dp: &DataPlane) -> Vec<AuditRecord> {
    let keys = dp.verifier_keys(T).unwrap();
    let segments = dp.drain_audit_segments(T).unwrap();
    let mut records = sbt_attest::verify_tenant_trail(&segments, T, &keys).expect("trail verifies");
    for r in &mut records {
        match r {
            AuditRecord::Ingress { ts_ms, .. }
            | AuditRecord::Egress { ts_ms, .. }
            | AuditRecord::Windowing { ts_ms, .. }
            | AuditRecord::Execution { ts_ms, .. }
            | AuditRecord::Rekey { ts_ms, .. }
            | AuditRecord::Departure { ts_ms, .. }
            | AuditRecord::Checkpoint { ts_ms, .. } => *ts_ms = 0,
        }
    }
    records
}

fn ingress(id: u32) -> AuditRecord {
    AuditRecord::Ingress { ts_ms: 0, data: DataRef::UArray(UArrayRef(id)) }
}

fn windowing(input: u32, win_no: u16, output: u32) -> AuditRecord {
    AuditRecord::Windowing { ts_ms: 0, input: UArrayRef(input), win_no, output: UArrayRef(output) }
}

fn execution(op: PrimitiveKind, inputs: &[u32], output: u32, hints: &HintSet) -> AuditRecord {
    AuditRecord::Execution {
        ts_ms: 0,
        op,
        inputs: inputs.iter().map(|i| UArrayRef(*i)).collect(),
        outputs: [UArrayRef(output)].into(),
        hints: hints.iter().map(|h: ConsumptionHint| h.encode()).collect(),
    }
}

/// The wire bytes of a batch whose events meet window 1 before window 0:
/// ids must still be minted in window order.
fn two_window_batch(seed: u32) -> Vec<u8> {
    let mut events = batch(500, Keys::Few, seed);
    for (i, e) in events.iter_mut().enumerate() {
        e.ts_ms = if i < 300 { 1_000 + i as u32 } else { i as u32 };
    }
    Event::slice_to_bytes(&events)
}

#[test]
fn a_topk_and_a_join_pipeline_leave_the_same_trail_as_before() {
    let spec = WindowSpec::fixed(Duration::from_secs(1));
    // Each partition's Sort names its own sibling; the Merge carries none.
    let (sibling0, sibling1) =
        (HintSet::consumed_in_parallel(2, 0), HintSet::consumed_in_parallel(2, 1));
    let none = HintSet::none();
    let hinted = |dp: &DataPlane, op, inputs: &[OpaqueRef], params, hints: &HintSet| {
        in_tee(|| dp.invoke(T, op, inputs, params, hints)).unwrap()[0].opaque
    };

    // TopK: two batches on two lanes, each split over windows 0 and 1;
    // window 0 fires.
    let dp = plane();
    let w1 = windowed(&dp, &two_window_batch(1), spec, (0, 0)); // batch 0; ids 1 (w0), 2 (w1)
    let w2 = windowed(&dp, &two_window_batch(2), spec, (0, 1)); // batch 3; ids 4, 5
    assert_eq!(w1[0].window.unwrap().0, 0);
    let s1 = hinted(&dp, PrimitiveKind::Sort, &[w1[0].opaque], PrimitiveParams::None, &sibling0);
    let s2 = hinted(&dp, PrimitiveKind::Sort, &[w2[0].opaque], PrimitiveParams::None, &sibling1);
    let m = hinted(&dp, PrimitiveKind::Merge, &[s1, s2], PrimitiveParams::None, &none); // 8
    let top = hinted(&dp, PrimitiveKind::TopKPerKey, &[m], PrimitiveParams::K(3), &none); // 9
    in_tee(|| dp.egress(T, top)).unwrap();
    assert_eq!(
        drained_records(&dp),
        vec![
            ingress(0),
            windowing(0, 0, 1),
            windowing(0, 1, 2),
            ingress(3),
            windowing(3, 0, 4),
            windowing(3, 1, 5),
            execution(PrimitiveKind::Sort, &[1], 6, &sibling0),
            execution(PrimitiveKind::Sort, &[4], 7, &sibling1),
            execution(PrimitiveKind::Merge, &[6, 7], 8, &none),
            execution(PrimitiveKind::TopKPerKey, &[8], 9, &none),
            AuditRecord::Egress { ts_ms: 0, data: UArrayRef(9) },
        ]
    );

    // Join: one batch a side, window 1 fires.
    let dp = plane();
    let lw = windowed(&dp, &two_window_batch(3), spec, (0, 0)); // batch 0; 1, 2
    let rw = windowed(&dp, &two_window_batch(4), spec, (1, 0)); // batch 3; 4, 5
    let ls = hinted(&dp, PrimitiveKind::Sort, &[lw[1].opaque], PrimitiveParams::None, &none); // 6
    let rs = hinted(&dp, PrimitiveKind::Sort, &[rw[1].opaque], PrimitiveParams::None, &none); // 7
    let joined = hinted(&dp, PrimitiveKind::Join, &[ls, rs], PrimitiveParams::None, &none); // 8
    in_tee(|| dp.egress(T, joined)).unwrap();
    assert_eq!(
        drained_records(&dp),
        vec![
            ingress(0),
            windowing(0, 0, 1),
            windowing(0, 1, 2),
            ingress(3),
            windowing(3, 0, 4),
            windowing(3, 1, 5),
            execution(PrimitiveKind::Sort, &[2], 6, &none),
            execution(PrimitiveKind::Sort, &[5], 7, &none),
            execution(PrimitiveKind::Join, &[6, 7], 8, &none),
            AuditRecord::Egress { ts_ms: 0, data: UArrayRef(8) },
        ]
    );
}

// ---------------------------------------------------------------------------
// Allocation profile.
// ---------------------------------------------------------------------------

#[test]
fn an_invocation_allocates_one_payload_sized_buffer_per_output() {
    // Anything of at least 32 KiB is payload-sized here: every output below
    // is larger, all bookkeeping far smaller.
    counting_alloc::set_large_threshold(32 * 1024);
    let dp = plane();
    let large = |f: &dyn Fn() -> Vec<InvokeOutput>| {
        let before = counting_alloc::counts();
        let outputs = f();
        (counting_alloc::counts().since(before).large, outputs)
    };
    let events: Vec<Event> = batch(30_000, Keys::Distinct, 3)
        .iter()
        .map(|e| Event::new(e.key % 3_000, e.value, e.ts_ms / 10))
        .collect();
    let input = ingest(&dp, &events);
    let sort = || invoke(&dp, PrimitiveKind::Sort, &[input], PrimitiveParams::None);
    // The first sort sizes this thread's scratch (payload-sized, kept).
    let warm = sort();
    let (n, sorted) = large(&sort);
    assert_eq!(n, 1, "Sort: its output buffer, scratch recycled");
    let (n, merged) = large(&|| {
        invoke(
            &dp,
            PrimitiveKind::Merge,
            &[warm[0].opaque, sorted[0].opaque],
            PrimitiveParams::None,
        )
    });
    assert_eq!(n, 1, "Merge");
    let (n, _) = large(&|| {
        invoke(&dp, PrimitiveKind::TopKPerKey, &[merged[0].opaque], PrimitiveParams::K(10))
    });
    assert_eq!(n, 1, "TopKPerKey");
    let (n, joined) = large(&|| {
        invoke(&dp, PrimitiveKind::Join, &[warm[0].opaque, sorted[0].opaque], PrimitiveParams::None)
    });
    assert_eq!(n, 1, "Join: counted first, reserved once");
    assert!(joined[0].len >= 30_000);
    // Three windows of 10 000 events: three buffers.
    let payload = Event::slice_to_bytes(&events);
    let one_second = WindowSpec::fixed(Duration::from_secs(1));
    let (n, windows) = large(&|| windowed(&dp, &payload, one_second, (0, 0)));
    assert_eq!((n, windows.len()), (3, 3), "windowed ingress: one buffer per window");
}
