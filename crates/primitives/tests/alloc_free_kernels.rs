//! The kernels allocate nothing of their own.
//!
//! Every hot primitive is one pass over a record sink, or — Sort — a
//! rewrite of its array in place; whatever working memory it needs (the
//! sort's second buffer of events, the order statistics' value buffer) is
//! per-thread scratch that is sized by the first call and reused. So in steady state the only allocations an
//! invocation makes are its sink's: none at all into a sink that is already
//! reserved — which is what an open uArray writer is — and exactly the
//! output buffer through the `Vec`-returning functions. Segment opens one
//! sink per output window and allocates nothing else.
//!
//! MergeK keeps its heap and run cursors in the same scratch, so it too is
//! clean once warmed. CI runs this in `--release` as well (Sort, Merge,
//! MergeK, TopKPerKey, Join, …): a debug build re-walks every input in
//! `debug_assert!(sorted)`, which allocates nothing either but is slow.

use sbt_primitives as prim;
use sbt_types::{infallible, Duration, Event, KeyValue, WindowId, WindowSpec};

#[global_allocator]
static GLOBAL: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator;

/// Allocator calls made by `f` on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = counting_alloc::counts();
    let result = f();
    (counting_alloc::counts().since(before).allocations, result)
}

/// `n` events over `keys` keys, in time order across `span_ms`.
fn stream(n: usize, keys: u32, span_ms: usize) -> Vec<Event> {
    let mut x = 0x9E37_79B9u32;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            Event::new(x % keys, x.rotate_left(9), (i * span_ms / n) as u32)
        })
        .collect()
}

#[test]
fn kernels_over_a_reserved_sink_allocate_nothing_after_warm_up() {
    let events = stream(50_000, 1_000, 1_000);
    let sorted = prim::sort_events_by_key(&events);
    let (a, b) = events.split_at(events.len() / 2);
    let (a, b) = (prim::sort_events_by_key(a), prim::sort_events_by_key(b));
    let left = prim::sort_events_by_key(&stream(8_000, 2_000, 1_000));
    let right = prim::sort_events_by_key(&stream(8_000, 2_000, 1_000));
    // A window's 25 partitions, each sorted: MergeK's input.
    let sorted_runs: Vec<Vec<Event>> = events.chunks(2_000).map(prim::sort_events_by_key).collect();
    let runs: Vec<&[Event]> = sorted_runs.iter().map(Vec::as_slice).collect();

    // The sinks stand in for reserved uArrays: sized once, outside the count.
    let mut events_out: Vec<Event> = Vec::with_capacity(events.len());
    let mut pairs_out: Vec<KeyValue> = Vec::with_capacity(prim::join_len(&left, &right));
    let mut scalars_out: Vec<u64> = Vec::with_capacity(events.len());

    let mut round = |measured: bool| {
        let check = |name: &str, allocs: u64| {
            assert!(!measured || allocs == 0, "{name} allocated {allocs} times in steady state");
        };
        events_out.clear();
        events_out.extend_from_slice(&events);
        let sort = allocations(|| prim::sort_events_in_place(&mut events_out, |e| e.key));
        check("Sort", sort.0);
        assert_eq!(events_out, sorted, "Sort in place");
        for field in [|e: &Event| e.value, |e: &Event| e.ts_ms] {
            events_out.clear();
            events_out.extend_from_slice(&events);
            check(
                "Sort by another field",
                allocations(|| prim::sort_events_in_place(&mut events_out, field)).0,
            );
        }
        events_out.clear();
        let merge =
            allocations(|| infallible(prim::merge_sorted_by_key_into(&a, &b, &mut events_out)));
        check("Merge", merge.0);
        events_out.clear();
        let merge_k =
            allocations(|| infallible(prim::merge_runs_by_key_into(&runs, &mut events_out)));
        check("MergeK", merge_k.0);
        assert_eq!(events_out, sorted, "MergeK of the sorted runs");
        pairs_out.clear();
        let topk =
            allocations(|| infallible(prim::top_k_per_key_into(&sorted, 10, &mut pairs_out)));
        check("TopKPerKey", topk.0);
        assert_eq!(pairs_out.len(), prim::top_k_per_key_len(&sorted, 10));
        pairs_out.clear();
        let join =
            allocations(|| infallible(prim::join_by_key_into(&left, &right, &mut pairs_out)));
        check("Join", join.0);
        assert_eq!(pairs_out.len(), pairs_out.capacity(), "join_len reserved exactly");
        pairs_out.clear();
        let median = allocations(|| infallible(prim::median_per_key_into(&sorted, &mut pairs_out)));
        check("MedianPerKey", median.0);
        scalars_out.clear();
        let top = allocations(|| {
            infallible(prim::top_k_by_value_into(&[&events], 5_000, &mut scalars_out))
        });
        check("TopK", top.0);
        check("Median", allocations(|| prim::median(&[&events])).0);
    };
    // The first round sizes this thread's scratch; the second must be clean.
    round(false);
    round(true);
}

#[test]
fn the_vec_forms_allocate_exactly_their_output() {
    let events = stream(20_000, 500, 1_000);
    let sorted = prim::sort_events_by_key(&events);
    let (a, b) = sorted.split_at(sorted.len() / 2);
    let _ = prim::top_k_per_key(&sorted, 10); // warm the scratch
    assert_eq!(allocations(|| prim::sort_events_by_key(&events)).0, 1, "Sort");
    assert_eq!(allocations(|| prim::merge_sorted_by_key(a, b)).0, 1, "Merge");
    assert_eq!(allocations(|| prim::top_k_per_key(&sorted, 10)).0, 1, "TopKPerKey");
    assert_eq!(allocations(|| prim::join_by_key(a, b)).0, 1, "Join");
}

#[test]
fn segment_allocates_one_buffer_per_output_window() {
    let fixed = WindowSpec::fixed(Duration::from_secs(1));
    let sliding = WindowSpec::sliding(Duration::from_millis(2_500), Duration::from_secs(1));
    // The caller's list of open windows, sized outside the count as the data
    // plane's is amortised into its invocation bookkeeping.
    let mut outputs: Vec<(WindowId, Vec<Event>)> = Vec::with_capacity(16);
    for (spec, span_ms, windows) in [(fixed, 1_000, 1), (fixed, 3_000, 3), (sliding, 5_000, 5)] {
        let events = stream(30_000, 100, span_ms);
        outputs.clear();
        let (allocs, ()) = allocations(|| {
            infallible(prim::segment_into(&events, &spec, &mut outputs, |_, n| {
                Ok(Vec::with_capacity(n))
            }))
        });
        assert_eq!(outputs.len(), windows, "{spec:?} over {span_ms} ms");
        assert_eq!(allocs, windows as u64, "{spec:?}: one reservation per window, never a regrow");
    }
    // Out of order, every event its own run: still one buffer per window.
    let mut shuffled = stream(30_000, 100, 3_000);
    shuffled.sort_by_key(|e| e.value);
    outputs.clear();
    let (allocs, ()) = allocations(|| {
        infallible(prim::segment_into(&shuffled, &fixed, &mut outputs, |_, n| {
            Ok(Vec::with_capacity(n))
        }))
    });
    assert_eq!((outputs.len(), allocs), (3, 3));
}
