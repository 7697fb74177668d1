//! The keyed kernels read a window's sorted runs where they lie.
//!
//! Each run-reading kernel — SumCnt/AveragePerKey, CountPerKey,
//! MedianPerKey, Unique, TopKPerKey and Join — must give, record for record,
//! what the same kernel gives over the one array `MergeK` makes of the runs
//! (the lower run first on equal keys), and each `_len` pass must be the
//! kernel's output length. The runs here are one to six, with heavy key
//! ties, empty runs, and key ranges that interleave or are disjoint.

use proptest::prelude::*;
use sbt_primitives as prim;
use sbt_types::{infallible, Event, KeyAgg, KeyValue};

/// One run: a key range of its own (disjoint from the other runs') or a
/// shared one of eight keys (heavy ties, interleaved), and values with ties.
fn run_strategy() -> impl Strategy<Value = (bool, Vec<(u32, u32)>)> {
    (any::<bool>(), proptest::collection::vec((0u32..8, 0u32..16), 0..40))
}

/// The runs as key-sorted event arrays; run `r` tags its events with `r`.
fn sorted_runs(runs: Vec<(bool, Vec<(u32, u32)>)>) -> Vec<Vec<Event>> {
    runs.into_iter()
        .enumerate()
        .map(|(r, (disjoint, pairs))| {
            let base = if disjoint { 100 * (r as u32 + 1) } else { 0 };
            let events: Vec<Event> =
                pairs.iter().map(|&(key, value)| Event::new(base + key, value, r as u32)).collect();
            prim::sort_events_by_key(&events)
        })
        .collect()
}

fn slices(runs: &[Vec<Event>]) -> Vec<&[Event]> {
    runs.iter().map(Vec::as_slice).collect()
}

/// What `MergeK` makes of the runs, checked against merging them pairwise
/// from the left (MergeK reads the runs with the same walker as the
/// kernels, so the pairwise merge keeps the oracle independent of it).
fn merged(runs: &[&[Event]]) -> Vec<Event> {
    let mut out = Vec::new();
    infallible(prim::merge_runs_by_key_into(runs, &mut out));
    let pairwise = runs.iter().fold(Vec::new(), |acc, run| prim::merge_sorted_by_key(&acc, run));
    assert_eq!(out, pairwise, "MergeK is the pairwise merge from the left");
    out
}

proptest! {
    #[test]
    fn keyed_kernels_over_runs_match_them_over_the_merged_runs(
        runs in proptest::collection::vec(run_strategy(), 1..7),
        k in 1usize..6,
    ) {
        let runs = sorted_runs(runs);
        let runs = slices(&runs);
        let whole = merged(&runs);
        let keys = prim::key_runs(&runs);
        prop_assert_eq!(keys, prim::key_runs(&[&whole]));

        let mut aggs: Vec<KeyAgg> = Vec::new();
        infallible(prim::sum_count_per_key_into(&runs, &mut aggs));
        prop_assert_eq!(&aggs, &prim::sum_count_per_key(&whole));
        prop_assert_eq!(&aggs, &prim::avg_per_key(&whole));
        prop_assert_eq!(aggs.len(), keys);

        let mut counts: Vec<KeyValue> = Vec::new();
        infallible(prim::count_per_key_into(&runs, &mut counts));
        prop_assert_eq!(&counts, &prim::count_per_key(&whole));
        prop_assert_eq!(counts.len(), keys);

        let mut medians: Vec<KeyValue> = Vec::new();
        infallible(prim::median_per_key_into(&runs, &mut medians));
        prop_assert_eq!(&medians, &prim::median_per_key(&whole));
        prop_assert_eq!(medians.len(), keys);

        let mut unique: Vec<u32> = Vec::new();
        infallible(prim::unique_keys_into(&runs, &mut unique));
        prop_assert_eq!(&unique, &prim::unique_keys(&whole));
        prop_assert_eq!(unique.len(), keys);

        let mut top: Vec<KeyValue> = Vec::new();
        infallible(prim::top_k_per_key_into(&runs, k, &mut top));
        prop_assert_eq!(&top, &prim::top_k_per_key(&whole, k));
        prop_assert_eq!(top.len(), prim::top_k_per_key_len(&runs, k));
    }

    #[test]
    fn a_join_over_runs_matches_the_join_of_the_merged_sides(
        left in proptest::collection::vec(run_strategy(), 1..5),
        right in proptest::collection::vec(run_strategy(), 1..5),
    ) {
        let n = left.len();
        let runs = sorted_runs(left.into_iter().chain(right).collect());
        let runs = slices(&runs);
        let (left, right) = (merged(&runs[..n]), merged(&runs[n..]));
        let mut joined: Vec<KeyValue> = Vec::new();
        infallible(prim::join_by_key_into(&runs, n, &mut joined));
        prop_assert_eq!(&joined, &prim::join_by_key(&left, &right));
        prop_assert_eq!(joined.len(), prim::join_len(&runs, n));
    }
}

#[test]
fn equal_keys_meet_the_reduce_in_run_order() {
    // Key 5 is in every run; Join's rows show the order its records are
    // read in: left side run by run, then each against the right side's,
    // run by run.
    let ev = |key, value| Event::new(key, value, 0);
    let runs: [&[Event]; 4] =
        [&[ev(5, 1), ev(9, 2)], &[ev(1, 3), ev(5, 4)], &[], &[ev(5, 10), ev(5, 11)]];
    let row = |l: u64, r: u64| KeyValue::new(5, l << 32 | r);
    let mut joined = Vec::new();
    infallible(prim::join_by_key_into(&runs, 2, &mut joined));
    assert_eq!(joined, [row(1, 10), row(1, 11), row(4, 10), row(4, 11)]);
    assert_eq!(prim::key_runs(&runs), 3);
    assert_eq!(prim::key_runs(&[]), 0);
}
