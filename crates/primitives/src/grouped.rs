//! Per-key grouped primitives over key-sorted runs: SumCnt-per-key,
//! Count-per-key, Average-per-key, Median-per-key and Unique (§5, Table 2).
//!
//! Grouping in StreamBox-TZ is sort-based: each of a window's arrays is
//! first sorted by key (see [`crate::sort`]), after which every grouped
//! aggregate is a single sequential walk over the keys of the sorted runs,
//! read where they lie. This is the paper's alternative to the hash tables
//! commodity engines use, and it is insensitive to key skew.
//!
//! All kernels in this module take the runs (`&[&[Event]]`), each of which
//! must be sorted by key (debug-asserted); the `Vec`-returning functions are
//! the one-run case. Each emits exactly one record per distinct key, so
//! [`key_runs`] is the output size of all of them.

use crate::scratch::{with_scratch, Scratch};
use crate::topk::lower_median;
use sbt_types::{infallible, Event, KeyAgg, KeyValue, RecordCount, RecordSink};

/// One key's records across the runs: each run's sub-slice for the key, in
/// run order (empty for a run without the key). Read part by part, they are
/// in the order a stable merge of the runs (the lower run first on ties, as
/// `MergeK` gives) holds them.
#[derive(Clone, Copy)]
pub(crate) struct KeyGroup<'g, 'a> {
    runs: &'g [&'a [Event]],
    spans: &'g [(usize, usize)],
}

impl<'g, 'a> KeyGroup<'g, 'a> {
    /// Each run's records of the key, in run order.
    #[inline]
    pub fn parts(self) -> impl Iterator<Item = &'a [Event]> + 'g {
        self.runs.iter().zip(self.spans).map(|(run, &(start, end))| &run[start..end])
    }

    /// How many records the key has over all the runs.
    #[inline]
    pub fn len(self) -> usize {
        self.spans.iter().map(|(start, end)| end - start).sum()
    }

    /// The group over the first `n` runs and the group over the rest.
    #[inline]
    pub fn split_at(self, n: usize) -> (Self, Self) {
        let (runs, spans) = (self.runs.split_at(n), self.spans.split_at(n));
        (KeyGroup { runs: runs.0, spans: spans.0 }, KeyGroup { runs: runs.1, spans: spans.1 })
    }
}

/// The key-group walker over key-sorted `runs` (debug-asserted), with the
/// thread's scratch for `f` and its spans for the walk: see
/// [`walk_key_groups`]. A warm thread allocates nothing.
pub(crate) fn for_each_group<E>(
    runs: &[&[Event]],
    mut f: impl FnMut(u32, KeyGroup<'_, '_>, &mut Scratch) -> Result<(), E>,
) -> Result<(), E> {
    debug_assert!(runs.iter().all(|run| run.is_sorted_by_key(|e| e.key)), "runs not key-sorted");
    with_scratch(|scratch| {
        let mut spans = std::mem::take(&mut scratch.spans);
        let walked = walk_key_groups(runs, &mut spans, |key, group| f(key, group, scratch));
        scratch.spans = spans;
        walked
    })
}

/// Visit each key present in `runs`, in ascending order, with every run's
/// sub-slice for it, stopping at the first error; `spans` (one per run) is
/// the walk's working memory. A run that is not sorted still ends the walk,
/// with every record in exactly one visit (every step consumes the least
/// head), but its keys may be visited more than once.
#[inline]
pub(crate) fn walk_key_groups<E>(
    runs: &[&[Event]],
    spans: &mut Vec<(usize, usize)>,
    mut f: impl FnMut(u32, KeyGroup<'_, '_>) -> Result<(), E>,
) -> Result<(), E> {
    spans.clear();
    spans.resize(runs.len(), (0, 0));
    // The least head key, widened so that `DONE` is past every key.
    const DONE: u64 = u64::MAX;
    let mut next =
        runs.iter().filter_map(|run| run.first()).map(|e| e.key as u64).min().unwrap_or(DONE);
    while next != DONE {
        let key = next as u32;
        next = DONE;
        for (run, span) in runs.iter().zip(spans.iter_mut()) {
            let start = span.1;
            let mut end = start;
            while let Some(head) = run.get(end) {
                if head.key != key {
                    next = next.min(head.key as u64);
                    break;
                }
                end += 1;
            }
            *span = (start, end);
        }
        f(key, KeyGroup { runs, spans })?;
    }
    Ok(())
}

/// Number of distinct keys in the key-sorted `runs`: how many records each
/// per-key primitive emits.
pub fn key_runs(runs: &[&[Event]]) -> usize {
    let mut keys = RecordCount::default();
    infallible(unique_keys_into::<u32, _>(runs, &mut keys));
    keys.0
}

/// Per-key sum and count (the `SumCnt` primitive applied per key). The
/// output is ordered by key.
pub fn sum_count_per_key(sorted_events: &[Event]) -> Vec<KeyAgg> {
    let mut out = Vec::new();
    infallible(sum_count_per_key_into(&[sorted_events], &mut out));
    out
}

/// The SumCnt-per-key kernel.
pub fn sum_count_per_key_into<S: RecordSink<KeyAgg>>(
    runs: &[&[Event]],
    sink: &mut S,
) -> Result<(), S::Error> {
    for_each_group(runs, |key, group, _| {
        let sum: u64 = group.parts().flatten().map(|e| e.value as u64).sum();
        sink.push(KeyAgg::new(key, sum, group.len() as u64))
    })
}

/// Per-key event count (the `CountPerKey` primitive), as `(key, count)`
/// records ordered by key.
pub fn count_per_key(sorted_events: &[Event]) -> Vec<KeyValue> {
    let mut out = Vec::new();
    infallible(count_per_key_into(&[sorted_events], &mut out));
    out
}

/// The CountPerKey kernel.
pub fn count_per_key_into<S: RecordSink<KeyValue>>(
    runs: &[&[Event]],
    sink: &mut S,
) -> Result<(), S::Error> {
    for_each_group(runs, |key, group, _| sink.push(KeyValue::new(key, group.len() as u64)))
}

/// Per-key average value (the `AveragePerKey` primitive). Ordered by key.
pub fn avg_per_key(sorted_events: &[Event]) -> Vec<KeyAgg> {
    // Returned as KeyAgg so downstream operators can keep merging partial
    // aggregates; the average itself is `KeyAgg::avg`.
    sum_count_per_key(sorted_events)
}

/// Per-key median value (the `MedianPerKey` primitive), as `(key, median)`
/// records ordered by key.
pub fn median_per_key(sorted_events: &[Event]) -> Vec<KeyValue> {
    let mut out = Vec::new();
    infallible(median_per_key_into(&[sorted_events], &mut out));
    out
}

/// The MedianPerKey kernel.
pub fn median_per_key_into<S: RecordSink<KeyValue>>(
    runs: &[&[Event]],
    sink: &mut S,
) -> Result<(), S::Error> {
    for_each_group(runs, |key, group, Scratch { values, .. }| {
        values.clear();
        for part in group.parts() {
            values.extend(part.iter().map(|e| e.value));
        }
        let median = lower_median(values).expect("a key group is never empty");
        sink.push(KeyValue::new(key, median as u64))
    })
}

/// Distinct keys present in the input (the `Unique` primitive). Ordered by
/// key. This is what the Distinct benchmark (unique taxi ids) is built on.
pub fn unique_keys(sorted_events: &[Event]) -> Vec<u32> {
    let mut out = Vec::new();
    infallible(unique_keys_into(&[sorted_events], &mut out));
    out
}

/// The Unique kernel: one scalar record per distinct key.
pub fn unique_keys_into<R: From<u32>, S: RecordSink<R>>(
    runs: &[&[Event]],
    sink: &mut S,
) -> Result<(), S::Error> {
    for_each_group(runs, |key, _, _| sink.push(R::from(key)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::sort_events_by_key;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn sorted(events: &[Event]) -> Vec<Event> {
        sort_events_by_key(events)
    }

    #[test]
    fn sum_count_per_key_on_small_input() {
        let events = sorted(&[
            Event::new(2, 10, 0),
            Event::new(1, 5, 0),
            Event::new(2, 20, 0),
            Event::new(1, 15, 0),
            Event::new(3, 7, 0),
        ]);
        let aggs = sum_count_per_key(&events);
        assert_eq!(aggs, vec![KeyAgg::new(1, 20, 2), KeyAgg::new(2, 30, 2), KeyAgg::new(3, 7, 1)]);
        assert_eq!(aggs[0].avg(), 10);
    }

    #[test]
    fn count_and_unique() {
        let events = sorted(&[Event::new(5, 0, 0), Event::new(5, 0, 0), Event::new(9, 0, 0)]);
        assert_eq!(count_per_key(&events), vec![KeyValue::new(5, 2), KeyValue::new(9, 1)]);
        assert_eq!(unique_keys(&events), vec![5, 9]);
    }

    #[test]
    fn empty_input_yields_empty_outputs() {
        assert!(sum_count_per_key(&[]).is_empty());
        assert!(count_per_key(&[]).is_empty());
        assert!(unique_keys(&[]).is_empty());
        assert!(median_per_key(&[]).is_empty());
    }

    #[test]
    fn median_per_key_uses_lower_middle() {
        let events = sorted(&[
            Event::new(1, 10, 0),
            Event::new(1, 30, 0),
            Event::new(1, 20, 0),
            Event::new(2, 4, 0),
            Event::new(2, 8, 0),
        ]);
        assert_eq!(median_per_key(&events), vec![KeyValue::new(1, 20), KeyValue::new(2, 4)]);
    }

    proptest! {
        #[test]
        fn grouped_aggregates_match_hash_reference(
            pairs in proptest::collection::vec((0u32..40, 0u32..1000), 0..600),
        ) {
            let events: Vec<Event> =
                pairs.iter().map(|(k, v)| Event::new(*k, *v, 0)).collect();
            let sorted_events = sorted(&events);

            // Reference aggregation with a hash/ordered map.
            let mut reference: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
            for (k, v) in &pairs {
                let e = reference.entry(*k).or_insert((0, 0));
                e.0 += *v as u64;
                e.1 += 1;
            }

            let aggs = sum_count_per_key(&sorted_events);
            prop_assert_eq!(aggs.len(), reference.len());
            for agg in &aggs {
                let (sum, count) = reference[&agg.key];
                prop_assert_eq!(agg.sum, sum);
                prop_assert_eq!(agg.count, count);
            }

            let counts = count_per_key(&sorted_events);
            for kc in &counts {
                prop_assert_eq!(kc.value, reference[&kc.key].1);
            }

            let uniques = unique_keys(&sorted_events);
            let expected_keys: Vec<u32> = reference.keys().copied().collect();
            prop_assert_eq!(uniques, expected_keys);
        }

        #[test]
        fn outputs_are_ordered_by_key(
            pairs in proptest::collection::vec((0u32..100, 0u32..100), 0..300),
        ) {
            let events: Vec<Event> =
                pairs.iter().map(|(k, v)| Event::new(*k, *v, 0)).collect();
            let s = sorted(&events);
            prop_assert!(sum_count_per_key(&s).windows(2).all(|w| w[0].key < w[1].key));
            prop_assert!(unique_keys(&s).windows(2).all(|w| w[0] < w[1]));
        }
    }
}
