//! Per-key grouped primitives over key-sorted arrays: SumCnt-per-key,
//! Count-per-key, Average-per-key, Median-per-key and Unique (§5, Table 2).
//!
//! Grouping in StreamBox-TZ is sort-based: the input array is first sorted
//! by key (see [`crate::sort`]), after which every grouped aggregate is a
//! single sequential scan over runs of equal keys. This is the paper's
//! alternative to the hash tables commodity engines use, and it is
//! insensitive to key skew.
//!
//! All functions in this module require their input to be sorted by key and
//! debug-assert that property. Each emits exactly one record per key run, so
//! [`key_runs`] is the output size of all of them.

use crate::scratch::with_scratch;
use crate::topk::lower_median;
use sbt_types::{infallible, Event, KeyAgg, KeyValue, RecordSink};

#[inline]
fn debug_assert_sorted_by_key(events: &[Event]) {
    debug_assert!(
        events.windows(2).all(|w| w[0].key <= w[1].key),
        "grouped primitive requires key-sorted input"
    );
}

/// Visit each run of equal keys in a key-sorted array, stopping at the
/// first error.
pub(crate) fn for_each_group<E>(
    events: &[Event],
    mut f: impl FnMut(u32, &[Event]) -> Result<(), E>,
) -> Result<(), E> {
    debug_assert_sorted_by_key(events);
    let mut start = 0;
    while start < events.len() {
        let key = events[start].key;
        let mut end = start + 1;
        while end < events.len() && events[end].key == key {
            end += 1;
        }
        f(key, &events[start..end])?;
        start = end;
    }
    Ok(())
}

/// Number of key runs (distinct keys) in a key-sorted array: how many
/// records each per-key primitive emits.
pub fn key_runs(sorted_events: &[Event]) -> usize {
    debug_assert_sorted_by_key(sorted_events);
    let boundaries = sorted_events.windows(2).filter(|w| w[0].key != w[1].key).count();
    boundaries + usize::from(!sorted_events.is_empty())
}

/// Per-key sum and count (the `SumCnt` primitive applied per key). The
/// output is ordered by key.
pub fn sum_count_per_key(sorted_events: &[Event]) -> Vec<KeyAgg> {
    let mut out = Vec::new();
    infallible(sum_count_per_key_into(sorted_events, &mut out));
    out
}

/// The SumCnt-per-key kernel.
pub fn sum_count_per_key_into<S: RecordSink<KeyAgg>>(
    sorted_events: &[Event],
    sink: &mut S,
) -> Result<(), S::Error> {
    for_each_group(sorted_events, |key, group| {
        let sum: u64 = group.iter().map(|e| e.value as u64).sum();
        sink.push(KeyAgg::new(key, sum, group.len() as u64))
    })
}

/// Per-key event count (the `CountPerKey` primitive), as `(key, count)`
/// records ordered by key.
pub fn count_per_key(sorted_events: &[Event]) -> Vec<KeyValue> {
    let mut out = Vec::new();
    infallible(count_per_key_into(sorted_events, &mut out));
    out
}

/// The CountPerKey kernel.
pub fn count_per_key_into<S: RecordSink<KeyValue>>(
    sorted_events: &[Event],
    sink: &mut S,
) -> Result<(), S::Error> {
    for_each_group(sorted_events, |key, group| sink.push(KeyValue::new(key, group.len() as u64)))
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
    infallible(median_per_key_into(sorted_events, &mut out));
    out
}

/// The MedianPerKey kernel.
pub fn median_per_key_into<S: RecordSink<KeyValue>>(
    sorted_events: &[Event],
    sink: &mut S,
) -> Result<(), S::Error> {
    with_scratch(|scratch| {
        let values = &mut scratch.values;
        for_each_group(sorted_events, |key, group| {
            values.clear();
            values.extend(group.iter().map(|e| e.value));
            let median = lower_median(values).expect("a key run is never empty");
            sink.push(KeyValue::new(key, median as u64))
        })
    })
}

/// Distinct keys present in the input (the `Unique` primitive). Ordered by
/// key. This is what the Distinct benchmark (unique taxi ids) is built on.
pub fn unique_keys(sorted_events: &[Event]) -> Vec<u32> {
    let mut out = Vec::new();
    infallible(unique_keys_into(sorted_events, &mut out));
    out
}

/// The Unique kernel: one scalar record per distinct key.
pub fn unique_keys_into<R: From<u32>, S: RecordSink<R>>(
    sorted_events: &[Event],
    sink: &mut S,
) -> Result<(), S::Error> {
    for_each_group(sorted_events, |key, _| sink.push(R::from(key)))
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
