//! The TopK / TopKPerKey trusted primitives (§5, Table 2), and the order
//! statistics they share with Median.
//!
//! TopK identifies the K largest values in a window; TopKPerKey does the
//! same within each key group of key-sorted runs, read where they lie (the
//! TopK benchmark of §9.2). Both stay array-based — no heap of nodes — but
//! neither sorts what it does not keep: the group's values are copied into
//! the thread's scratch, partitioned around the K-th largest
//! (`select_nth_unstable`, linear), and only the kept prefix is ordered —
//! by a comparison sort while it is short, by the radix kernel over four
//! bytes once it is long enough to repay the kernel's fixed histogram cost.
//!
//! One strategy on purpose. A bounded insertion buffer (keep the K largest
//! seen so far, shift on insert) was measured against it on the reference
//! host: on uniformly random values it is 1.3× faster at K = 10 over
//! 100-value groups and 4× faster over 100 000, but its cost depends on the
//! input order — ascending values (a counter, a slowly rising sensor) make
//! every value an insert and it runs 4× *slower* than selection at K = 10,
//! 11× at K = 32 — and on the `topk` benchmark's own windows it measured
//! 130–170 Mevents/s against selection's 216–219. Selection does the same
//! work whatever the order.

use crate::grouped::for_each_group;
use crate::scratch::{with_scratch, Scratch};
use crate::sort::radix_sort_by_bytes;
use sbt_types::{infallible, Event, KeyValue, RecordSink};

/// Shortest kept prefix ordered by the 4-byte radix kernel instead of a
/// comparison sort. Measured on the reference host, ns per value,
/// `sort_unstable` / radix: 4.7 / 5.8 at 256 values, 5.4 / 4.8 at 512,
/// 5.8 / 4.8 at 1 024, 7.4 / 5.1 at 4 096, 12.6 / 6.1 at 100 000 — the
/// kernel zeroes and sums four 256-entry histograms whatever the length, so
/// it only pays from about a thousand values.
const RADIX_MIN_LEN: usize = 1_024;

/// Leave in `scratch.values` the `k` largest values of the events of
/// `parts`, descending (duplicates kept; all of them if there are fewer
/// than `k`).
fn largest_values_desc<'a>(
    parts: impl Iterator<Item = &'a [Event]>,
    k: usize,
    scratch: &mut Scratch,
) {
    let Scratch { packed, spare, values, .. } = scratch;
    values.clear();
    if k == 0 {
        return;
    }
    // A part at a time: each extend knows its length, where one over
    // every part would grow the buffer as it goes.
    for part in parts {
        values.extend(part.iter().map(|e| e.value));
    }
    if k < values.len() {
        values.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
        values.truncate(k);
    }
    if values.len() < RADIX_MIN_LEN {
        values.sort_unstable_by(|a, b| b.cmp(a));
    } else {
        packed.clear();
        packed.extend(values.iter().map(|v| *v as u64));
        radix_sort_by_bytes::<0, 4>(packed, spare);
        values.clear();
        values.extend(packed.iter().rev().map(|v| *v as u32));
    }
}

/// The lower median of `values` (the element at rank `(n - 1) / 2`), by
/// selection: nothing is sorted. `None` for an empty input. Selection is
/// linear at every length and measured 1.2–2.1 ns per value on the
/// reference host from 64 values to 1 000 000, against 4.8–12.4 ns for
/// sorting four bytes with the radix kernel, so there is no length at which
/// Median switches to the kernel.
pub(crate) fn lower_median(values: &mut [u32]) -> Option<u32> {
    if values.is_empty() {
        return None;
    }
    let mid = (values.len() - 1) / 2;
    Some(*values.select_nth_unstable(mid).1)
}

/// The `k` largest values in the window, in descending order. If the input
/// has fewer than `k` events, all values are returned.
pub fn top_k_by_value(events: &[Event], k: usize) -> Vec<u32> {
    let mut out = Vec::new();
    infallible(top_k_by_value_into(&[events], k, &mut out));
    out
}

/// The TopK kernel: append the `k` largest values of the events of `runs`
/// to `sink`, descending, as whatever scalar record the sink holds.
pub fn top_k_by_value_into<R: From<u32>, S: RecordSink<R>>(
    runs: &[&[Event]],
    k: usize,
    sink: &mut S,
) -> Result<(), S::Error> {
    with_scratch(|scratch| {
        largest_values_desc(runs.iter().copied(), k, scratch);
        scratch.values.iter().try_for_each(|v| sink.push(R::from(*v)))
    })
}

/// For each key in a key-sorted array, the `k` largest values in descending
/// order, as `(key, value)` records ordered by key.
pub fn top_k_per_key(sorted_events: &[Event], k: usize) -> Vec<KeyValue> {
    let runs = [sorted_events];
    let mut out = Vec::with_capacity(top_k_per_key_len(&runs, k));
    infallible(top_k_per_key_into(&runs, k, &mut out));
    out
}

/// Exactly how many records [`top_k_per_key_into`] appends: a walk over the
/// runs' keys only, so a caller can reserve the output before producing it.
pub fn top_k_per_key_len(runs: &[&[Event]], k: usize) -> usize {
    let mut len = 0usize;
    infallible(for_each_group(runs, |_, group, _| {
        len += group.len().min(k);
        Ok(())
    }));
    len
}

/// The TopKPerKey kernel: one walk over the keys of the key-sorted `runs`,
/// each key's `k` largest values (over every run) appended to `sink` as it
/// ends.
pub fn top_k_per_key_into<S: RecordSink<KeyValue>>(
    runs: &[&[Event]],
    k: usize,
    sink: &mut S,
) -> Result<(), S::Error> {
    for_each_group(runs, |key, group, scratch| {
        largest_values_desc(group.parts(), k, scratch);
        scratch.values.iter().try_for_each(|v| sink.push(KeyValue::new(key, *v as u64)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::sort_events_by_key;
    use proptest::prelude::*;

    fn evs(values: &[u32]) -> Vec<Event> {
        values.iter().map(|v| Event::new(0, *v, 0)).collect()
    }

    #[test]
    fn top_k_returns_largest_in_descending_order() {
        let e = evs(&[5, 1, 9, 3, 7]);
        assert_eq!(top_k_by_value(&e, 3), vec![9, 7, 5]);
        assert_eq!(top_k_by_value(&e, 10), vec![9, 7, 5, 3, 1]);
        assert_eq!(top_k_by_value(&e, 0), Vec::<u32>::new());
        assert_eq!(top_k_by_value(&[], 3), Vec::<u32>::new());
    }

    #[test]
    fn top_k_keeps_duplicates() {
        let e = evs(&[4, 4, 4, 1]);
        assert_eq!(top_k_by_value(&e, 2), vec![4, 4]);
    }

    #[test]
    fn top_k_per_key_groups_correctly() {
        let events = sort_events_by_key(&[
            Event::new(2, 10, 0),
            Event::new(1, 50, 0),
            Event::new(2, 30, 0),
            Event::new(1, 40, 0),
            Event::new(2, 20, 0),
        ]);
        let out = top_k_per_key(&events, 2);
        let kv = KeyValue::new;
        assert_eq!(out, vec![kv(1, 50), kv(1, 40), kv(2, 30), kv(2, 20)]);
        assert_eq!(top_k_per_key_len(&[&events], 2), 4);
        assert_eq!(top_k_per_key_len(&[&events], 5), 5);
    }

    #[test]
    fn top_k_per_key_zero_k_is_empty() {
        let events = evs(&[1, 2, 3]);
        assert!(top_k_per_key(&events, 0).is_empty());
    }

    proptest! {
        #[test]
        fn top_k_matches_sorted_reference(
            values in proptest::collection::vec(any::<u32>(), 0..300),
            k in 0usize..20,
        ) {
            let e = evs(&values);
            let got = top_k_by_value(&e, k);
            let mut expected = values.clone();
            expected.sort_unstable_by(|a, b| b.cmp(a));
            expected.truncate(k);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn per_key_top_k_matches_reference(
            pairs in proptest::collection::vec((0u32..20, any::<u32>()), 0..300),
            k in 1usize..5,
        ) {
            let events: Vec<Event> = pairs.iter().map(|(key, v)| Event::new(*key, *v, 0)).collect();
            let sorted = sort_events_by_key(&events);
            let got = top_k_per_key(&sorted, k);
            prop_assert_eq!(got.len(), top_k_per_key_len(&[&sorted], k));
            // Reference.
            let mut by_key: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
            for (key, v) in &pairs {
                by_key.entry(*key).or_default().push(*v);
            }
            let mut expected = Vec::new();
            for (key, mut values) in by_key {
                values.sort_unstable_by(|a, b| b.cmp(a));
                values.truncate(k);
                expected.extend(values.into_iter().map(|v| KeyValue::new(key, v as u64)));
            }
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn every_strategy_agrees_with_a_full_sort_ties_included(
            // A narrow value range forces ties at every cut.
            values in proptest::collection::vec(0u32..50, 0..400),
            k in prop_oneof![0usize..40, 60usize..500],
        ) {
            let got = top_k_by_value(&evs(&values), k);
            let mut expected = values.clone();
            expected.sort_unstable_by(|a, b| b.cmp(a));
            expected.truncate(k);
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn a_long_kept_prefix_is_ordered_by_the_radix_kernel() {
        // Deterministic pseudo-random values, more kept than RADIX_MIN_LEN.
        let values: Vec<u32> =
            (0..3 * RADIX_MIN_LEN as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        for k in [RADIX_MIN_LEN, RADIX_MIN_LEN + 1, values.len(), values.len() + 7, usize::MAX] {
            let mut expected = values.clone();
            expected.sort_unstable_by(|a, b| b.cmp(a));
            expected.truncate(k);
            assert_eq!(top_k_by_value(&evs(&values), k), expected, "k = {k}");
        }
    }

    #[test]
    fn lower_median_selects_without_sorting() {
        assert_eq!(lower_median(&mut []), None);
        assert_eq!(lower_median(&mut [9]), Some(9));
        assert_eq!(lower_median(&mut [4, 1, 3, 2]), Some(2));
        assert_eq!(lower_median(&mut [5, 5, 1, 5, 9]), Some(5));
    }
}
