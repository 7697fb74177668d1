//! The Join trusted primitive: sort-merge equi-join of two key-sorted sides
//! within the same window (§5; the Join / TempJoin benchmark of §9.2).
//!
//! Each side is one or more runs, each already sorted by key (the Sort
//! primitive runs first in the temporal-join pipeline, once per window
//! array). The join walks the keys of all the runs at once with the
//! key-group walker and emits the cross product of each key's left and
//! right records — the classic sort-merge join over runs read where they
//! lie, chosen over a hash join for the same TEE-friendliness reasons as
//! the grouped aggregates.
//!
//! A joined row is a `(key, value)` record whose value carries the two
//! sides' values, left in the high 32 bits and right in the low 32 — the
//! 12-byte wire record the pipelines egress. The output can be many times
//! the inputs (every left event of a key meets every right event of it), so
//! a producer that must not relocate sizes it first: [`join_len`] walks the
//! same keys and adds up their products without emitting anything.

use crate::grouped::{for_each_group, KeyGroup};
use crate::scratch::Scratch;
use sbt_types::{infallible, Event, KeyValue, RecordSink};

/// Visit the left and right records of every key present on both sides,
/// in key order, with the thread's scratch: `runs[..left]` are the left
/// side's runs, the rest the right side's.
fn for_each_match<E>(
    runs: &[&[Event]],
    left: usize,
    mut f: impl FnMut(KeyGroup<'_, '_>, KeyGroup<'_, '_>, &mut Scratch) -> Result<(), E>,
) -> Result<(), E> {
    for_each_group(runs, |_, group, scratch| {
        let (l, r) = group.split_at(left.min(runs.len()));
        match (l.len(), r.len()) {
            (0, _) | (_, 0) => Ok(()),
            _ => f(l, r, scratch),
        }
    })
}

/// Exactly how many rows [`join_by_key_into`] appends: the sum over shared
/// keys of the product of the two sides' record counts (saturating — a
/// product that large cannot be produced anyway).
pub fn join_len(runs: &[&[Event]], left: usize) -> usize {
    let mut len = 0usize;
    infallible(for_each_match(runs, left, |l, r, _| {
        len = len.saturating_add(l.len().saturating_mul(r.len()));
        Ok(())
    }));
    len
}

/// Sort-merge equi-join of two key-sorted arrays: rows ordered by key, and
/// within a key left-major (each left event against every right event, in
/// input order).
pub fn join_by_key(left: &[Event], right: &[Event]) -> Vec<KeyValue> {
    let runs = [left, right];
    let mut out = Vec::with_capacity(join_len(&runs, 1));
    infallible(join_by_key_into(&runs, 1, &mut out));
    out
}

/// The Join kernel: append to `sink` the join of the left side's runs
/// (`runs[..left]`) with the right side's (`runs[left..]`). Rows come in
/// key order, and within a key left-major, each side's records run by run:
/// the order the join of the two sides, each merged first, gives.
pub fn join_by_key_into<S: RecordSink<KeyValue>>(
    runs: &[&[Event]],
    left: usize,
    sink: &mut S,
) -> Result<(), S::Error> {
    for_each_match(runs, left, |l_group, r_group, Scratch { values: right, .. }| {
        // The key's right values, gathered once, so that every left record
        // meets them as one slice.
        right.clear();
        for part in r_group.parts() {
            right.extend(part.iter().map(|e| e.value));
        }
        for part in l_group.parts() {
            for l in part {
                let high = (l.value as u64) << 32;
                for &r in right.iter() {
                    sink.push(KeyValue::new(l.key, high | r as u64))?;
                }
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::sort_events_by_key;
    use proptest::prelude::*;

    fn evs(pairs: &[(u32, u32)]) -> Vec<Event> {
        sort_events_by_key(&pairs.iter().map(|(k, v)| Event::new(*k, *v, 0)).collect::<Vec<_>>())
    }

    fn row(key: u32, left: u32, right: u32) -> KeyValue {
        KeyValue::new(key, ((left as u64) << 32) | right as u64)
    }

    #[test]
    fn joins_matching_keys_only() {
        let left = evs(&[(1, 10), (2, 20), (4, 40)]);
        let right = evs(&[(2, 200), (3, 300), (4, 400)]);
        assert_eq!(join_by_key(&left, &right), vec![row(2, 20, 200), row(4, 40, 400)]);
    }

    #[test]
    fn emits_the_cross_product_of_duplicate_keys_left_major() {
        let left = evs(&[(7, 1), (7, 2)]);
        let right = evs(&[(7, 10), (7, 20), (7, 30)]);
        let out = join_by_key(&left, &right);
        assert_eq!(
            out,
            vec![
                row(7, 1, 10),
                row(7, 1, 20),
                row(7, 1, 30),
                row(7, 2, 10),
                row(7, 2, 20),
                row(7, 2, 30)
            ]
        );
        assert_eq!(join_len(&[&left, &right], 1), 6);
    }

    #[test]
    fn disjoint_or_empty_inputs_produce_nothing() {
        let left = evs(&[(1, 1)]);
        let right = evs(&[(2, 2)]);
        assert!(join_by_key(&left, &right).is_empty());
        assert!(join_by_key(&[], &right).is_empty());
        assert!(join_by_key(&left, &[]).is_empty());
        assert_eq!(join_len(&[&left, &right], 1), 0);
    }

    proptest! {
        #[test]
        fn join_matches_nested_loop_reference(
            left in proptest::collection::vec((0u32..20, any::<u32>()), 0..100),
            right in proptest::collection::vec((0u32..20, any::<u32>()), 0..100),
        ) {
            let l = evs(&left);
            let r = evs(&right);
            let got = join_by_key(&l, &r);

            // Nested-loop reference over the same (sorted) inputs: left-major
            // over key-sorted sides is exactly the kernel's order.
            let mut expected = Vec::new();
            for le in &l {
                for re in &r {
                    if le.key == re.key {
                        expected.push(row(le.key, le.value, re.value));
                    }
                }
            }
            prop_assert_eq!(join_len(&[&l, &r], 1), expected.len());
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn join_output_size_is_product_of_run_lengths(
            keys in proptest::collection::vec(0u32..5, 0..50),
        ) {
            // Join an array with itself: output size is sum over keys of n_k^2.
            let events = evs(&keys.iter().map(|k| (*k, 0)).collect::<Vec<_>>());
            let out = join_by_key(&events, &events);
            let mut counts = std::collections::HashMap::new();
            for k in &keys {
                *counts.entry(*k).or_insert(0u64) += 1;
            }
            let expected: u64 = counts.values().map(|n| n * n).sum();
            prop_assert_eq!(out.len() as u64, expected);
            prop_assert_eq!(join_len(&[&events, &events], 1) as u64, expected);
        }
    }
}
