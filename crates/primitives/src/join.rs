//! The Join trusted primitive: sort-merge equi-join of two key-sorted event
//! arrays within the same window (§5; the Join / TempJoin benchmark of §9.2).
//!
//! Both inputs must already be sorted by key (the Sort primitive runs first
//! in the temporal-join pipeline). The join then advances two cursors and
//! emits the cross product of each matching key run — the classic sort-merge
//! join, chosen over a hash join for the same TEE-friendliness reasons as
//! the grouped aggregates.
//!
//! A joined row is a `(key, value)` record whose value carries the two
//! sides' values, left in the high 32 bits and right in the low 32 — the
//! 12-byte wire record the pipelines egress. The output can be many times
//! the inputs (every left event of a key meets every right event of it), so
//! a producer that must not relocate sizes it first: [`join_len`] walks the
//! same key runs and adds up their products without emitting anything.

use sbt_types::{infallible, Event, KeyValue, RecordSink};

/// Visit the left and right runs of every key present on both sides of two
/// key-sorted arrays, in key order.
fn for_each_match<E>(
    left: &[Event],
    right: &[Event],
    mut f: impl FnMut(&[Event], &[Event]) -> Result<(), E>,
) -> Result<(), E> {
    debug_assert!(left.windows(2).all(|w| w[0].key <= w[1].key), "left input not key-sorted");
    debug_assert!(right.windows(2).all(|w| w[0].key <= w[1].key), "right input not key-sorted");
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        let lk = left[i].key;
        let rk = right[j].key;
        if lk < rk {
            i += 1;
        } else if lk > rk {
            j += 1;
        } else {
            let i_end = left[i..].iter().position(|e| e.key != lk).map_or(left.len(), |p| i + p);
            let j_end = right[j..].iter().position(|e| e.key != rk).map_or(right.len(), |p| j + p);
            f(&left[i..i_end], &right[j..j_end])?;
            i = i_end;
            j = j_end;
        }
    }
    Ok(())
}

/// One joined row.
#[inline]
fn joined(l: &Event, r: &Event) -> KeyValue {
    KeyValue::new(l.key, ((l.value as u64) << 32) | r.value as u64)
}

/// Exactly how many rows [`join_by_key_into`] appends: the sum over shared
/// keys of the product of the two run lengths (saturating — a product that
/// large cannot be produced anyway).
pub fn join_len(left: &[Event], right: &[Event]) -> usize {
    let mut len = 0usize;
    infallible(for_each_match(left, right, |l, r| {
        len = len.saturating_add(l.len().saturating_mul(r.len()));
        Ok(())
    }));
    len
}

/// Sort-merge equi-join of two key-sorted arrays: rows ordered by key, and
/// within a key left-major (each left event against every right event, in
/// input order).
pub fn join_by_key(left: &[Event], right: &[Event]) -> Vec<KeyValue> {
    let mut out = Vec::with_capacity(join_len(left, right));
    infallible(join_by_key_into(left, right, &mut out));
    out
}

/// The Join kernel: append the joined rows to `sink`.
pub fn join_by_key_into<S: RecordSink<KeyValue>>(
    left: &[Event],
    right: &[Event],
    sink: &mut S,
) -> Result<(), S::Error> {
    for_each_match(left, right, |l_run, r_run| {
        for l in l_run {
            for r in r_run {
                sink.push(joined(l, r))?;
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
        assert_eq!(join_len(&left, &right), 6);
    }

    #[test]
    fn disjoint_or_empty_inputs_produce_nothing() {
        let left = evs(&[(1, 1)]);
        let right = evs(&[(2, 2)]);
        assert!(join_by_key(&left, &right).is_empty());
        assert!(join_by_key(&[], &right).is_empty());
        assert!(join_by_key(&left, &[]).is_empty());
        assert_eq!(join_len(&left, &right), 0);
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
            prop_assert_eq!(join_len(&l, &r), expected.len());
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
            prop_assert_eq!(join_len(&events, &events) as u64, expected);
        }
    }
}
