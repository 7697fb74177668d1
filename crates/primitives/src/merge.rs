//! The Merge / MergeK trusted primitives (§5).
//!
//! Sorted runs produced by parallel Sort invocations are combined by merge
//! passes. Like the sort kernel, the merge loop is written with branch-light
//! index arithmetic over flat arrays; multi-way merges are performed by
//! iterative pairwise merging, which is also the microbenchmark used by
//! Figure 11 (128-way merge over growing buffers).

use sbt_types::{infallible, Event, RecordSink};

/// Merge two key-sorted `u64` runs into a new sorted vector.
pub fn merge_sorted_u64(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    merge_into(a, b, &mut out);
    out
}

#[inline]
fn merge_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let take_a = a[i] <= b[j];
        out[k] = if take_a { a[i] } else { b[j] };
        i += take_a as usize;
        j += !take_a as usize;
        k += 1;
    }
    if i < a.len() {
        out[k..].copy_from_slice(&a[i..]);
    } else if j < b.len() {
        out[k..].copy_from_slice(&b[j..]);
    }
}

/// Merge `runs` (each individually sorted) into a single sorted vector by
/// iterative pairwise merging. This is the `MergeK` primitive.
pub fn multiway_merge_u64(runs: &[Vec<u64>]) -> Vec<u64> {
    if runs.is_empty() {
        return Vec::new();
    }
    let mut current: Vec<Vec<u64>> = runs.to_vec();
    while current.len() > 1 {
        let mut next = Vec::with_capacity(current.len().div_ceil(2));
        let mut iter = current.chunks(2);
        for pair in &mut iter {
            match pair {
                [a, b] => next.push(merge_sorted_u64(a, b)),
                [a] => next.push(a.clone()),
                _ => unreachable!(),
            }
        }
        current = next;
    }
    current.pop().unwrap_or_default()
}

/// Merge two event runs that are each sorted by key, preserving the relative
/// order of equal keys (events from `a` come first). This is the `Merge`
/// primitive used by GroupBy to combine per-worker sorted partitions.
pub fn merge_sorted_by_key(a: &[Event], b: &[Event]) -> Vec<Event> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    infallible(merge_sorted_by_key_into(a, b, &mut out));
    out
}

/// The Merge kernel: append the stable merge of `a` and `b` to `sink`.
pub fn merge_sorted_by_key_into<S: RecordSink<Event>>(
    a: &[Event],
    b: &[Event],
    sink: &mut S,
) -> Result<(), S::Error> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].key <= b[j].key {
            sink.push(a[i])?;
            i += 1;
        } else {
            sink.push(b[j])?;
            j += 1;
        }
    }
    sink.extend_from_slice(&a[i..])?;
    sink.extend_from_slice(&b[j..])
}

/// The MergeK kernel over event runs: append the stable merge of all `runs`
/// (equal keys in run order) to `sink` — what merging them pairwise from the
/// left yields, without the intermediate arrays. The next record is found by
/// scanning the run heads, so this suits the handful of runs a window has,
/// not hundreds.
pub fn merge_runs_by_key_into<S: RecordSink<Event>>(
    runs: &[&[Event]],
    sink: &mut S,
) -> Result<(), S::Error> {
    let mut rest: Vec<&[Event]> = runs.to_vec();
    loop {
        let mut next: Option<(usize, u32)> = None;
        for (r, run) in rest.iter().enumerate() {
            if let Some(head) = run.first() {
                if next.is_none_or(|(_, key)| head.key < key) {
                    next = Some((r, head.key));
                }
            }
        }
        let Some((r, _)) = next else {
            return Ok(());
        };
        sink.push(rest[r][0])?;
        rest[r] = &rest[r][1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn merge_two_runs() {
        assert_eq!(merge_sorted_u64(&[1, 3, 5], &[2, 4, 6]), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(merge_sorted_u64(&[], &[1, 2]), vec![1, 2]);
        assert_eq!(merge_sorted_u64(&[1, 2], &[]), vec![1, 2]);
        assert_eq!(merge_sorted_u64(&[], &[]), Vec::<u64>::new());
    }

    #[test]
    fn merge_with_duplicates_is_stable_between_runs() {
        assert_eq!(merge_sorted_u64(&[1, 2, 2], &[2, 3]), vec![1, 2, 2, 2, 3]);
    }

    #[test]
    fn multiway_merge_handles_degenerate_inputs() {
        assert_eq!(multiway_merge_u64(&[]), Vec::<u64>::new());
        assert_eq!(multiway_merge_u64(&[vec![3, 1].tap_sort()]), vec![1, 3]);
        assert_eq!(
            multiway_merge_u64(&[vec![1, 4], vec![2, 5], vec![3, 6]]),
            vec![1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn merge_events_by_key_prefers_left_run_on_ties() {
        let a = vec![sbt_types::Event::new(1, 100, 0), sbt_types::Event::new(3, 101, 0)];
        let b = vec![sbt_types::Event::new(1, 200, 0), sbt_types::Event::new(2, 201, 0)];
        let merged = merge_sorted_by_key(&a, &b);
        let keys: Vec<u32> = merged.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 1, 2, 3]);
        // The tie on key 1 keeps a's event first.
        assert_eq!(merged[0].value, 100);
        assert_eq!(merged[1].value, 200);
    }

    #[test]
    fn merging_runs_equals_merging_pairwise_from_the_left() {
        let ev = sbt_types::Event::new;
        let runs: Vec<Vec<Event>> = vec![
            vec![ev(1, 10, 0), ev(3, 11, 0), ev(3, 12, 0)],
            vec![],
            vec![ev(1, 20, 0), ev(2, 21, 0), ev(3, 22, 0)],
            vec![ev(0, 30, 0), ev(3, 31, 0)],
        ];
        let mut pairwise = runs[0].clone();
        for run in &runs[1..] {
            pairwise = merge_sorted_by_key(&pairwise, run);
        }
        let slices: Vec<&[Event]> = runs.iter().map(Vec::as_slice).collect();
        let mut merged = Vec::new();
        infallible(merge_runs_by_key_into(&slices, &mut merged));
        assert_eq!(merged, pairwise);
        let mut none: Vec<Event> = Vec::new();
        infallible(merge_runs_by_key_into(&[], &mut none));
        assert!(none.is_empty());
    }

    /// Helper to sort a literal vec inline in tests.
    trait TapSort {
        fn tap_sort(self) -> Self;
    }
    impl TapSort for Vec<u64> {
        fn tap_sort(mut self) -> Self {
            self.sort_unstable();
            self
        }
    }

    proptest! {
        #[test]
        fn merge_matches_concat_then_sort(
            mut a in proptest::collection::vec(any::<u64>(), 0..300),
            mut b in proptest::collection::vec(any::<u64>(), 0..300),
        ) {
            a.sort_unstable();
            b.sort_unstable();
            let merged = merge_sorted_u64(&a, &b);
            let mut expected = [a.clone(), b.clone()].concat();
            expected.sort_unstable();
            prop_assert_eq!(merged, expected);
        }

        #[test]
        fn multiway_merge_matches_flatten_then_sort(
            runs in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 0..100), 0..16),
        ) {
            let sorted_runs: Vec<Vec<u64>> = runs
                .iter()
                .map(|r| { let mut r = r.clone(); r.sort_unstable(); r })
                .collect();
            let merged = multiway_merge_u64(&sorted_runs);
            let mut expected: Vec<u64> = runs.concat();
            expected.sort_unstable();
            prop_assert_eq!(merged, expected);
        }
    }
}
