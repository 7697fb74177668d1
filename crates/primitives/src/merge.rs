//! The Merge / MergeK trusted primitives (§5).
//!
//! Sorted runs produced by parallel Sort invocations can be combined by
//! merge passes: `Merge` joins two runs, `MergeK` any number in one pass.
//! A window's fire merges nothing: its keyed reduce reads the sorted runs
//! where they lie through the key-group walker ([`crate::grouped`]), in the
//! order `MergeK` copies them out in, and merging pairwise from the left
//! is the definition both are tested against.

use crate::grouped::walk_key_groups;
use crate::scratch::{with_scratch, Scratch};
use sbt_types::{infallible, Event, RecordSink};

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
/// left yields, without the intermediate arrays. It is the key-group walker
/// copying each run's stretch of each key with one `extend_from_slice`;
/// over a run that is not sorted it still appends every record exactly
/// once.
pub fn merge_runs_by_key_into<S: RecordSink<Event>>(
    runs: &[&[Event]],
    sink: &mut S,
) -> Result<(), S::Error> {
    with_scratch(|Scratch { spans, .. }| {
        walk_key_groups(runs, spans, |_, group| {
            group.parts().try_for_each(|part| sink.extend_from_slice(part))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The `MergeK` contract: merging `Merge`'s way, pairwise from the left.
    fn pairwise_from_the_left(runs: &[Vec<Event>]) -> Vec<Event> {
        runs.iter().fold(Vec::new(), |merged, run| merge_sorted_by_key(&merged, run))
    }

    fn merge_runs(runs: &[Vec<Event>]) -> Vec<Event> {
        let slices: Vec<&[Event]> = runs.iter().map(Vec::as_slice).collect();
        let mut merged = Vec::new();
        infallible(merge_runs_by_key_into(&slices, &mut merged));
        merged
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
        assert_eq!(merge_runs(&runs), pairwise_from_the_left(&runs));
        assert!(merge_runs(&[]).is_empty());
        assert_eq!(merge_runs(&runs[..1]), runs[0]);
    }

    #[test]
    fn unsorted_runs_are_merged_without_stalling() {
        let ev = |key| sbt_types::Event::new(key, 0, 0);
        let runs = vec![vec![ev(5), ev(9), ev(1)], vec![ev(6), ev(2)]];
        let mut keys: Vec<u32> = merge_runs(&runs).iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 5, 6, 9]);
    }

    proptest! {
        #[test]
        fn merge_runs_matches_pairwise_from_the_left(
            runs in proptest::collection::vec(
                proptest::collection::vec((0u32..8, any::<u32>()), 0..60), 0..41),
        ) {
            // Eight keys over up to 40 runs: nearly every key is in every run.
            let runs: Vec<Vec<Event>> = runs
                .into_iter()
                .enumerate()
                .map(|(r, run)| {
                    let mut run: Vec<Event> =
                        run.into_iter().map(|(key, value)| Event::new(key, value, r as u32)).collect();
                    run.sort_by_key(|e| e.key);
                    run
                })
                .collect();
            prop_assert_eq!(merge_runs(&runs), pairwise_from_the_left(&runs));
        }
    }
}
