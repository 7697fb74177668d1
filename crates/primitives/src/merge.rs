//! The Merge / MergeK trusted primitives (§5).
//!
//! Sorted runs produced by parallel Sort invocations are combined by merge
//! passes: `Merge` joins two runs, `MergeK` joins all of a window's runs in
//! one pass over a tournament of run heads, copying each stretch of a run
//! that stays ahead of every other head with one `extend_from_slice`.

use crate::scratch::with_scratch;
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
/// left yields, without the intermediate arrays.
///
/// The run heads play a tournament: a winner tree (a min-heap whose every
/// node holds the least `(head key << 32) | run` word below it) of one leaf
/// per run, so ties between equal keys go to the earlier run. Each record
/// taken replays one leaf-to-root path, branch-free. When the same run wins
/// twice in a row, the stretch of it that stays ahead of the runner-up is
/// found by galloping and appended with one `extend_from_slice`. The tree
/// and the run cursors live in this thread's scratch: after the first call
/// with as many runs, the kernel allocates nothing of its own.
pub fn merge_runs_by_key_into<S: RecordSink<Event>>(
    runs: &[&[Event]],
    sink: &mut S,
) -> Result<(), S::Error> {
    const RUN: u64 = 0xFFFF_FFFF;
    const DONE: u64 = u64::MAX;
    let word = |key: u32, run: usize| (key as u64) << 32 | run as u64;
    let leaves = runs.len().next_power_of_two();
    with_scratch(|scratch| {
        let (tree, cursors) = (&mut scratch.packed, &mut scratch.spare);
        tree.clear();
        tree.resize(2 * leaves, DONE);
        for (r, run) in runs.iter().enumerate() {
            tree[leaves + r] = run.first().map_or(DONE, |head| word(head.key, r));
        }
        for i in (1..leaves).rev() {
            tree[i] = tree[2 * i].min(tree[2 * i + 1]);
        }
        cursors.clear();
        cursors.resize(runs.len(), 0);
        let mut previous = usize::MAX;
        while tree[1] != DONE {
            let r = (tree[1] & RUN) as usize;
            let rest = &runs[r][cursors[r] as usize..];
            let taken = if r == previous {
                let runner_up = (0..).map(|level| (leaves + r) >> level).take_while(|&i| i > 1);
                let next = runner_up.map(|i| tree[i ^ 1]).min().unwrap_or(DONE);
                let taken = stretch(rest, |e| word(e.key, r) < next);
                sink.extend_from_slice(&rest[..taken])?;
                taken
            } else {
                sink.push(rest[0])?;
                1
            };
            cursors[r] += taken as u64;
            let mut i = leaves + r;
            let mut winner = rest.get(taken).map_or(DONE, |head| word(head.key, r));
            tree[i] = winner;
            while i > 1 {
                winner = winner.min(tree[i ^ 1]);
                i >>= 1;
                tree[i] = winner;
            }
            previous = r;
        }
        Ok(())
    })
}

/// How many leading records of `run` are `ahead`, given that the first is:
/// galloping, so a stretch of n costs O(log n) comparisons. At least one,
/// so a run that is not sorted cannot stall the merge.
fn stretch(run: &[Event], ahead: impl Fn(&Event) -> bool) -> usize {
    let mut bound = 1;
    while bound < run.len() && ahead(&run[bound]) {
        bound *= 2;
    }
    let from = bound / 2 + 1;
    from + run[from..bound.min(run.len())].partition_point(ahead)
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
