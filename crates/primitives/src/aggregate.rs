//! Whole-array aggregation primitives: Sum, Count, SumCnt, Average, Median,
//! MinMax (§5, Table 2).
//!
//! These primitives reduce an event array (usually one window's worth of
//! events) to a handful of scalars with a single sequential pass — the shape
//! the WinSum benchmark exercises. Median copies the values into the thread's
//! scratch and selects the middle element (no sort), staying within the
//! array-based design.

use crate::scratch::with_scratch;
use crate::topk::lower_median;
use sbt_types::Event;

/// Sum of all event values (the `Sum` primitive). Returns 0 for an empty
/// input.
pub fn sum(events: &[Event]) -> u64 {
    events.iter().map(|e| e.value as u64).sum()
}

/// Number of events (the `Count` primitive).
pub fn count(events: &[Event]) -> u64 {
    events.len() as u64
}

/// Sum and count in one pass (the `SumCnt` primitive). The pair feeds
/// average computations without a second scan.
pub fn sum_count(events: &[Event]) -> (u64, u64) {
    (sum(events), count(events))
}

/// Mean of the event values, rounded down (the `Average` primitive).
/// Returns 0 for an empty input.
pub fn average(events: &[Event]) -> u64 {
    let (s, c) = sum_count(events);
    s.checked_div(c).unwrap_or(0)
}

/// Minimum and maximum of the event values (the `MinMax` primitive).
/// Returns `None` for an empty input.
pub fn min_max(events: &[Event]) -> Option<(u32, u32)> {
    events.iter().fold(None, |acc, e| match acc {
        None => Some((e.value, e.value)),
        Some((lo, hi)) => Some((lo.min(e.value), hi.max(e.value))),
    })
}

/// Median of the event values of `runs` taken together (the `Median`
/// primitive), defined as the lower middle element for even-sized inputs.
/// Returns `None` for an empty input.
pub fn median(runs: &[&[Event]]) -> Option<u32> {
    with_scratch(|scratch| {
        scratch.values.clear();
        for run in runs {
            scratch.values.extend(run.iter().map(|e| e.value));
        }
        lower_median(&mut scratch.values)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn evs(values: &[u32]) -> Vec<Event> {
        values.iter().enumerate().map(|(i, v)| Event::new(i as u32, *v, 0)).collect()
    }

    #[test]
    fn sum_count_average_on_small_inputs() {
        let e = evs(&[1, 2, 3, 4]);
        assert_eq!(sum(&e), 10);
        assert_eq!(count(&e), 4);
        assert_eq!(sum_count(&e), (10, 4));
        assert_eq!(average(&e), 2);
    }

    #[test]
    fn empty_inputs_are_well_defined() {
        assert_eq!(sum(&[]), 0);
        assert_eq!(count(&[]), 0);
        assert_eq!(average(&[]), 0);
        assert_eq!(min_max(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[&[]]), None);
    }

    #[test]
    fn sum_does_not_overflow_u32_accumulation() {
        let e = evs(&[u32::MAX, u32::MAX, u32::MAX]);
        assert_eq!(sum(&e), 3 * u32::MAX as u64);
    }

    #[test]
    fn min_max_and_median() {
        let e = evs(&[5, 1, 9, 3, 7]);
        assert_eq!(min_max(&e), Some((1, 9)));
        assert_eq!(median(&[&e]), Some(5));
        // Even length: lower middle.
        let e = evs(&[4, 1, 3, 2]);
        assert_eq!(median(&[&e]), Some(2));
        assert_eq!(median(&[&e[..1], &e[1..]]), Some(2));
    }

    proptest! {
        #[test]
        fn aggregates_match_naive_reference(values in proptest::collection::vec(any::<u32>(), 0..400)) {
            let e = evs(&values);
            let expected_sum: u64 = values.iter().map(|v| *v as u64).sum();
            prop_assert_eq!(sum(&e), expected_sum);
            prop_assert_eq!(count(&e), values.len() as u64);
            if !values.is_empty() {
                prop_assert_eq!(min_max(&e), Some((*values.iter().min().unwrap(), *values.iter().max().unwrap())));
                let mut sorted = values.clone();
                sorted.sort_unstable();
                prop_assert_eq!(median(&[&e]), Some(sorted[(sorted.len() - 1) / 2]));
                prop_assert_eq!(average(&e), expected_sum / values.len() as u64);
            }
        }
    }
}
