//! Selection primitives: FilterBand, FilterTime, Project and Sample (§5).
//!
//! These are single-pass scans that keep or transform a subset of the input
//! array. The Filter benchmark of §9.2 uses FilterBand with ~1% selectivity.

use sbt_types::{infallible, Event, EventTime, RecordSink};

/// Append the events satisfying `keep`, in input order, to `sink`.
fn filter_into<S: RecordSink<Event>>(
    events: &[Event],
    keep: impl Fn(&Event) -> bool,
    sink: &mut S,
) -> Result<(), S::Error> {
    events.iter().filter(|e| keep(e)).try_for_each(|e| sink.push(*e))
}

/// Keep events whose value lies in the inclusive band `[lo, hi]`
/// (the `FilterBand` primitive).
pub fn filter_band(events: &[Event], lo: u32, hi: u32) -> Vec<Event> {
    let mut out = Vec::new();
    infallible(filter_band_into(events, lo, hi, &mut out));
    out
}

/// The FilterBand kernel.
pub fn filter_band_into<S: RecordSink<Event>>(
    events: &[Event],
    lo: u32,
    hi: u32,
    sink: &mut S,
) -> Result<(), S::Error> {
    filter_into(events, |e| e.value >= lo && e.value <= hi, sink)
}

/// Keep events whose event time lies in `[start, end)` (the `FilterTime`
/// primitive).
pub fn filter_time(events: &[Event], start: EventTime, end: EventTime) -> Vec<Event> {
    let mut out = Vec::new();
    infallible(filter_time_into(events, start, end, &mut out));
    out
}

/// The FilterTime kernel.
pub fn filter_time_into<S: RecordSink<Event>>(
    events: &[Event],
    start: EventTime,
    end: EventTime,
    sink: &mut S,
) -> Result<(), S::Error> {
    filter_into(events, |e| (start..end).contains(&e.event_time()), sink)
}

/// Project the key column of the input (the `Project` primitive). In the
/// full engine this generalizes to selecting any fixed subset of columns;
/// with the 12-byte event layout the key column is the projection the
/// pipelines use.
pub fn project_keys(events: &[Event]) -> Vec<u32> {
    let mut out = Vec::with_capacity(events.len());
    infallible(project_keys_into(events, &mut out));
    out
}

/// The Project kernel: one scalar record per event.
pub fn project_keys_into<R: From<u32>, S: RecordSink<R>>(
    events: &[Event],
    sink: &mut S,
) -> Result<(), S::Error> {
    events.iter().try_for_each(|e| sink.push(R::from(e.key)))
}

/// Keep every `n`-th event starting with the first (the `Sample` primitive).
/// `n == 0` is treated as `1` (keep everything).
pub fn sample_every(events: &[Event], n: usize) -> Vec<Event> {
    let mut out = Vec::with_capacity(events.len().div_ceil(n.max(1)));
    infallible(sample_every_into(events, n, &mut out));
    out
}

/// The Sample kernel; appends `events.len().div_ceil(n.max(1))` events.
pub fn sample_every_into<S: RecordSink<Event>>(
    events: &[Event],
    n: usize,
    sink: &mut S,
) -> Result<(), S::Error> {
    events.iter().step_by(n.max(1)).try_for_each(|e| sink.push(*e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn evs(values: &[u32]) -> Vec<Event> {
        values.iter().enumerate().map(|(i, v)| Event::new(i as u32, *v, i as u32)).collect()
    }

    #[test]
    fn filter_band_is_inclusive() {
        let e = evs(&[1, 5, 10, 15]);
        let kept: Vec<u32> = filter_band(&e, 5, 10).iter().map(|e| e.value).collect();
        assert_eq!(kept, vec![5, 10]);
        assert!(filter_band(&e, 100, 200).is_empty());
        assert_eq!(filter_band(&e, 0, u32::MAX).len(), 4);
    }

    #[test]
    fn filter_time_half_open_interval() {
        let e = vec![Event::new(0, 0, 100), Event::new(1, 0, 200), Event::new(2, 0, 300)];
        let kept = filter_time(&e, EventTime::from_millis(100), EventTime::from_millis(300));
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].ts_ms, 100);
        assert_eq!(kept[1].ts_ms, 200);
    }

    #[test]
    fn project_and_sample() {
        let e = evs(&[10, 20, 30, 40, 50]);
        assert_eq!(project_keys(&e), vec![0, 1, 2, 3, 4]);
        let sampled: Vec<u32> = sample_every(&e, 2).iter().map(|e| e.value).collect();
        assert_eq!(sampled, vec![10, 30, 50]);
        assert_eq!(sample_every(&e, 0).len(), 5);
        assert_eq!(sample_every(&e, 10).len(), 1);
        assert!(sample_every(&[], 3).is_empty());
    }

    proptest! {
        #[test]
        fn filter_band_matches_reference(
            values in proptest::collection::vec(any::<u32>(), 0..300),
            lo in any::<u32>(),
            width in 0u32..1_000_000,
        ) {
            let hi = lo.saturating_add(width);
            let e = evs(&values);
            let got: Vec<u32> = filter_band(&e, lo, hi).iter().map(|e| e.value).collect();
            let expected: Vec<u32> =
                values.iter().copied().filter(|v| *v >= lo && *v <= hi).collect();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn filter_preserves_relative_order(values in proptest::collection::vec(0u32..100, 0..200)) {
            let e = evs(&values);
            let kept = filter_band(&e, 25, 75);
            // Keys are the original indices, so order preservation means keys increase.
            prop_assert!(kept.windows(2).all(|w| w[0].key < w[1].key));
        }

        #[test]
        fn sample_length_is_ceil_div(values in proptest::collection::vec(any::<u32>(), 0..200), n in 1usize..10) {
            let e = evs(&values);
            prop_assert_eq!(sample_every(&e, n).len(), values.len().div_ceil(n));
        }
    }
}
