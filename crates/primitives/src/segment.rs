//! The Segment trusted primitive: split a batch of events into per-window
//! sub-arrays according to a window specification (§2.2, Figure 2).
//!
//! Segment is the primitive behind the declarative `Windowing` operator and
//! sits on every pipeline's ingest path. It performs a single sequential
//! pass over the input, walking **runs**: maximal stretches of consecutive
//! events that fall in the same window(s). The windows of a run and the
//! span of event time over which they hold are computed once, at the run's
//! first event; every following event costs one range check, and the whole
//! run is appended to each of its windows' outputs in one go. Streams
//! arrive nearly in time order, so a batch is a handful of runs; a batch in
//! random order degrades to one run per event and is still correct. Events
//! that belong to several sliding windows are replicated into each.

use sbt_types::{infallible, Event, RecordSink, WindowId, WindowSpec};

/// Assign each event of `events` to its window(s) under `spec`.
///
/// Returns `(window, events)` pairs ordered by window id. Windows with no
/// events are not represented.
pub fn segment_by_window(events: &[Event], spec: &WindowSpec) -> Vec<(WindowId, Vec<Event>)> {
    let mut outputs = Vec::new();
    infallible(segment_into(events, spec, &mut outputs, |_, n| Ok(Vec::with_capacity(n))));
    outputs
}

/// The Segment kernel: append each event to the sink of every window it
/// belongs to, keeping input order within a window.
///
/// `outputs` holds the open windows ordered by id; a window seen for the
/// first time gets a sink from `open`, which is told the window and how
/// many records it can receive at most (the events from the run onwards),
/// so a sink reserved for that many never has to grow. On an error — a
/// sink's or `open`'s — the windows opened so far stay in `outputs` for
/// the caller to take back or drop.
pub fn segment_into<S: RecordSink<Event>>(
    events: &[Event],
    spec: &WindowSpec,
    outputs: &mut Vec<(WindowId, S)>,
    mut open: impl FnMut(WindowId, usize) -> Result<S, S::Error>,
) -> Result<(), S::Error> {
    let mut start = 0;
    while start < events.len() {
        let assignment = spec.assign(events[start].event_time());
        let len = events[start..]
            .iter()
            .position(|e| !assignment.covers(e.event_time()))
            .unwrap_or(events.len() - start);
        // A malformed spec can assign an instant no window at all; step
        // over the event rather than loop on it.
        let run = &events[start..start + len.max(1)];
        for window in assignment.windows() {
            let at = match outputs.binary_search_by_key(&window, |(id, _)| *id) {
                Ok(at) => at,
                Err(at) => {
                    outputs.insert(at, (window, open(window, events.len() - start)?));
                    at
                }
            };
            outputs[at].1.extend_from_slice(run)?;
        }
        start += run.len();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sbt_types::{Duration, MAX_WINDOWS_PER_EVENT};

    fn ev(ts_ms: u32) -> Event {
        Event::new(1, 0, ts_ms)
    }

    #[test]
    fn fixed_windows_partition_events() {
        let spec = WindowSpec::fixed(Duration::from_secs(1));
        let events = vec![ev(100), ev(900), ev(1000), ev(1500), ev(2100)];
        let segments = segment_by_window(&events, &spec);
        assert_eq!(segments.len(), 3);
        assert_eq!(segments[0].0, WindowId(0));
        assert_eq!(segments[0].1.len(), 2);
        assert_eq!(segments[1].0, WindowId(1));
        assert_eq!(segments[1].1.len(), 2);
        assert_eq!(segments[2].0, WindowId(2));
        assert_eq!(segments[2].1.len(), 1);
    }

    #[test]
    fn empty_input_produces_no_segments() {
        let spec = WindowSpec::fixed(Duration::from_secs(1));
        assert!(segment_by_window(&[], &spec).is_empty());
    }

    #[test]
    fn events_keep_their_payload_and_order_within_a_window() {
        let spec = WindowSpec::fixed(Duration::from_secs(1));
        let events = vec![Event::new(1, 10, 100), Event::new(2, 20, 200), Event::new(3, 30, 300)];
        let segments = segment_by_window(&events, &spec);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].1, events);
    }

    #[test]
    fn sliding_windows_replicate_events() {
        let spec = WindowSpec::sliding(Duration::from_secs(2), Duration::from_secs(1));
        let events = vec![ev(2_500)];
        let segments = segment_by_window(&events, &spec);
        let windows: Vec<WindowId> = segments.iter().map(|(w, _)| *w).collect();
        assert_eq!(windows, vec![WindowId(1), WindowId(2)]);
        assert!(segments.iter().all(|(_, evs)| evs.len() == 1));
    }

    #[test]
    fn global_window_keeps_everything_together() {
        let spec = WindowSpec::Global;
        let events = vec![ev(0), ev(1_000_000), ev(123)];
        let segments = segment_by_window(&events, &spec);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].1.len(), 3);
    }

    /// The per-event definition the run-walking kernel must agree with.
    fn segment_per_event(events: &[Event], spec: &WindowSpec) -> Vec<(WindowId, Vec<Event>)> {
        let mut out: std::collections::BTreeMap<WindowId, Vec<Event>> = Default::default();
        for e in events {
            for w in spec.assign(e.event_time()).windows() {
                out.entry(w).or_default().push(*e);
            }
        }
        out.into_iter().collect()
    }

    #[test]
    fn out_of_order_timestamps_land_in_the_right_windows_in_input_order() {
        let spec = WindowSpec::fixed(Duration::from_secs(1));
        let events: Vec<Event> = [2_100u32, 100, 1_100, 900, 2_000, 0, 1_999, 2_999]
            .iter()
            .enumerate()
            .map(|(i, ts)| Event::new(i as u32, 0, *ts))
            .collect();
        let segments = segment_by_window(&events, &spec);
        assert_eq!(segments, segment_per_event(&events, &spec));
        let keys = |w: usize| segments[w].1.iter().map(|e| e.key).collect::<Vec<_>>();
        assert_eq!((keys(0), keys(1), keys(2)), (vec![1, 3, 5], vec![2, 6], vec![0, 4, 7]));
    }

    #[test]
    fn a_batch_spanning_three_windows_is_three_runs() {
        let spec = WindowSpec::fixed(Duration::from_secs(1));
        let events: Vec<Event> = (0..3_000).map(|i| Event::new(i, i, i)).collect();
        let mut opened = Vec::new();
        let mut outputs: Vec<(WindowId, Vec<Event>)> = Vec::new();
        infallible(segment_into(&events, &spec, &mut outputs, |_, at_most| {
            opened.push(at_most);
            Ok(Vec::with_capacity(at_most))
        }));
        // Each window is told what is left of the batch when its run starts.
        assert_eq!(opened, vec![3_000, 2_000, 1_000]);
        assert_eq!(outputs, segment_per_event(&events, &spec));
        assert!(outputs.iter().all(|(_, evs)| evs.len() == 1_000));
    }

    #[test]
    fn sliding_windows_whose_slide_does_not_divide_their_size() {
        let spec = WindowSpec::sliding(Duration::from_millis(2_500), Duration::from_millis(1_000));
        let events: Vec<Event> = (0..6_000).step_by(7).map(|ts| Event::new(ts, ts, ts)).collect();
        let segments = segment_by_window(&events, &spec);
        assert_eq!(segments, segment_per_event(&events, &spec));
        // An event at 2.4 s is in windows 0, 1 and 2; one at 2.6 s only in 1, 2.
        let spec_windows =
            |ts| segment_by_window(&[ev(ts)], &spec).iter().map(|(w, _)| w.0).collect::<Vec<_>>();
        assert_eq!(spec_windows(2_400), vec![0, 1, 2]);
        assert_eq!(spec_windows(2_600), vec![1, 2]);
    }

    #[test]
    fn malformed_specs_terminate() {
        let events: Vec<Event> = (0..100).map(|i| Event::new(i, i, i)).collect();
        for spec in [
            WindowSpec::Fixed { size: Duration::from_micros(0) },
            WindowSpec::Sliding { size: Duration::from_micros(0), slide: Duration::from_micros(1) },
            WindowSpec::Sliding { size: Duration::from_micros(5), slide: Duration::from_micros(0) },
            WindowSpec::Sliding { size: Duration::from_micros(1), slide: Duration::from_micros(9) },
        ] {
            let _ = segment_by_window(&events, &spec);
        }
    }

    proptest! {
        #[test]
        fn run_walking_equals_the_per_event_definition(
            ts in proptest::collection::vec(0u32..5_000, 0..400),
            size_ms in 1u64..2_000,
            slide_ms in 1u64..2_000,
            in_order in any::<bool>(),
        ) {
            let mut ts = ts;
            if in_order {
                ts.sort_unstable();
            }
            let events: Vec<Event> =
                ts.iter().enumerate().map(|(i, t)| Event::new(i as u32, *t, *t)).collect();
            let size = size_ms.max(slide_ms).min(slide_ms * MAX_WINDOWS_PER_EVENT);
            let size = Duration::from_millis(size);
            for spec in [
                WindowSpec::fixed(size),
                WindowSpec::sliding(size, Duration::from_millis(slide_ms)),
                WindowSpec::Global,
            ] {
                prop_assert_eq!(segment_by_window(&events, &spec), segment_per_event(&events, &spec));
            }
        }

        #[test]
        fn fixed_segmentation_conserves_events_and_respects_bounds(
            ts in proptest::collection::vec(0u32..10_000, 0..500),
            window_ms in 1u64..2_000,
        ) {
            let spec = WindowSpec::fixed(Duration::from_millis(window_ms));
            let events: Vec<Event> =
                ts.iter().map(|t| Event::new(*t, *t, *t)).collect();
            let segments = segment_by_window(&events, &spec);
            // Conservation: total count matches.
            let total: usize = segments.iter().map(|(_, e)| e.len()).sum();
            prop_assert_eq!(total, events.len());
            // Every event sits inside its window's bounds.
            for (w, evs) in &segments {
                let (start, end) = spec.bounds(*w);
                for e in evs {
                    prop_assert!(e.event_time() >= start && e.event_time() < end);
                }
            }
            // Windows are in increasing order.
            prop_assert!(segments.windows(2).all(|p| p[0].0 < p[1].0));
        }
    }
}
