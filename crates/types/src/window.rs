//! Event-time windows.
//!
//! Operators in the stream model execute over event-time scopes called
//! windows (§2.2). StreamBox-TZ's evaluation uses fixed (tumbling) windows —
//! 1 second of event time containing roughly one million events — but the
//! window specification here also supports sliding windows so that the
//! operator library matches the coverage claimed in Table 2.

use crate::time::{Duration, EventTime};
use serde::{Deserialize, Serialize};

/// The most windows one event may belong to. A sliding window's fan-out is
/// `⌈size / slide⌉`; a specification above this is refused before any
/// window opens, since every event would otherwise be copied into that many
/// windows inside the TEE.
pub const MAX_WINDOWS_PER_EVENT: u64 = 1_024;

/// A monotonically increasing window sequence number.
///
/// Audit records (§7) identify windows by this number; the verifier checks
/// that uArrays are assigned to the windows implied by their event times.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct WindowId(pub u64);

impl WindowId {
    /// The first window of a stream.
    pub const FIRST: WindowId = WindowId(0);

    /// The next window in sequence.
    pub fn next(self) -> WindowId {
        WindowId(self.0 + 1)
    }
}

/// Specification of how event time is partitioned into windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowSpec {
    /// Fixed (tumbling) windows of the given event-time size.
    Fixed {
        /// Window length in event time.
        size: Duration,
    },
    /// Sliding windows of `size`, advancing every `slide` (`slide <= size`).
    Sliding {
        /// Window length in event time.
        size: Duration,
        /// Slide interval in event time.
        slide: Duration,
    },
    /// A single unbounded window covering the entire stream (used by a few
    /// primitives' tests and by global aggregations).
    Global,
}

/// The windows one instant of event time belongs to (see
/// [`WindowSpec::assign`]): the ids `first..=last`, valid for every event
/// time in `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowAssignment {
    first: u64,
    last: u64,
    from: u64,
    until: u64,
}

impl WindowAssignment {
    /// The assigned windows, in increasing id order.
    pub fn windows(&self) -> impl Iterator<Item = WindowId> {
        (self.first..=self.last).map(WindowId)
    }

    /// Whether an event at `t` gets exactly this assignment.
    #[inline]
    pub fn covers(&self, t: EventTime) -> bool {
        (self.from..self.until).contains(&t.as_micros())
    }
}

impl WindowSpec {
    /// Convenience constructor for fixed windows.
    pub fn fixed(size: Duration) -> Self {
        WindowSpec::Fixed { size }
    }

    /// Convenience constructor for sliding windows. Panics if `slide` is zero
    /// or larger than `size` — that would not be a valid sliding window — or
    /// if an event would belong to more than [`MAX_WINDOWS_PER_EVENT`].
    pub fn sliding(size: Duration, slide: Duration) -> Self {
        assert!(slide.raw() > 0, "slide must be positive");
        assert!(slide <= size, "slide must not exceed window size");
        assert!(
            size.raw().div_ceil(slide.raw()) <= MAX_WINDOWS_PER_EVENT,
            "an event would belong to more than MAX_WINDOWS_PER_EVENT windows"
        );
        WindowSpec::Sliding { size, slide }
    }

    /// The id of the window that *starts* the assignment for an event at `t`.
    ///
    /// For fixed windows this is the unique containing window; for sliding
    /// windows it is the most recent window that starts at or before `t`
    /// (all containing windows are `assign(t).windows()`).
    pub fn primary_window(&self, t: EventTime) -> WindowId {
        match *self {
            WindowSpec::Fixed { size } => WindowId(t.as_micros() / size.raw().max(1)),
            WindowSpec::Sliding { slide, .. } => WindowId(t.as_micros() / slide.raw().max(1)),
            WindowSpec::Global => WindowId(0),
        }
    }

    /// Whether the specification describes real windows: positive `size`,
    /// and for sliding windows `0 < slide <= size` with at most
    /// [`MAX_WINDOWS_PER_EVENT`] windows per event. The fields are public
    /// and specifications arrive from the untrusted control plane, so the
    /// data plane checks this before windowing anything.
    pub fn is_well_formed(&self) -> bool {
        match *self {
            WindowSpec::Fixed { size } => size.raw() > 0,
            WindowSpec::Sliding { size, slide } => {
                slide.raw() > 0
                    && slide <= size
                    && size.raw().div_ceil(slide.raw()) <= MAX_WINDOWS_PER_EVENT
            }
            WindowSpec::Global => true,
        }
    }

    /// The windows an event at `t` belongs to, together with the span of
    /// event time around `t` over which that set stays the same — so a
    /// caller walking a batch computes it once per run of events, not once
    /// per event. Allocates nothing. A malformed specification (see
    /// [`is_well_formed`](WindowSpec::is_well_formed)) never panics here; it
    /// yields some, possibly empty, assignment.
    pub fn assign(&self, t: EventTime) -> WindowAssignment {
        let t = t.as_micros();
        match *self {
            WindowSpec::Fixed { size } => {
                let size = size.raw().max(1);
                let w = t / size;
                let from = w * size;
                WindowAssignment { first: w, last: w, from, until: from.saturating_add(size) }
            }
            WindowSpec::Sliding { size, slide } => {
                let (size, slide) = (size.raw(), slide.raw().max(1));
                // Window w covers [w*slide, w*slide + size): the last one
                // containing t starts at or before t, the first one is the
                // earliest that has not yet ended at t.
                let last = t / slide;
                let first = if t < size { 0 } else { ((t - size) / slide).saturating_add(1) };
                // The set changes when the next window starts or the first
                // one ends; it last changed when `last` started or the
                // window before `first` ended.
                let last_started = last * slide;
                let previous_ended = if first == 0 { 0 } else { (first - 1) * slide + size };
                let next_starts = last_started.saturating_add(slide);
                let first_ends = first.saturating_mul(slide).saturating_add(size);
                WindowAssignment {
                    first,
                    last,
                    from: last_started.max(previous_ended),
                    until: next_starts.min(first_ends),
                }
            }
            WindowSpec::Global => WindowAssignment { first: 0, last: 0, from: 0, until: u64::MAX },
        }
    }

    /// The event-time interval `[start, end)` covered by window `id`.
    pub fn bounds(&self, id: WindowId) -> (EventTime, EventTime) {
        match *self {
            WindowSpec::Fixed { size } => {
                let start = id.0 * size.raw();
                (EventTime(start), EventTime(start + size.raw()))
            }
            WindowSpec::Sliding { size, slide } => {
                let start = id.0 * slide.raw();
                (EventTime(start), EventTime(start + size.raw()))
            }
            WindowSpec::Global => (EventTime::ZERO, EventTime::MAX),
        }
    }

    /// The latest window id that is *complete* once a watermark with event
    /// time `wm` has been observed, or `None` if no window is complete yet.
    ///
    /// A window `[start, end)` is complete when `wm >= end`.
    pub fn last_complete(&self, wm: EventTime) -> Option<WindowId> {
        match *self {
            WindowSpec::Fixed { size } => {
                let sz = size.raw().max(1);
                if wm.as_micros() >= sz {
                    // Window w spans [w*size, (w+1)*size); it is complete once
                    // wm >= (w+1)*size, so the last complete id is wm/size - 1.
                    Some(WindowId(wm.as_micros() / sz - 1))
                } else {
                    None
                }
            }
            WindowSpec::Sliding { size, slide } => {
                let sl = slide.raw().max(1);
                if wm.as_micros() >= size.raw() {
                    Some(WindowId((wm.as_micros() - size.raw()) / sl))
                } else {
                    None
                }
            }
            WindowSpec::Global => None,
        }
    }
}

/// A `(window, key)` pair — the unit of grouped state in windowed GroupBy
/// pipelines (Figure 2(b): `<window, house>`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct WindowedKey {
    /// The window this key belongs to.
    pub window: WindowId,
    /// The grouping key.
    pub key: u32,
}

impl WindowedKey {
    /// Construct a windowed key.
    pub fn new(window: WindowId, key: u32) -> Self {
        WindowedKey { window, key }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows_at(spec: &WindowSpec, ms: u64) -> Vec<WindowId> {
        spec.assign(EventTime::from_millis(ms)).windows().collect()
    }

    #[test]
    fn fixed_window_assignment() {
        let spec = WindowSpec::fixed(Duration::from_secs(1));
        assert_eq!(windows_at(&spec, 0), vec![WindowId(0)]);
        assert_eq!(windows_at(&spec, 999), vec![WindowId(0)]);
        assert_eq!(windows_at(&spec, 1000), vec![WindowId(1)]);
        assert_eq!(windows_at(&spec, 2500), vec![WindowId(2)]);
    }

    #[test]
    fn fixed_window_bounds() {
        let spec = WindowSpec::fixed(Duration::from_secs(1));
        let (s, e) = spec.bounds(WindowId(3));
        assert_eq!(s, EventTime::from_secs(3));
        assert_eq!(e, EventTime::from_secs(4));
    }

    #[test]
    fn fixed_window_completion_by_watermark() {
        let spec = WindowSpec::fixed(Duration::from_secs(1));
        assert_eq!(spec.last_complete(EventTime::from_millis(500)), None);
        assert_eq!(spec.last_complete(EventTime::from_millis(1000)), Some(WindowId(0)));
        assert_eq!(spec.last_complete(EventTime::from_millis(1999)), Some(WindowId(0)));
        assert_eq!(spec.last_complete(EventTime::from_millis(2000)), Some(WindowId(1)));
        assert_eq!(spec.last_complete(EventTime::from_millis(3500)), Some(WindowId(2)));
    }

    #[test]
    fn sliding_window_assignment_covers_all_containing_windows() {
        // size 2s, slide 1s: event at t=2.5s belongs to windows starting at
        // 1s and 2s, i.e. ids 1 and 2.
        let spec = WindowSpec::sliding(Duration::from_secs(2), Duration::from_secs(1));
        assert_eq!(windows_at(&spec, 2_500), vec![WindowId(1), WindowId(2)]);
        // Event in the very first second belongs only to window 0.
        assert_eq!(windows_at(&spec, 500), vec![WindowId(0)]);
    }

    #[test]
    fn sliding_window_completion() {
        let spec = WindowSpec::sliding(Duration::from_secs(2), Duration::from_secs(1));
        assert_eq!(spec.last_complete(EventTime::from_secs(1)), None);
        assert_eq!(spec.last_complete(EventTime::from_secs(2)), Some(WindowId(0)));
        assert_eq!(spec.last_complete(EventTime::from_secs(5)), Some(WindowId(3)));
    }

    #[test]
    #[should_panic(expected = "slide must not exceed")]
    fn sliding_window_rejects_slide_larger_than_size() {
        let _ = WindowSpec::sliding(Duration::from_secs(1), Duration::from_secs(2));
    }

    #[test]
    fn a_sliding_window_fans_out_to_at_most_the_cap() {
        let us = Duration::from_micros;
        let cap = MAX_WINDOWS_PER_EVENT;
        assert!(WindowSpec::Sliding { size: us(cap), slide: us(1) }.is_well_formed());
        assert!(WindowSpec::Sliding { size: us(cap * 10), slide: us(10) }.is_well_formed());
        // One more window per event than the cap, exactly or by rounding up.
        assert!(!WindowSpec::Sliding { size: us(cap + 1), slide: us(1) }.is_well_formed());
        assert!(!WindowSpec::Sliding { size: us(cap * 10 + 1), slide: us(10) }.is_well_formed());
        // A second of window sliding by a microsecond: 10⁶ windows per event.
        let hostile = WindowSpec::Sliding { size: Duration::from_secs(1), slide: us(1) };
        assert!(!hostile.is_well_formed());
        assert_eq!(windows_at(&WindowSpec::sliding(us(cap), us(1)), 5_000).len(), cap as usize);
    }

    #[test]
    #[should_panic(expected = "MAX_WINDOWS_PER_EVENT")]
    fn sliding_window_rejects_a_fan_out_above_the_cap() {
        let _ = WindowSpec::sliding(Duration::from_secs(1), Duration::from_micros(1));
    }

    #[test]
    fn global_window() {
        let spec = WindowSpec::Global;
        assert_eq!(windows_at(&spec, 100_000), vec![WindowId(0)]);
        assert_eq!(spec.last_complete(EventTime::from_secs(100)), None);
    }

    /// The per-instant definition `assign` must agree with: window `w` of a
    /// sliding spec covers `[w*slide, w*slide + size)`.
    fn windows_by_definition(size: u64, slide: u64, t: u64) -> Vec<WindowId> {
        (0..=t / slide).filter(|w| t >= w * slide && t < w * slide + size).map(WindowId).collect()
    }

    #[test]
    fn sliding_assignment_matches_the_definition_when_slide_does_not_divide_size() {
        for (size, slide) in [(2_500u64, 1_000u64), (1_000, 300), (7, 7), (10, 1), (3, 2)] {
            let spec = WindowSpec::Sliding {
                size: Duration::from_micros(size),
                slide: Duration::from_micros(slide),
            };
            for t in 0..4 * size {
                let a = spec.assign(EventTime::from_micros(t));
                let got: Vec<WindowId> = a.windows().collect();
                assert_eq!(
                    got,
                    windows_by_definition(size, slide, t),
                    "size {size} slide {slide} t {t}"
                );
                assert!(a.covers(EventTime::from_micros(t)));
            }
        }
    }

    #[test]
    fn an_assignment_covers_exactly_the_span_over_which_it_holds() {
        let specs = [
            WindowSpec::fixed(Duration::from_micros(10)),
            WindowSpec::sliding(Duration::from_micros(25), Duration::from_micros(10)),
            WindowSpec::sliding(Duration::from_micros(9), Duration::from_micros(3)),
        ];
        for spec in specs {
            for t in 0..100u64 {
                let a = spec.assign(EventTime::from_micros(t));
                for other in 0..100u64 {
                    let same = spec.assign(EventTime::from_micros(other)).windows().eq(a.windows());
                    assert_eq!(
                        a.covers(EventTime::from_micros(other)),
                        same,
                        "{spec:?} {t} {other}"
                    );
                }
            }
        }
    }

    #[test]
    fn malformed_specs_are_flagged_and_never_panic() {
        let zero = Duration::from_micros(0);
        let one = Duration::from_micros(1);
        let hostile = [
            WindowSpec::Fixed { size: zero },
            WindowSpec::Sliding { size: zero, slide: one },
            WindowSpec::Sliding { size: one, slide: zero },
            WindowSpec::Sliding { size: one, slide: Duration::from_micros(2) },
            WindowSpec::Sliding { size: Duration::from_micros(u64::MAX), slide: zero },
        ];
        for spec in hostile {
            assert!(!spec.is_well_formed(), "{spec:?}");
            for t in [0, 1, 1_000_000, u64::MAX] {
                let _ = spec.assign(EventTime::from_micros(t)).windows().take(3).count();
            }
        }
        assert!(WindowSpec::fixed(one).is_well_formed());
        assert!(WindowSpec::sliding(one, one).is_well_formed());
        assert!(WindowSpec::Global.is_well_formed());
        // Well-formed but enormous: the bounds saturate instead of wrapping.
        let huge = WindowSpec::fixed(Duration::from_micros(u64::MAX));
        assert_eq!(windows_at(&huge, 5), vec![WindowId(0)]);
    }

    #[test]
    fn windowed_key_ordering_groups_by_window_first() {
        let a = WindowedKey::new(WindowId(0), 99);
        let b = WindowedKey::new(WindowId(1), 1);
        assert!(a < b);
    }
}
