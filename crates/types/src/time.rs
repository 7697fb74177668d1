//! Time domains used by the stream model.
//!
//! The paper distinguishes *event time* (timestamps carried by sensor events,
//! defined by event occurrence) from *processing time* (when the edge engine
//! handles the data). Output delay — the freshness metric of §2.2 — is
//! measured in processing time between watermark ingress and result egress.

use serde::{Deserialize, Serialize};

/// Event time in microseconds since the start of the stream.
///
/// Sensor events carry event-time timestamps; windows are defined over event
/// time. Using a plain newtype (rather than `std::time`) keeps the type
/// trivially copyable across the simulated TEE boundary.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct EventTime(pub u64);

impl EventTime {
    /// Zero event time (stream origin).
    pub const ZERO: EventTime = EventTime(0);
    /// The maximum representable event time.
    pub const MAX: EventTime = EventTime(u64::MAX);

    /// Build an event time from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        EventTime(secs * 1_000_000)
    }

    /// Build an event time from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        EventTime(ms * 1_000)
    }

    /// Build an event time from microseconds.
    pub fn from_micros(us: u64) -> Self {
        EventTime(us)
    }

    /// Raw microsecond value.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Duration) -> EventTime {
        EventTime(self.0.saturating_add(d.0))
    }

    /// Saturating subtraction of another event time, as a duration.
    pub fn saturating_sub(self, other: EventTime) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

/// Processing-time instant in nanoseconds, as reported by the platform clock
/// (real or simulated).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ProcessingTime(pub u64);

impl ProcessingTime {
    /// Zero processing time.
    pub const ZERO: ProcessingTime = ProcessingTime(0);

    /// Build from microseconds.
    pub fn from_micros(us: u64) -> Self {
        ProcessingTime(us * 1_000)
    }

    /// Build from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        ProcessingTime(ms * 1_000_000)
    }

    /// Raw nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Elapsed duration since `earlier` (saturating at zero).
    pub fn since(self, earlier: ProcessingTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

/// A span of time, used both for event-time window sizes (microseconds) and
/// processing-time delays (nanoseconds, by convention of the caller).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// From whole seconds (microsecond domain).
    pub fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000)
    }

    /// From milliseconds (microsecond domain).
    pub fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// From microseconds.
    pub fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Raw value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// As whole milliseconds in the microsecond domain.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// As whole seconds in the microsecond domain.
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Checked division, returning `None` for a zero divisor.
    pub fn checked_div(self, by: u64) -> Option<Duration> {
        self.0.checked_div(by).map(Duration)
    }
}

impl core::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl core::ops::Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_time_conversions_round_trip() {
        let t = EventTime::from_secs(3);
        assert_eq!(t.as_micros(), 3_000_000);
        assert_eq!(t.as_millis(), 3_000);
        assert_eq!(t.as_secs(), 3);
        assert_eq!(EventTime::from_millis(1_500).as_micros(), 1_500_000);
        assert_eq!(EventTime::from_micros(42).as_micros(), 42);
    }

    #[test]
    fn event_time_arithmetic_saturates() {
        let t = EventTime::MAX;
        assert_eq!(t.saturating_add(Duration::from_secs(1)), EventTime::MAX);
        assert_eq!(EventTime::ZERO.saturating_sub(EventTime::from_secs(1)), Duration::ZERO);
        assert_eq!(
            EventTime::from_secs(5).saturating_sub(EventTime::from_secs(2)),
            Duration::from_secs(3)
        );
    }

    #[test]
    fn processing_time_since() {
        let a = ProcessingTime::from_millis(10);
        let b = ProcessingTime::from_millis(25);
        assert_eq!(b.since(a), Duration(15_000_000));
        assert_eq!(a.since(b), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::from_millis(2) + Duration::from_millis(3);
        assert_eq!(d.as_millis(), 5);
        assert_eq!((d - Duration::from_millis(1)).as_millis(), 4);
        assert_eq!((Duration::from_millis(1) - Duration::from_millis(2)), Duration::ZERO);
        assert_eq!(Duration::from_secs(10).checked_div(2), Some(Duration::from_secs(5)));
        assert_eq!(Duration::from_secs(10).checked_div(0), None);
    }

    #[test]
    fn ordering_is_by_raw_value() {
        assert!(EventTime::from_secs(1) < EventTime::from_secs(2));
        assert!(ProcessingTime::from_millis(1) < ProcessingTime::from_millis(2));
    }
}
