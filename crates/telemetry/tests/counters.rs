//! What `counters!` generates for a declared set: a zeroed `new`, a
//! snapshot of every field, a saturating `delta_since`, and an export of
//! every field to the registry under its own name and the set's section.

use sbt_telemetry::{CounterSource, MetricsRegistry};
use std::sync::atomic::Ordering;
use std::sync::Arc;

sbt_telemetry::counters! {
    /// A declared set with a registry section.
    struct Meter in "meter" {
        /// First.
        hits,
        /// Second.
        misses,
    }
    /// A point-in-time copy of [`Meter`].
    struct MeterCounts;
}

#[test]
fn a_declared_set_snapshots_deltas_and_exports_every_field() {
    let meter = Arc::new(Meter::new());
    assert_eq!(meter.snapshot(), MeterCounts::default());
    meter.hits.fetch_add(5, Ordering::Relaxed);
    let before = meter.snapshot();
    meter.hits.fetch_add(2, Ordering::Relaxed);
    meter.misses.fetch_add(3, Ordering::Relaxed);
    let after = meter.snapshot();
    assert_eq!(after, MeterCounts { hits: 7, misses: 3 });
    assert_eq!(after.delta_since(&before), MeterCounts { hits: 2, misses: 3 });
    assert_eq!(before.delta_since(&after), MeterCounts::default(), "deltas saturate");

    assert_eq!(meter.section(), "meter");
    let registry = MetricsRegistry::new();
    registry.register_source(&meter);
    let snapshot = registry.snapshot();
    let counters: Vec<(&str, i64)> =
        snapshot.counters.iter().map(|c| (c.name.as_str(), c.value)).collect();
    assert_eq!(counters, [("meter.hits", 7), ("meter.misses", 3)]);
}
