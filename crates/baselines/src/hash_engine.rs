//! A windowed, hash-based grouping core.
//!
//! This is the data-structure design StreamBox-TZ deliberately avoids inside
//! the TEE (§4.1, §6): every event is routed through a hash map keyed by
//! `(window, key)`, states live as many small heap entries, and memory is
//! managed by the general-purpose allocator. It backs the commodity-engine
//! baselines of Figure 8 and the memory comparison of §9.2.

use sbt_types::{Event, WindowId, WindowSpec};
use std::collections::HashMap;

/// Per-key aggregate state kept by the hash engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HashAgg {
    /// Sum of values.
    pub sum: u64,
    /// Number of events.
    pub count: u64,
    /// Largest value seen.
    pub max: u32,
}

/// A windowed hash-grouping engine.
pub struct HashWindowEngine {
    spec: WindowSpec,
    /// (window, key) -> aggregate. Boxing each aggregate mimics the per-key
    /// object churn of managed-runtime engines.
    state: HashMap<(WindowId, u32), Box<HashAgg>>,
}

impl HashWindowEngine {
    /// Create an engine with the given windowing policy.
    pub fn new(spec: WindowSpec) -> Self {
        HashWindowEngine { spec, state: HashMap::new() }
    }

    /// Process one event.
    pub fn process(&mut self, event: &Event) {
        for window in self.spec.assign(event.event_time()).windows() {
            let agg = self.state.entry((window, event.key)).or_default();
            agg.sum += event.value as u64;
            agg.count += 1;
            agg.max = agg.max.max(event.value);
        }
    }

    /// Process a whole batch.
    pub fn process_batch(&mut self, events: &[Event]) {
        for e in events {
            self.process(e);
        }
    }

    /// Number of live (window, key) states.
    pub fn live_states(&self) -> usize {
        self.state.len()
    }

    /// Approximate heap bytes held by the state (entries + boxed aggregates +
    /// hash-table overhead), for the memory comparison of §9.2.
    pub fn approx_memory_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(WindowId, u32)>()
            + std::mem::size_of::<Box<HashAgg>>()
            + std::mem::size_of::<HashAgg>();
        // Hash tables keep extra capacity; 1.6x is a conservative factor for
        // std::collections::HashMap load factors plus per-allocation overhead.
        (self.state.capacity().max(self.state.len()) as f64 * entry as f64 * 1.6) as usize
    }

    /// Drain and return the aggregates of a completed window, sorted by key.
    pub fn complete_window(&mut self, window: WindowId) -> Vec<(u32, HashAgg)> {
        let mut out: Vec<(u32, HashAgg)> = self
            .state
            .iter()
            .filter(|((w, _), _)| *w == window)
            .map(|((_, k), v)| (*k, (**v).clone()))
            .collect();
        self.state.retain(|(w, _), _| *w != window);
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Total sum over a window (the WinSum result), draining its state.
    pub fn window_sum(&mut self, window: WindowId) -> u64 {
        self.complete_window(window).iter().map(|(_, a)| a.sum).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbt_types::Duration;

    fn engine() -> HashWindowEngine {
        HashWindowEngine::new(WindowSpec::fixed(Duration::from_secs(1)))
    }

    #[test]
    fn aggregates_per_window_and_key() {
        let mut e = engine();
        e.process_batch(&[
            Event::new(1, 10, 100),
            Event::new(1, 20, 200),
            Event::new(2, 5, 300),
            Event::new(1, 7, 1_100), // next window
        ]);
        assert_eq!(e.live_states(), 3);
        let w0 = e.complete_window(WindowId(0));
        assert_eq!(w0.len(), 2);
        assert_eq!(w0[0].0, 1);
        assert_eq!(w0[0].1.sum, 30);
        assert_eq!(w0[0].1.count, 2);
        assert_eq!(w0[0].1.max, 20);
        assert_eq!(w0[1].1.sum, 5);
        // Window 0 state was drained; window 1 remains.
        assert_eq!(e.live_states(), 1);
        assert_eq!(e.window_sum(WindowId(1)), 7);
        assert_eq!(e.live_states(), 0);
    }

    #[test]
    fn window_sum_matches_naive_total() {
        let mut e = engine();
        let events: Vec<Event> = (0..10_000).map(|i| Event::new(i % 37, i, i % 1000)).collect();
        e.process_batch(&events);
        let expected: u64 = events.iter().map(|ev| ev.value as u64).sum();
        assert_eq!(e.window_sum(WindowId(0)), expected);
    }

    #[test]
    fn memory_estimate_grows_with_state() {
        let mut e = engine();
        let before = e.approx_memory_bytes();
        for i in 0..10_000u32 {
            e.process(&Event::new(i, 1, 0)); // all distinct keys
        }
        assert!(e.approx_memory_bytes() > before);
        assert!(e.approx_memory_bytes() > 10_000 * std::mem::size_of::<HashAgg>());
    }
}
