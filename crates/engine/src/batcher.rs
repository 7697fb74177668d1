//! Adaptive ingest batching against the measured TEE boundary cost.
//!
//! Every ingested batch pays a fixed boundary toll that is independent of
//! its size: the one world switch whose command list ingests the batch,
//! windows it and retires the raw array (plus one more switch and a
//! boundary copy when ingress goes via the untrusted OS). With a fixed
//! batch size that toll is either amortized by accident (large batches,
//! high latency) or dominates throughput (small batches, low latency).
//!
//! [`AdaptiveBatcher`] sizes batches from the *measured* cost model
//! instead: it grows the batch until the fixed per-batch boundary cost is
//! a small fraction of the batch's useful per-event work, then caps the
//! batch so that its processing time still fits comfortably inside the
//! pipeline's output-delay target. On the HiKey model (40 µs per switch,
//! one switch per batch) this lands at 40 K-event batches, the order of
//! the paper's 100 K; on a model with sub-µs switches (a workstation's)
//! it chooses far smaller batches and keeps latency low at the same
//! amortization level.

use crate::metrics::CycleCost;
use parking_lot::Mutex;
use sbt_telemetry::{MetricsRegistry, TelemetrySnapshot};
use sbt_tz::CostModel;
use std::sync::Arc;
use std::time::Instant;

/// TEE entries one ingested batch costs on the trusted-IO path: one
/// command list carries the ingress, the windowing (segment) invocation and
/// the retire of the raw ingress array.
pub const SWITCHES_PER_BATCH: u64 = 1;

/// Sizes ingest batches so the per-batch world-switch toll is amortized
/// without blowing the pipeline's latency budget.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveBatcher {
    /// Fixed boundary cost per batch in modelled nanoseconds (switches, and
    /// the extra via-OS switch where applicable).
    fixed_nanos: u64,
    /// Modelled per-event cost in nanoseconds (decrypt + windowing), from
    /// [`CycleCost`]'s 1 unit ≈ 1 ns currency.
    per_event_nanos: u64,
    /// World switches one batch pays on this ingress path.
    switches: u64,
    /// Output-delay target the batch must fit inside, in milliseconds.
    target_delay_ms: u32,
}

impl AdaptiveBatcher {
    /// Smallest batch the batcher will ever choose.
    pub const MIN_EVENTS: usize = 256;
    /// Largest batch the batcher will ever choose (the paper's batch size).
    pub const MAX_EVENTS: usize = 100_000;
    /// Target amortization: fixed boundary cost ≤ 1/20 (5%) of the batch's
    /// per-event work.
    pub const OVERHEAD_DIVISOR: u64 = 20;
    /// Fraction of the delay target one batch may occupy (1/4): batches
    /// queue behind each other and behind window execution, so a single
    /// batch must not consume the whole budget.
    pub const DELAY_DIVISOR: u64 = 4;

    /// Build a batcher for a platform cost model and one stream's shape.
    ///
    /// `via_os` selects the untrusted-OS ingress path, which costs one more
    /// switch per batch; `event_wire_bytes` is the wire size of one event
    /// (12 generic, 16 power); `target_delay_ms` is the pipeline's output
    /// delay target.
    pub fn new(
        cost: &CostModel,
        via_os: bool,
        event_wire_bytes: usize,
        target_delay_ms: u32,
    ) -> Self {
        let switches = SWITCHES_PER_BATCH + u64::from(via_os);
        let per_event = event_wire_bytes as u64 * CycleCost::DECRYPT_BYTE + CycleCost::WINDOW_EVENT;
        AdaptiveBatcher {
            fixed_nanos: switches * cost.switch_nanos(),
            per_event_nanos: per_event.max(1),
            switches,
            target_delay_ms,
        }
    }

    /// The fixed per-batch boundary cost this batcher amortizes, in
    /// modelled nanoseconds.
    pub fn fixed_nanos(&self) -> u64 {
        self.fixed_nanos
    }

    /// The chosen events-per-batch: large enough that the fixed switch toll
    /// is ≤ 1/[`OVERHEAD_DIVISOR`](Self::OVERHEAD_DIVISOR) of the batch's
    /// work, small enough that the batch's own processing fits in
    /// 1/[`DELAY_DIVISOR`](Self::DELAY_DIVISOR) of the delay target, and
    /// clamped to `[MIN_EVENTS, MAX_EVENTS]`. The latency ceiling wins when
    /// the two conflict: a free-cost model never inflates batches, and a
    /// tight delay target deflates them even on slow-switch hardware.
    pub fn events_per_batch(&self) -> usize {
        let amortized =
            (self.fixed_nanos * Self::OVERHEAD_DIVISOR).div_ceil(self.per_event_nanos) as usize;
        let budget_nanos = self.target_delay_ms as u64 * 1_000_000 / Self::DELAY_DIVISOR;
        let latency_cap = (budget_nanos / self.per_event_nanos).max(1) as usize;
        amortized.clamp(Self::MIN_EVENTS, Self::MAX_EVENTS).min(latency_cap).max(1)
    }

    /// Boundary overhead fraction a batch of `events` pays under this
    /// model: fixed cost over fixed-plus-per-event cost.
    pub fn overhead_fraction(&self, events: usize) -> f64 {
        let work = events as u64 * self.per_event_nanos;
        self.fixed_nanos as f64 / (self.fixed_nanos + work) as f64
    }

    /// This batcher with its fixed per-batch cost replaced (the live
    /// batcher substitutes an *observed* switch cost for the modelled one).
    pub fn with_fixed_nanos(mut self, fixed_nanos: u64) -> Self {
        self.fixed_nanos = fixed_nanos;
        self
    }

    /// World switches one batch pays on this batcher's ingress path.
    pub fn switches_per_batch(&self) -> u64 {
        self.switches
    }

    fn target_delay_ms(&self) -> u32 {
        self.target_delay_ms
    }
}

/// Live-feedback batch sizing: re-derives the batch size from *observed*
/// boundary rates instead of trusting the admission-time model forever.
///
/// The model-based [`AdaptiveBatcher`] prices a batch's fixed boundary
/// toll from the cost model once, at admission. But the effective switch
/// cost drifts at runtime — calibration error, world-switch batching
/// (PR 6) amortizing entries, contention on the secure side. The live
/// batcher keeps the model as its prior and, once per delay window, reads
/// the registry's `tz.switch_nanos` / `tz.world_switches` delta to
/// re-price the toll with the switch cost the platform *actually* paid,
/// then re-runs the same amortize-then-cap sizing. With no traffic (no
/// new switches) it falls back to the model.
pub struct LiveBatcher {
    base: AdaptiveBatcher,
    registry: Arc<MetricsRegistry>,
    /// Refresh period: one output-delay window, in nanoseconds.
    refresh_nanos: u64,
    state: Mutex<LiveState>,
}

struct LiveState {
    last_refresh: Instant,
    last_snapshot: Option<TelemetrySnapshot>,
    current: usize,
}

impl LiveBatcher {
    /// Wrap a model-based batcher with live registry feedback.
    pub fn new(base: AdaptiveBatcher, registry: Arc<MetricsRegistry>) -> Self {
        let refresh_nanos = (base.target_delay_ms() as u64).max(1) * 1_000_000;
        let current = base.events_per_batch();
        LiveBatcher {
            base,
            registry,
            refresh_nanos,
            state: Mutex::new(LiveState {
                last_refresh: Instant::now(),
                last_snapshot: None,
                current,
            }),
        }
    }

    /// The model-derived batch size the live batcher starts from.
    pub fn model_events_per_batch(&self) -> usize {
        self.base.events_per_batch()
    }

    /// The current batch size: the last live-derived value, refreshed from
    /// the registry once per delay window.
    pub fn events_per_batch(&self) -> usize {
        let mut state = self.state.lock();
        if state.last_refresh.elapsed().as_nanos() >= u128::from(self.refresh_nanos) {
            state.current = self.refresh(&mut state);
            state.last_refresh = Instant::now();
        }
        state.current
    }

    /// Force a refresh from the registry now (harness/test hook); returns
    /// the newly derived batch size.
    pub fn refresh_now(&self) -> usize {
        let mut state = self.state.lock();
        state.current = self.refresh(&mut state);
        state.last_refresh = Instant::now();
        state.current
    }

    fn refresh(&self, state: &mut LiveState) -> usize {
        let snap = self.registry.snapshot();
        let observed = state.last_snapshot.as_ref().map_or_else(
            || Self::observed_switch_cost(&snap),
            |prev| Self::observed_switch_cost(&snap.delta_since(prev)),
        );
        state.last_snapshot = Some(snap);
        match observed {
            // Re-price the fixed toll with the observed per-switch cost and
            // the same per-batch switch count the model assumed.
            Some(per_switch) => self
                .base
                .with_fixed_nanos(self.base.switches_per_batch() * per_switch)
                .events_per_batch(),
            // No boundary traffic since the last refresh: keep the model.
            None => self.base.events_per_batch(),
        }
    }

    /// Observed nanoseconds per world switch in a snapshot window, if any
    /// switches happened.
    fn observed_switch_cost(delta: &TelemetrySnapshot) -> Option<u64> {
        let switches = delta.counter_u64("tz.world_switches");
        if switches == 0 {
            return None;
        }
        Some(delta.counter_u64("tz.switch_nanos") / switches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hikey_model_lands_near_the_papers_batch_size() {
        // 1 switch × 40 µs = 40 µs fixed; 12-byte events cost 20 ns each;
        // 5% amortization wants 40_000 × 20 / 20 = 40 K events, under the
        // 100 K cap. A relaxed delay target leaves the amortization binding.
        let b = AdaptiveBatcher::new(&CostModel::hikey(), false, 12, 60_000);
        assert_eq!(b.events_per_batch(), 40_000);
        assert!(b.overhead_fraction(b.events_per_batch()) < 0.06);
    }

    #[test]
    fn cheap_switches_choose_small_batches() {
        // A workstation-like model with ~200 ns switches needs only
        // tiny batches to amortize; the floor keeps them sane.
        let cost = CostModel {
            cpu_hz: 1_000_000_000,
            hw_switch_cycles: 0,
            optee_switch_cycles: 200,
            ..CostModel::hikey()
        };
        let b = AdaptiveBatcher::new(&cost, false, 12, 60_000);
        assert!(b.events_per_batch() < 10_000, "{}", b.events_per_batch());
        assert!(b.events_per_batch() >= AdaptiveBatcher::MIN_EVENTS);
    }

    #[test]
    fn tight_delay_targets_shrink_batches() {
        let relaxed = AdaptiveBatcher::new(&CostModel::hikey(), false, 12, 60_000);
        let tight = AdaptiveBatcher::new(&CostModel::hikey(), false, 12, 1);
        assert!(tight.events_per_batch() < relaxed.events_per_batch());
        // 1 ms target / 4 = 250 µs budget at 20 ns/event → 12 500 events.
        assert_eq!(tight.events_per_batch(), 12_500);
    }

    #[test]
    fn via_os_pays_one_more_switch() {
        let direct = AdaptiveBatcher::new(&CostModel::hikey(), false, 12, 60_000);
        let via_os = AdaptiveBatcher::new(&CostModel::hikey(), true, 12, 60_000);
        assert!(via_os.fixed_nanos() > direct.fixed_nanos());
    }

    #[test]
    fn free_cost_model_hits_the_floor() {
        let b = AdaptiveBatcher::new(&CostModel::free(), false, 12, 60_000);
        assert_eq!(b.events_per_batch(), AdaptiveBatcher::MIN_EVENTS);
    }

    /// A fake TZ source feeding the live batcher a controllable
    /// world-switch rate through a real registry.
    struct FakeTz {
        switches: std::sync::atomic::AtomicU64,
        switch_nanos: std::sync::atomic::AtomicU64,
    }

    impl sbt_telemetry::CounterSource for FakeTz {
        fn section(&self) -> String {
            "tz".to_string()
        }
        fn collect(&self, emit: &mut dyn FnMut(&str, i64)) {
            use std::sync::atomic::Ordering;
            emit("world_switches", self.switches.load(Ordering::Relaxed) as i64);
            emit("switch_nanos", self.switch_nanos.load(Ordering::Relaxed) as i64);
        }
    }

    #[test]
    fn live_batcher_reprices_from_observed_switch_cost() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Model says 40 µs switches (HiKey): batch lands on 40 K events.
        let base = AdaptiveBatcher::new(&CostModel::hikey(), false, 12, 60_000);
        let registry = Arc::new(MetricsRegistry::new());
        let tz = Arc::new(FakeTz { switches: AtomicU64::new(0), switch_nanos: AtomicU64::new(0) });
        registry.register_source(&tz);
        let live = LiveBatcher::new(base, registry);
        assert_eq!(live.events_per_batch(), 40_000);

        // Observed switches come in ~100× cheaper than the model (world-
        // switch batching amortized them): the live batch size collapses.
        tz.switches.store(1_000, Ordering::Relaxed);
        tz.switch_nanos.store(1_000 * 400, Ordering::Relaxed); // 400 ns each
        let first = live.refresh_now();
        assert!(first < AdaptiveBatcher::MAX_EVENTS / 4, "live size {first} did not shrink");
        assert_eq!(first, base.with_fixed_nanos(400).events_per_batch());

        // Rates are windowed (delta since last refresh), not lifetime: a
        // subsequent window where switches got *expensive* grows the batch
        // again even though the lifetime average is still cheap.
        tz.switches.store(1_100, Ordering::Relaxed);
        tz.switch_nanos.store(1_000 * 400 + 100 * 40_000, Ordering::Relaxed);
        let second = live.refresh_now();
        assert_eq!(second, base.with_fixed_nanos(40_000).events_per_batch());
        assert!(second > first);

        // A quiet window (no new switches) falls back to the model.
        assert_eq!(live.refresh_now(), base.events_per_batch());
    }

    #[test]
    fn live_batcher_without_traffic_matches_the_model() {
        let base = AdaptiveBatcher::new(&CostModel::hikey(), true, 16, 500);
        let live = LiveBatcher::new(base, Arc::new(MetricsRegistry::new()));
        assert_eq!(live.events_per_batch(), base.events_per_batch());
        assert_eq!(live.model_events_per_batch(), base.events_per_batch());
        assert_eq!(live.refresh_now(), base.events_per_batch());
    }
}
