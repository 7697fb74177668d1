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
use sbt_tz::CostModel;

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
            target_delay_ms,
        }
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
        // Twice the fixed toll to amortize: twice the batch, under the cap.
        assert_eq!(via_os.events_per_batch(), 2 * direct.events_per_batch());
    }

    #[test]
    fn free_cost_model_hits_the_floor() {
        let b = AdaptiveBatcher::new(&CostModel::free(), false, 12, 60_000);
        assert_eq!(b.events_per_batch(), AdaptiveBatcher::MIN_EVENTS);
    }
}
