//! Engine metrics: throughput, output delay, memory usage.
//!
//! These are the quantities Figure 7 reports per benchmark: input throughput
//! in events/s and MB/s (at a given output-delay target), and the steady
//! TEE memory consumption. Output delay follows the paper's definition
//! (§2.2): time from the ingress of the watermark that completes a window to
//! the externalization of that window's results.

use sbt_types::WindowId;

/// The scheduler's cycle-cost model.
///
/// Schedulers that share the TEE across tenants need a common currency for
/// "how much work did this tenant's traffic cost". Batch counts are a poor
/// one — a 100-event batch and a 100 000-event batch are one "unit" each —
/// so the deficit round-robin scheduler accounts in estimated **cycles**:
/// abstract units proportional to the dominant per-byte and per-event work
/// the data plane performs (AES-CTR decryption per ingress byte,
/// windowing/segmentation per event, primitive execution per record,
/// egress encryption per byte).
///
/// The constants are deliberately coarse — they only need to *rank* work
/// correctly and keep ratios stable, not to predict wall time. They are
/// also what pool-aware admission uses: a core is modelled as sustaining
/// [`CycleCost::CORE_CAPACITY_PER_MS`] units per millisecond, and a tenant
/// whose per-window working set cannot be processed within its declared
/// output-delay target at that rate is refused admission.
pub struct CycleCost;

impl CycleCost {
    /// Cost of decrypting (or copying) one ingress byte.
    pub const DECRYPT_BYTE: u64 = 1;
    /// Cost of windowing (segmenting) one ingested event.
    pub const WINDOW_EVENT: u64 = 8;
    /// Cost of pushing one record through a trusted primitive.
    pub const PROCESS_RECORD: u64 = 4;
    /// Cost of encrypting one egress byte.
    pub const ENCRYPT_BYTE: u64 = 1;
    /// Modelled sustained capacity of one worker core, in cost units per
    /// millisecond (used by pool-aware admission).
    pub const CORE_CAPACITY_PER_MS: u64 = 1_000_000;

    /// Estimated cost of ingesting one batch: decrypt the payload, window
    /// the events.
    pub fn batch(payload_bytes: u64, events: u64) -> u64 {
        payload_bytes * Self::DECRYPT_BYTE + events * Self::WINDOW_EVENT
    }

    /// Measured cost of one ingest command list carrying `batches`
    /// (payload bytes, events): [`batch`](Self::batch) of each, plus the
    /// TEE-boundary toll the list pays under `cost` — **one** world switch
    /// for the whole list and, on the via-OS path, one more switch and the
    /// boundary copy of each payload. [`CycleCost`]'s currency is 1 unit ≈
    /// 1 ns ([`CORE_CAPACITY_PER_MS`](Self::CORE_CAPACITY_PER_MS) units per
    /// millisecond), so modelled nanoseconds add in directly. Schedulers
    /// charging this rank a small-batch tenant correctly: its per-event
    /// boundary cost is higher, so it drains its deficit faster — and a
    /// group of batches pays one switch, not one per batch.
    pub fn ingest_list(
        cost: &sbt_tz::CostModel,
        batches: impl IntoIterator<Item = (u64, u64)>,
        via_os: bool,
    ) -> u64 {
        batches.into_iter().fold(cost.switch_nanos(), |sum, (payload_bytes, events)| {
            let delivery = if via_os {
                cost.switch_nanos() + cost.boundary_copy_nanos(payload_bytes as usize)
            } else {
                0
            };
            sum + Self::batch(payload_bytes, events) + delivery
        })
    }

    /// Upper-bound cost of executing one window whose resident working set
    /// is `bytes` (ingest plus one full pass of primitive execution).
    /// Admission control uses the tenant's memory quota as the bound.
    pub fn window_bound(bytes: u64) -> u64 {
        let events = bytes / sbt_types::EVENT_BYTES as u64;
        Self::batch(bytes, events) + events * Self::PROCESS_RECORD
    }
}

/// The outcome of one completed window.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Which window completed.
    pub window: WindowId,
    /// Output delay in nanoseconds (wall clock plus apportioned simulated
    /// isolation overhead).
    pub output_delay_nanos: u64,
    /// Number of result records externalized.
    pub result_records: usize,
    /// TEE memory committed right after the window completed, in bytes.
    pub memory_bytes: u64,
}

/// Aggregated metrics for one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    /// Total events ingested.
    pub events_ingested: u64,
    /// Total payload bytes ingested (plaintext size).
    pub bytes_ingested: u64,
    /// Wall-clock nanoseconds of the run (ingest start to last egress).
    pub wall_nanos: u64,
    /// Simulated isolation overhead (world switches, boundary copies, TEE
    /// paging) accumulated across all threads, in nanoseconds.
    pub simulated_overhead_nanos: u64,
    /// Number of worker threads (used to apportion the simulated overhead).
    pub cores: usize,
    /// Per-window results.
    pub windows: Vec<WindowResult>,
    /// Peak TEE memory committed, in bytes.
    pub peak_memory_bytes: u64,
    /// How many times the engine signalled backpressure to the source.
    pub backpressure_events: u64,
}

impl EngineMetrics {
    /// Effective elapsed time: wall clock plus the simulated overhead spread
    /// over the worker threads that incurred it concurrently.
    pub fn effective_nanos(&self) -> u64 {
        self.wall_nanos + self.simulated_overhead_nanos / self.cores.max(1) as u64
    }

    /// Throughput in events per second.
    pub fn events_per_sec(&self) -> f64 {
        let t = self.effective_nanos();
        if t == 0 {
            return 0.0;
        }
        self.events_ingested as f64 * 1e9 / t as f64
    }

    /// Throughput in megabytes per second (of ingested payload).
    pub fn mb_per_sec(&self) -> f64 {
        let t = self.effective_nanos();
        if t == 0 {
            return 0.0;
        }
        self.bytes_ingested as f64 / 1e6 * 1e9 / t as f64
    }

    /// Maximum output delay across windows, in milliseconds.
    pub fn max_delay_ms(&self) -> f64 {
        self.windows.iter().map(|w| w.output_delay_nanos as f64 / 1e6).fold(0.0, f64::max)
    }

    /// Mean output delay across windows, in milliseconds.
    pub fn avg_delay_ms(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        self.windows.iter().map(|w| w.output_delay_nanos as f64 / 1e6).sum::<f64>()
            / self.windows.len() as f64
    }

    /// Mean steady-state TEE memory across windows, in bytes.
    pub fn avg_memory_bytes(&self) -> u64 {
        if self.windows.is_empty() {
            return 0;
        }
        self.windows.iter().map(|w| w.memory_bytes).sum::<u64>() / self.windows.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> EngineMetrics {
        EngineMetrics {
            events_ingested: 2_000_000,
            bytes_ingested: 24_000_000,
            wall_nanos: 1_000_000_000,
            simulated_overhead_nanos: 800_000_000,
            cores: 8,
            windows: vec![
                WindowResult {
                    window: WindowId(0),
                    output_delay_nanos: 10_000_000,
                    result_records: 5,
                    memory_bytes: 50_000_000,
                },
                WindowResult {
                    window: WindowId(1),
                    output_delay_nanos: 30_000_000,
                    result_records: 5,
                    memory_bytes: 70_000_000,
                },
            ],
            peak_memory_bytes: 80_000_000,
            backpressure_events: 1,
        }
    }

    #[test]
    fn an_ingest_list_pays_one_switch_and_each_delivery_its_own() {
        let cost = sbt_tz::CostModel::hikey();
        let batch = CycleCost::batch(12_000, 1_000);
        let one = CycleCost::ingest_list(&cost, [(12_000, 1_000)], false);
        assert_eq!(one, batch + cost.switch_nanos());
        let four = CycleCost::ingest_list(&cost, [(12_000, 1_000); 4], false);
        assert_eq!(four, 4 * batch + cost.switch_nanos(), "one switch for the whole list");
        let via_os = CycleCost::ingest_list(&cost, [(12_000, 1_000); 4], true);
        let delivery = cost.switch_nanos() + cost.boundary_copy_nanos(12_000);
        assert_eq!(via_os, four + 4 * delivery, "each via-OS delivery crosses and copies");
    }

    #[test]
    fn effective_time_apportions_overhead_across_cores() {
        let m = metrics();
        assert_eq!(m.effective_nanos(), 1_000_000_000 + 100_000_000);
    }

    #[test]
    fn throughput_is_events_over_effective_time() {
        let m = metrics();
        let expected = 2_000_000.0 * 1e9 / 1.1e9;
        assert!((m.events_per_sec() - expected).abs() < 1.0);
        // 24 MB over 1.1 s of effective time.
        let expected_mb = 24.0 * 1e9 / 1.1e9;
        assert!((m.mb_per_sec() - expected_mb).abs() < 0.01, "{}", m.mb_per_sec());
    }

    #[test]
    fn delay_and_memory_statistics() {
        let m = metrics();
        assert_eq!(m.max_delay_ms(), 30.0);
        assert_eq!(m.avg_delay_ms(), 20.0);
        assert_eq!(m.avg_memory_bytes(), 60_000_000);
    }

    #[test]
    fn empty_metrics_are_well_defined() {
        let m = EngineMetrics::default();
        assert_eq!(m.events_per_sec(), 0.0);
        assert_eq!(m.mb_per_sec(), 0.0);
        assert_eq!(m.max_delay_ms(), 0.0);
        assert_eq!(m.avg_delay_ms(), 0.0);
        assert_eq!(m.avg_memory_bytes(), 0);
    }
}
