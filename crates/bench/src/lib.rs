//! Shared harness code for regenerating the StreamBox-TZ evaluation
//! (§9, Figures 7–12 and Tables 1–4).
//!
//! Each figure/table has a dedicated binary under `src/bin/`; this library
//! holds what they share: the six benchmark definitions (workload +
//! pipeline + target delay), a runner that drives an engine variant over a
//! generated stream and collects metrics, and small helpers for printing
//! result tables and dumping JSON for post-processing.
//!
//! Scale: by default the harnesses run a reduced-but-representative scale so
//! the whole suite completes in minutes on a laptop. Set `SBT_FULL=1` to run
//! the paper's scale (1 M events per 1-second window).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sbt_engine::metrics::EngineMetrics;
use sbt_engine::{Engine, EngineConfig, EngineVariant, IngestStatus, Pipeline, StreamSide};
use sbt_workloads::datasets::{
    intel_lab_stream, power_grid_stream, synthetic_stream, taxi_stream, StreamChunk,
};
use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
use sbt_workloads::transport::{Channel, ChannelConfig, WireFormat};
use serde::Serialize;
use std::sync::Arc;

/// The six benchmarks of §9.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BenchId {
    /// Top values per key (500 ms target delay).
    TopK,
    /// Counting unique taxis (200 ms).
    Distinct,
    /// Temporal join of two streams (250 ms).
    Join,
    /// Windowed aggregation over sensor values (20 ms).
    WinSum,
    /// 1%-selectivity filtering (10 ms).
    Filter,
    /// Power-grid high-load analysis over 16-byte events (600 ms).
    Power,
}

impl BenchId {
    /// All six benchmarks in the order Figure 7 presents them.
    pub const ALL: [BenchId; 6] = [
        BenchId::TopK,
        BenchId::Distinct,
        BenchId::Join,
        BenchId::WinSum,
        BenchId::Filter,
        BenchId::Power,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BenchId::TopK => "TopK",
            BenchId::Distinct => "Distinct",
            BenchId::Join => "Join",
            BenchId::WinSum => "WinSum",
            BenchId::Filter => "Filter",
            BenchId::Power => "Power",
        }
    }

    /// The paper's target output delay for this benchmark, in milliseconds.
    pub fn target_delay_ms(&self) -> u32 {
        match self {
            BenchId::TopK => 500,
            BenchId::Distinct => 200,
            BenchId::Join => 250,
            BenchId::WinSum => 20,
            BenchId::Filter => 10,
            BenchId::Power => 600,
        }
    }

    /// The declarative pipeline for this benchmark.
    pub fn pipeline(&self, batch_events: usize) -> Pipeline {
        let p = match self {
            BenchId::TopK => Pipeline::topk_benchmark(10),
            BenchId::Distinct => Pipeline::distinct_benchmark(),
            BenchId::Join => Pipeline::join_benchmark(),
            BenchId::WinSum => Pipeline::winsum_benchmark(),
            // 1% selectivity over uniform u32 values.
            BenchId::Filter => Pipeline::filter_benchmark(0, u32::MAX / 100),
            BenchId::Power => Pipeline::power_benchmark(),
        };
        // Harness-scale runs relax the delay target: the simulated switch
        // costs are real, but debug builds and tiny windows would otherwise
        // dominate the check. The benches still *report* delays against the
        // paper target.
        p.batch_events(batch_events).target_delay_ms(60_000)
    }

    /// Generate this benchmark's stream.
    pub fn stream(&self, windows: u32, events_per_window: usize, seed: u64) -> Vec<StreamChunk> {
        match self {
            BenchId::TopK => synthetic_stream(windows, events_per_window, 1_000, seed),
            BenchId::Distinct => taxi_stream(windows, events_per_window, seed),
            BenchId::Join => synthetic_stream(windows, events_per_window, 10_000, seed),
            BenchId::WinSum => intel_lab_stream(windows, events_per_window, seed),
            BenchId::Filter => synthetic_stream(windows, events_per_window, 100_000, seed),
            BenchId::Power => power_grid_stream(windows, events_per_window, 40, 20, seed),
        }
    }
}

/// Parameters of one harness run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RunScale {
    /// Number of 1-second windows to stream.
    pub windows: u32,
    /// Events per window.
    pub events_per_window: usize,
    /// Events per input batch.
    pub batch_events: usize,
}

impl RunScale {
    /// The paper's scale: 1 M events per window, 100 K-event batches.
    pub fn paper() -> Self {
        RunScale { windows: 6, events_per_window: 1_000_000, batch_events: 100_000 }
    }

    /// The default harness scale (fast enough for CI / laptops).
    pub fn quick() -> Self {
        RunScale { windows: 4, events_per_window: 100_000, batch_events: 20_000 }
    }

    /// Select scale from the `SBT_FULL` environment variable.
    pub fn from_env() -> Self {
        if std::env::var("SBT_FULL").map(|v| v == "1").unwrap_or(false) {
            RunScale::paper()
        } else {
            RunScale::quick()
        }
    }
}

/// Result row of one engine run.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// Which benchmark ran.
    pub bench: String,
    /// Which engine variant ran it.
    pub variant: String,
    /// Worker threads used.
    pub cores: usize,
    /// Throughput in millions of events per second.
    pub mevents_per_sec: f64,
    /// Throughput in MB/s of ingested payload.
    pub mb_per_sec: f64,
    /// Mean output delay in milliseconds.
    pub avg_delay_ms: f64,
    /// Maximum output delay in milliseconds.
    pub max_delay_ms: f64,
    /// Mean steady-state TEE memory in MB.
    pub avg_memory_mb: f64,
    /// Peak TEE memory in MB.
    pub peak_memory_mb: f64,
    /// Events processed.
    pub events: u64,
    /// Backpressure signals observed.
    pub backpressure: u64,
}

/// Build a source channel for a variant (encrypted when the variant expects
/// encrypted ingress).
pub fn channel_for(variant: EngineVariant) -> Channel {
    if variant.encrypted_ingress() {
        Channel::encrypted_demo()
    } else {
        Channel::new(
            ChannelConfig { format: WireFormat::Cleartext, bandwidth_bytes_per_sec: None },
            [7u8; 16],
            [9u8; 16],
        )
    }
}

/// Drive `engine` with the chunks of one benchmark on one stream side.
///
/// Batches belonging to one window are ingested together through
/// [`Engine::ingest_many`], which cuts them into one group per pool thread
/// (each group one crossing) and runs the groups in parallel, so ingestion
/// (including decryption inside the TEE) spreads over the worker pool — the
/// control plane's task parallelism applies to ingestion as well as to
/// operators. Each watermark then fires its windows inline
/// ([`Engine::advance_watermark_on`]).
pub fn drive(
    engine: &Arc<Engine>,
    chunks: Vec<StreamChunk>,
    variant: EngineVariant,
    batch_events: usize,
    side: StreamSide,
) {
    let mut generator =
        Generator::new(GeneratorConfig { batch_events }, channel_for(variant), chunks);
    let mut pending = Vec::new();
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(delivery) => pending.push(delivery),
            Offer::Watermark(wm) => {
                match engine.ingest_many(std::mem::take(&mut pending), side) {
                    Ok(IngestStatus::Accepted) | Ok(IngestStatus::Backpressure) => {}
                    Err(e) => panic!("ingest failed: {e}"),
                }
                engine.advance_watermark_on(wm, side).expect("watermark advance");
            }
        }
    }
    if !pending.is_empty() {
        engine.ingest_many(pending, side).expect("trailing ingest");
    }
}

/// Run one benchmark on one engine variant and core count.
pub fn run_benchmark(
    bench: BenchId,
    variant: EngineVariant,
    cores: usize,
    scale: RunScale,
) -> RunResult {
    let pipeline = bench.pipeline(scale.batch_events);
    let engine = Engine::new(EngineConfig::for_variant(variant, cores), pipeline);
    let chunks = bench.stream(scale.windows, scale.events_per_window, 42);
    if bench == BenchId::Join {
        // Feed the same stream shape (different seed) to the right side,
        // interleaving window by window so both sides' watermarks advance.
        let right = bench.stream(scale.windows, scale.events_per_window, 43);
        for (lc, rc) in chunks.into_iter().zip(right) {
            drive(&engine, vec![lc], variant, scale.batch_events, StreamSide::Left);
            drive(&engine, vec![rc], variant, scale.batch_events, StreamSide::Right);
        }
    } else {
        drive(&engine, chunks, variant, scale.batch_events, StreamSide::Left);
    }
    let metrics = engine.metrics();
    summarize(bench, variant, cores, &metrics)
}

/// Convert engine metrics into a result row.
pub fn summarize(
    bench: BenchId,
    variant: EngineVariant,
    cores: usize,
    metrics: &EngineMetrics,
) -> RunResult {
    RunResult {
        bench: bench.name().to_string(),
        variant: variant.label().to_string(),
        cores,
        mevents_per_sec: metrics.events_per_sec() / 1e6,
        mb_per_sec: metrics.mb_per_sec(),
        avg_delay_ms: metrics.avg_delay_ms(),
        max_delay_ms: metrics.max_delay_ms(),
        avg_memory_mb: metrics.avg_memory_bytes() as f64 / 1e6,
        peak_memory_mb: metrics.peak_memory_bytes as f64 / 1e6,
        events: metrics.events_ingested,
        backpressure: metrics.backpressure_events,
    }
}

/// A realistic synthetic audit-record stream for codec benchmarking: per
/// window, `batches_per_window` partitions flow through ingress → windowing
/// → sort, then one `MergeK` over the sorted runs, a sum, and an egress, with
/// a watermark per window — the record mix and monotone id/timestamp shape
/// the engine's fire produces. Shared by the codec benches and
/// `fig12_compression` so they measure identical input.
pub fn synthetic_audit_records(
    windows: u32,
    batches_per_window: u32,
) -> Vec<sbt_attest::AuditRecord> {
    use sbt_attest::{AuditRecord, DataRef, UArrayRef};
    let mut records = Vec::new();
    let mut id = 0u32;
    let mut ts = 0u32;
    let fresh = |id: &mut u32| {
        let r = UArrayRef(*id);
        *id += 1;
        r
    };
    for w in 0..windows {
        let mut sorted = Vec::new();
        for _ in 0..batches_per_window {
            let ingress = fresh(&mut id);
            records.push(AuditRecord::Ingress { ts_ms: ts, data: DataRef::UArray(ingress) });
            let windowed = fresh(&mut id);
            records.push(AuditRecord::Windowing {
                ts_ms: ts + 1,
                input: ingress,
                win_no: w as u16,
                output: windowed,
            });
            let s = fresh(&mut id);
            records.push(AuditRecord::Execution {
                ts_ms: ts + 2,
                op: sbt_types::PrimitiveKind::Sort,
                inputs: [windowed].into(),
                outputs: [s].into(),
                hints: vec![],
            });
            sorted.push(s);
            ts += 3;
        }
        records.push(AuditRecord::Ingress { ts_ms: ts, data: DataRef::Watermark((w + 1) * 1000) });
        if sorted.len() > 1 {
            let m = fresh(&mut id);
            records.push(AuditRecord::Execution {
                ts_ms: ts,
                op: sbt_types::PrimitiveKind::MergeK,
                inputs: sorted.as_slice().into(),
                outputs: [m].into(),
                hints: vec![],
            });
            sorted = vec![m];
            ts += 1;
        }
        let out = fresh(&mut id);
        records.push(AuditRecord::Execution {
            ts_ms: ts,
            op: sbt_types::PrimitiveKind::SumCnt,
            inputs: [sorted[0]].into(),
            outputs: [out].into(),
            hints: vec![],
        });
        records.push(AuditRecord::Egress { ts_ms: ts + 1, data: out });
        ts += 2;
    }
    records
}

/// Best-of-N wall-clock timing of `f` (with one untimed warm-up call),
/// returning seconds per call. Shared by the codec gate and the figure
/// binaries so timing methodology stays in one place.
pub fn best_secs<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    f();
    let mut best = f64::MAX;
    for _ in 0..iters {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Print which crypto kernels this process runs (`sbt_crypto::backend()`).
/// Every binary that quotes a crypto-dependent number calls this first, so
/// a table can never be read without knowing which path produced it.
pub fn print_crypto_backend() {
    println!("crypto back-end: {}", sbt_crypto::backend());
}

/// Print a header + rows as an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Write a JSON results file under `target/evaluation/`.
pub fn dump_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("target/evaluation");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(json) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(&path, json);
            eprintln!("(results written to {})", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_ids_cover_the_six_benchmarks() {
        assert_eq!(BenchId::ALL.len(), 6);
        for b in BenchId::ALL {
            assert!(!b.name().is_empty());
            assert!(b.target_delay_ms() > 0);
            let p = b.pipeline(1_000);
            assert_eq!(p.batch_size(), 1_000);
            let chunks = b.stream(1, 100, 7);
            assert_eq!(chunks.len(), 1);
            assert_eq!(chunks[0].len(), 100);
        }
    }

    #[test]
    fn scales() {
        let q = RunScale::quick();
        let p = RunScale::paper();
        assert!(p.events_per_window > q.events_per_window);
        assert_eq!(p.events_per_window, 1_000_000);
    }

    #[test]
    fn quick_run_of_winsum_produces_sane_metrics() {
        let scale = RunScale { windows: 2, events_per_window: 5_000, batch_events: 2_500 };
        let result = run_benchmark(BenchId::WinSum, EngineVariant::Sbt, 2, scale);
        assert_eq!(result.events, 10_000);
        assert!(result.mevents_per_sec > 0.0);
        assert!(result.mb_per_sec > 0.0);
        assert!(result.peak_memory_mb > 0.0);
    }

    #[test]
    fn quick_run_of_join_and_power_work() {
        let scale = RunScale { windows: 1, events_per_window: 2_000, batch_events: 1_000 };
        let join = run_benchmark(BenchId::Join, EngineVariant::SbtClearIngress, 2, scale);
        assert_eq!(join.events, 4_000); // both sides
        let power = run_benchmark(BenchId::Power, EngineVariant::Sbt, 2, scale);
        assert_eq!(power.events, 2_000);
    }
}
