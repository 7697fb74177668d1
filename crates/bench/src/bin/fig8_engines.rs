//! Figure 8: StreamBox-TZ versus commodity insecure engines (Flink-like,
//! Esper-like, SensorBee-like) on windowed aggregation (WinSum), reported as
//! MB/s on a log scale in the paper.
//!
//! Run with `cargo run --release -p sbt-bench --bin fig8_engines`.

use sbt_baselines::{CommodityEngine, CommodityKind};
use sbt_bench::{print_table, run_benchmark, BenchId, RunScale};
use sbt_engine::EngineVariant;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct EngineRow {
    engine: String,
    mb_per_sec: f64,
    mevents_per_sec: f64,
}

fn main() {
    sbt_bench::print_crypto_backend();
    let scale = RunScale::from_env();
    let cores = 8;
    let mut rows: Vec<EngineRow> = Vec::new();

    // StreamBox-TZ (full variant, encrypted ingress) on the WinSum pipeline,
    // plus the ClearIngress variant: the paper's HiKey decrypts with NEON
    // crypto instructions, which this repository's portable software AES
    // cannot match, so the ClearIngress row shows the engine's throughput
    // when ingress decryption is not the bottleneck.
    let sbt = run_benchmark(BenchId::WinSum, EngineVariant::Sbt, cores, scale);
    rows.push(EngineRow {
        engine: "StreamBox-TZ".to_string(),
        mb_per_sec: sbt.mb_per_sec,
        mevents_per_sec: sbt.mevents_per_sec,
    });
    let clear = run_benchmark(BenchId::WinSum, EngineVariant::SbtClearIngress, cores, scale);
    rows.push(EngineRow {
        engine: "StreamBox-TZ (ClearIngress)".to_string(),
        mb_per_sec: clear.mb_per_sec,
        mevents_per_sec: clear.mevents_per_sec,
    });

    // Commodity engines run the same event stream directly (cleartext, no
    // TEE — they are the insecure comparison points).
    let chunks = BenchId::WinSum.stream(scale.windows, scale.events_per_window, 42);
    let events: Vec<sbt_types::Event> =
        chunks.iter().flat_map(|c| c.events.iter().copied()).collect();
    let bytes = (events.len() * sbt_types::EVENT_BYTES) as f64;
    for kind in [CommodityKind::FlinkLike, CommodityKind::EsperLike, CommodityKind::SensorBeeLike] {
        let engine = CommodityEngine::new(kind, cores);
        let start = Instant::now();
        let sums = engine.run_winsum(&events);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(sums.len(), scale.windows as usize);
        rows.push(EngineRow {
            engine: kind.label().to_string(),
            mb_per_sec: bytes / 1e6 / elapsed,
            mevents_per_sec: events.len() as f64 / 1e6 / elapsed,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.engine.clone(),
                format!("{:.1}", r.mb_per_sec),
                format!("{:.2}", r.mevents_per_sec),
            ]
        })
        .collect();
    print_table(
        "Figure 8 — WinSum throughput, StreamBox-TZ vs commodity engines (8 cores)",
        &["engine", "MB/s", "Mevents/s"],
        &table,
    );
    let sbt_mb = rows[0].mb_per_sec;
    for r in rows.iter().skip(1) {
        println!("StreamBox-TZ / {}: {:.1}x", r.engine, sbt_mb / r.mb_per_sec);
    }
    sbt_bench::dump_json("fig8_engines", &rows);
}
