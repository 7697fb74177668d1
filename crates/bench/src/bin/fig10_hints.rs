//! Figure 10: TEE memory usage under the two placement policies, for the
//! Filter, WinSum and TopK benchmarks. The paper's no-hint allocator places
//! all outputs of the same producer in one uGroup and uses up to ~35% more
//! memory.
//!
//! What the rows compare is the *policy*, not whether hints are present:
//! "with hints" is the hint-guided allocator, "w/o hints" the same-producer
//! baseline (`EngineConfig::without_hints`). The engine attaches one
//! consumed-in-parallel hint per partition output and none elsewhere, and
//! under the hint-guided policy a parallel hint and no hint both open a new
//! uGroup — so dropping the hints alone would not move a row.
//!
//! Run with `cargo run --release -p sbt-bench --bin fig10_hints`.

use sbt_bench::{drive, print_table, BenchId, RunScale};
use sbt_engine::{Engine, EngineConfig, EngineVariant, StreamSide};
use serde::Serialize;

#[derive(Serialize)]
struct HintRow {
    bench: String,
    with_hints_mb: f64,
    without_hints_mb: f64,
    increase_pct: f64,
}

fn run(bench: BenchId, scale: RunScale, use_hints: bool) -> (f64, f64) {
    let mut config = EngineConfig::for_variant(EngineVariant::Sbt, 8);
    if !use_hints {
        config = config.without_hints();
    }
    let engine = Engine::new(config, bench.pipeline(scale.batch_events));
    let chunks = bench.stream(scale.windows, scale.events_per_window, 42);
    drive(&engine, chunks, EngineVariant::Sbt, scale.batch_events, StreamSide::Left);
    let m = engine.metrics();
    (m.avg_memory_bytes() as f64 / 1e6, m.peak_memory_bytes as f64 / 1e6)
}

fn main() {
    let scale = RunScale::from_env();
    let benches = [BenchId::Filter, BenchId::WinSum, BenchId::TopK];
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for bench in benches {
        let (_, with_peak) = run(bench, scale, true);
        let (_, without_peak) = run(bench, scale, false);
        let increase = 100.0 * (without_peak / with_peak.max(0.001) - 1.0);
        table.push(vec![
            bench.name().to_string(),
            format!("{:.1}", with_peak),
            format!("{:.1}", without_peak),
            format!("{:+.1}%", increase),
        ]);
        rows.push(HintRow {
            bench: bench.name().to_string(),
            with_hints_mb: with_peak,
            without_hints_mb: without_peak,
            increase_pct: increase,
        });
    }
    print_table(
        "Figure 10 — peak TEE memory, hint-guided vs same-producer placement (8 cores)",
        &["benchmark", "with hints (MB)", "w/o hints (MB)", "increase"],
        &table,
    );
    println!(
        "\nExpectation from the paper: the hint-less (same-producer) allocator uses up to ~35%\n\
         more memory."
    );
    sbt_bench::dump_json("fig10_hints", &rows);
}
