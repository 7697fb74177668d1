//! Figure 7: throughput of the six benchmarks as a function of CPU cores
//! for the four engine variants, plus steady TEE memory consumption.
//!
//! Also prints the §9.2 derived comparisons: security overhead
//! (ClearIngress vs Insecure), ingress-decryption overhead (SBT vs
//! ClearIngress), and the trusted-IO advantage (SBT vs IOviaOS).
//!
//! Run with `cargo run --release -p sbt-bench --bin fig7_throughput`
//! (set `SBT_FULL=1` for the paper's 1 M-event windows).

use sbt_bench::{print_table, run_benchmark, BenchId, RunResult, RunScale};
use sbt_engine::{AdaptiveBatcher, EngineVariant};
use sbt_tz::CostModel;

fn main() {
    sbt_bench::print_crypto_backend();
    let scale = RunScale::from_env();
    let cores = [2usize, 4, 8];
    let mut all: Vec<RunResult> = Vec::new();

    for bench in BenchId::ALL {
        let mut rows = Vec::new();
        for variant in EngineVariant::ALL {
            for &c in &cores {
                let r = run_benchmark(bench, variant, c, scale);
                rows.push(vec![
                    r.variant.clone(),
                    c.to_string(),
                    format!("{:.2}", r.mevents_per_sec),
                    format!("{:.1}", r.mb_per_sec),
                    format!("{:.1}", r.avg_delay_ms),
                    format!("{:.0}", r.avg_memory_mb),
                    format!("{:.0}", r.peak_memory_mb),
                ]);
                all.push(r);
            }
        }
        print_table(
            &format!(
                "Figure 7 — {} (target delay {} ms, {} events/window)",
                bench.name(),
                bench.target_delay_ms(),
                scale.events_per_window
            ),
            &["variant", "cores", "Mevents/s", "MB/s", "avg delay ms", "avg mem MB", "peak MB"],
            &rows,
        );
    }

    // Derived overhead comparisons at the maximum core count.
    let max_cores = *cores.last().unwrap();
    let find = |bench: BenchId, variant: EngineVariant| {
        all.iter()
            .find(|r| {
                r.bench == bench.name() && r.variant == variant.label() && r.cores == max_cores
            })
            .cloned()
            .expect("all combinations were run")
    };
    let mut overhead_rows = Vec::new();
    for bench in BenchId::ALL {
        let sbt = find(bench, EngineVariant::Sbt);
        let clear = find(bench, EngineVariant::SbtClearIngress);
        let via_os = find(bench, EngineVariant::SbtIoViaOs);
        let insecure = find(bench, EngineVariant::Insecure);
        let security_overhead = 100.0 * (1.0 - clear.mevents_per_sec / insecure.mevents_per_sec);
        let decrypt_overhead = 100.0 * (1.0 - sbt.mevents_per_sec / clear.mevents_per_sec);
        let trusted_io_gain = 100.0 * (sbt.mevents_per_sec / via_os.mevents_per_sec - 1.0);
        overhead_rows.push(vec![
            bench.name().to_string(),
            format!("{:.1}%", security_overhead),
            format!("{:.1}%", decrypt_overhead),
            format!("{:.1}%", trusted_io_gain),
        ]);
    }
    print_table(
        &format!("Section 9.2/9.3 — overheads at {max_cores} cores"),
        &[
            "benchmark",
            "security overhead (Clear vs Insecure)",
            "decryption overhead (SBT vs Clear)",
            "trusted-IO gain (SBT vs IOviaOS)",
        ],
        &overhead_rows,
    );

    sbt_bench::dump_json("fig7_throughput", &all);

    // Adaptive world-switch batching: the batcher derives an ingest batch
    // size from the calibrated switch cost and the pipeline's delay budget;
    // sweep it against fixed small-batch regimes on the ingest-bound
    // benchmark. Measured at 4 cores — the boundary-dominated configuration
    // (at higher core counts a workstation hides the per-core share of the
    // switch cost behind wall-clock parallelism, which the HiKey's in-order
    // cores do not).
    let bench = BenchId::WinSum;
    let adaptive_cores = 4usize;
    let batcher = AdaptiveBatcher::new(&CostModel::hikey(), false, bench.event_bytes(), 60_000);
    let adaptive = batcher.events_per_batch();
    let regimes = [("fixed-tiny", 500usize), ("fixed-small", 2_000), ("adaptive", adaptive)];
    let runs: Vec<RunResult> = regimes
        .iter()
        .map(|&(_, batch)| {
            run_benchmark(
                bench,
                EngineVariant::Sbt,
                adaptive_cores,
                RunScale { batch_events: batch, ..scale },
            )
        })
        .collect();
    let adaptive_tput = runs.last().unwrap().mevents_per_sec;
    let adaptive_rows: Vec<Vec<String>> = regimes
        .iter()
        .zip(&runs)
        .map(|(&(label, batch), r)| {
            vec![
                label.to_string(),
                if label == "adaptive" { format!("{batch} (chosen)") } else { batch.to_string() },
                format!("{:.2}", r.mevents_per_sec),
                format!("{:+.1}%", 100.0 * (adaptive_tput / r.mevents_per_sec - 1.0)),
                format!("{:.1}", r.avg_delay_ms),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Adaptive batching — {} on {} ({adaptive_cores} cores, switch cost {} ns)",
            bench.name(),
            EngineVariant::Sbt.label(),
            CostModel::hikey().switch_nanos()
        ),
        &["regime", "batch events", "Mevents/s", "adaptive gain", "avg delay ms"],
        &adaptive_rows,
    );
    sbt_bench::dump_json(
        "fig7_adaptive_batching",
        &regimes.iter().map(|(l, _)| l.to_string()).zip(runs).collect::<Vec<_>>(),
    );
}
