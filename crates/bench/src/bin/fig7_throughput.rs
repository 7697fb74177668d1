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
use sbt_engine::EngineVariant;

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
}
