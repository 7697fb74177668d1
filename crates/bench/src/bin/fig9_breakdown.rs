//! Figure 9: run-time breakdown of the GroupBy operator — in-enclave
//! decrypt vs operator compute vs world switches vs boundary copies vs TEE
//! memory management — as a function of the input batch size, with 8 worker
//! threads executing GroupBy in parallel.
//!
//! Every lane comes from one diff of the unified telemetry registry
//! snapshot (the `tz.*` and `plane.*` counters the run actually
//! accumulated), not from model arithmetic, and each row also reports the
//! raw boundary *events* behind the percentages: world switches made, bytes
//! copied, secure pages committed. The decrypt lane is the sum of the
//! `Decrypt` spans, one per ingest batch. The sweep runs the
//! ingest + GroupBy profile under both ingress paths, so the copy lane is
//! demonstrably zero on trusted IO and proportional to payload via the OS.
//!
//! Run with `cargo run --release -p sbt-bench --bin fig9_breakdown`.

use sbt_bench::print_table;
use sbt_crypto::{AesCtr, MasterSecret};
use sbt_dataplane::{DataPlane, DataPlaneConfig, PrimitiveParams};
use sbt_engine::{Executor, TeeGateway};
use sbt_telemetry::SpanKind;
use sbt_types::{Event, PrimitiveKind};
use sbt_tz::{BoundaryEvents, IngressPath, Platform, PlatformConfig};
use sbt_uarray::HintSet;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct BreakdownRow {
    ingress: &'static str,
    batch_events: usize,
    decrypt_pct: f64,
    compute_pct: f64,
    switch_pct: f64,
    copy_pct: f64,
    memory_pct: f64,
    total_ms: f64,
    /// Decrypt spans recorded (one per ingest batch).
    decrypt_spans: u64,
    /// Raw boundary events over the run, from the live platform counters.
    boundary: BoundaryEvents,
}

/// Ingest `batches` encrypted batches of `batch_events` events through
/// `path`, then GroupBy (Sort + SumCnt per batch) on `threads` worker
/// threads; return the five-lane breakdown from the platform's counter
/// deltas plus the drained `Decrypt` spans.
fn run_groupby(
    batch_events: usize,
    batches: usize,
    threads: usize,
    path: IngressPath,
) -> BreakdownRow {
    let platform = Platform::new(PlatformConfig::hikey().with_ingress(path));
    let dp = DataPlane::new(platform.clone(), DataPlaneConfig::default());
    let gateway = Arc::new(TeeGateway::open(dp.clone()));
    let pool = Executor::new(threads);
    let tracer = Arc::clone(dp.telemetry().tracer());
    tracer.set_enabled(true);
    let keys = MasterSecret::demo().tenant_keys(gateway.tenant().0, 0);

    let before = dp.telemetry().snapshot();
    let wall_start = Instant::now();

    // Ingest is part of the profile: it is where the ingress paths differ
    // (trusted IO copies nothing; via-OS pays the boundary copy).
    let refs: Vec<_> = (0..batches)
        .map(|b| {
            let events: Vec<Event> = (0..batch_events)
                .map(|i| Event::new((i % 1000) as u32, (i + b) as u32, 0))
                .collect();
            let mut wire = Event::slice_to_bytes(&events);
            AesCtr::new(&keys.source_key, &keys.source_nonce).apply_keystream_at(&mut wire, 0);
            gateway.ingress(&wire, true, false, 0).expect("ingest").opaque
        })
        .collect();

    // GroupBy over each batch in parallel: Sort then SumCnt.
    let tasks: Vec<_> = refs
        .iter()
        .map(|r| {
            let gw = Arc::clone(&gateway);
            let r = *r;
            move || {
                let sorted = gw
                    .invoke(PrimitiveKind::Sort, &[r], PrimitiveParams::None, &HintSet::none())
                    .expect("sort");
                gw.retire(r).expect("retire input");
                let aggs = gw
                    .invoke(
                        PrimitiveKind::SumCnt,
                        &[sorted[0].opaque],
                        PrimitiveParams::None,
                        &HintSet::none(),
                    )
                    .expect("sumcnt");
                gw.retire(sorted[0].opaque).expect("retire sorted");
                gw.retire(aggs[0].opaque).expect("retire aggs");
            }
        })
        .collect();
    pool.run_all(tasks);

    let wall = wall_start.elapsed().as_nanos() as u64;
    let delta = dp.telemetry().snapshot().delta_since(&before);

    // The decrypt lane sums the per-batch `Decrypt` spans.
    let mut decrypt = 0u64;
    let mut decrypt_spans = 0u64;
    tracer.drain(|s| {
        if s.kind == SpanKind::Decrypt {
            decrypt += s.duration_nanos;
            decrypt_spans += 1;
        }
    });
    // Cross-check: the data plane's own counter is the same lane sum.
    let counted = delta.counter_u64("plane.decrypt_nanos");
    assert_eq!(
        decrypt, counted,
        "Decrypt span sum ({decrypt} ns) disagrees with plane.decrypt_nanos ({counted} ns)"
    );

    // Five lanes; all but decrypt from one unified registry snapshot diff:
    // the data plane and platform counters arrive through the same named
    // sections the other observability consumers read.
    let compute = delta.counter_u64("plane.compute_nanos");
    let memory = delta.counter_u64("plane.memory_nanos") + delta.counter_u64("tz.tee_paging_nanos");
    let switches = delta.counter_u64("tz.switch_nanos");
    let copies = delta.counter_u64("tz.boundary_copy_nanos");
    let total = decrypt + compute + memory + switches + copies;
    let pct = |x: u64| 100.0 * x as f64 / total.max(1) as f64;
    BreakdownRow {
        ingress: match path {
            IngressPath::TrustedIo => "trusted-io",
            IngressPath::ViaOs => "via-os",
        },
        batch_events,
        decrypt_pct: pct(decrypt),
        compute_pct: pct(compute),
        switch_pct: pct(switches),
        copy_pct: pct(copies),
        memory_pct: pct(memory),
        total_ms: (wall + (switches + copies + memory) / threads.max(1) as u64) as f64 / 1e6,
        decrypt_spans,
        boundary: BoundaryEvents {
            switches: delta.counter_u64("tz.world_switches"),
            copied_bytes: delta.counter_u64("tz.boundary_copy_bytes"),
            pages_committed: delta.counter_u64("tz.tee_pages_committed"),
            invocations: delta.counter_u64("tz.smc_invocations"),
        },
    }
}

fn main() {
    sbt_bench::print_crypto_backend();
    let threads = 8;
    let full = std::env::var("SBT_FULL").map(|v| v == "1").unwrap_or(false);
    // Total events held constant; batch size sweeps the TEE entry/exit rate.
    let total_events: usize = if full { 4_000_000 } else { 1_000_000 };
    let batch_sizes = [8_000usize, 32_000, 128_000, 512_000, 1_000_000];

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for path in [IngressPath::TrustedIo, IngressPath::ViaOs] {
        for &batch in &batch_sizes {
            let batches = (total_events / batch).max(1);
            let row = run_groupby(batch, batches, threads, path);
            table.push(vec![
                row.ingress.to_string(),
                format!("{}K", batch / 1000),
                format!("{:.1}%", row.decrypt_pct),
                format!("{:.1}%", row.compute_pct),
                format!("{:.1}%", row.switch_pct),
                format!("{:.1}%", row.copy_pct),
                format!("{:.1}%", row.memory_pct),
                format!("{:.1}", row.total_ms),
                row.decrypt_spans.to_string(),
                row.boundary.switches.to_string(),
                format!("{}", row.boundary.copied_bytes / 1024),
                row.boundary.pages_committed.to_string(),
            ]);
            rows.push(row);
        }
    }
    print_table(
        &format!(
            "Figure 9 — GroupBy run-time breakdown ({threads} threads, {total_events} events)"
        ),
        &[
            "ingress",
            "batch",
            "decrypt",
            "compute",
            "switch",
            "copy",
            "mem mgmt",
            "total ms",
            "spans",
            "switches",
            "copied KiB",
            "pages",
        ],
        &table,
    );
    println!(
        "\nExpectation from the paper: with batches of 128K events or more, >90% of time is\n\
         compute (decrypt + operators) inside the TEE; with 8K-event batches the\n\
         world-switch share dominates. Trusted IO keeps the copy lane at exactly zero;\n\
         via-OS ingress pays a per-byte boundary copy on top of the same switch profile."
    );
    sbt_bench::dump_json("fig9_breakdown", &rows);
}
