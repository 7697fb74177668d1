//! CI gate for the measured TEE boundary.
//!
//! Drives the WinSum pipeline (encrypted ingress) at fixed batch-size
//! regimes and at the size the adaptive batcher derives from the calibrated
//! cost model, then reports boundary *events* per ingested event — world
//! switches, bytes copied across the boundary, secure pages committed —
//! from the platform's live counters rather than model arithmetic. The run
//! fails (exit 1) when:
//!
//! * world switches per 1 K events on the adaptive regime exceed the
//!   recorded baseline (`SBT_BOUNDARY_GATE_SWITCHES_PER_KEVENT`),
//! * via-OS ingress copies more bytes per event than the recorded baseline
//!   (`SBT_BOUNDARY_GATE_COPIED_BYTES_PER_EVENT`),
//! * trusted-IO ingress copies *any* bytes across the boundary (the
//!   zero-copy invariant), or
//! * adaptive batching loses its amortization gain over the small fixed
//!   batch regime (`SBT_BOUNDARY_GATE_MIN_GAIN`, a throughput ratio).
//!
//! Besides the gate verdict it writes `BENCH_boundary.json` at the repo
//! root — a committed, machine-readable record of the host calibration and
//! the per-regime boundary profile — plus the usual copy under
//! `target/evaluation/`.
//!
//! Run with `cargo run --release -p sbt_bench --bin boundary_gate`.

use sbt_bench::{drive, print_table, BenchId, RunScale};
use sbt_engine::{Engine, EngineConfig, EngineVariant, StreamSide};
use sbt_tz::{BoundaryEvents, Calibration, CostModel};
use serde::Serialize;

/// Boundary profile of one (variant, worker count, batch size) regime.
#[derive(Serialize)]
struct RegimeRow {
    label: String,
    variant: String,
    workers: usize,
    batch_events: usize,
    events: u64,
    mevents_per_sec: f64,
    switches_per_kevent: f64,
    copied_bytes_per_event: f64,
    pages_per_kevent: f64,
    /// Platform-wide counters over the run (authoritative).
    boundary: BoundaryEvents,
    /// The gateway's own per-tenant metering of the same run; `switches`
    /// and `copied_bytes` must agree with the platform view.
    gateway_switches: u64,
    gateway_copied_bytes: u64,
    gateway_invocations: u64,
}

/// Everything the gate measured, serialized to `BENCH_boundary.json`.
#[derive(Serialize)]
struct BoundaryReport {
    generated_by: &'static str,
    host_calibration: Calibration,
    hikey_model: CostModel,
    adaptive_batch_events: usize,
    scale: RunScale,
    regimes: Vec<RegimeRow>,
    gates: GateVerdict,
}

#[derive(Serialize)]
struct GateVerdict {
    max_switches_per_kevent: f64,
    max_copied_bytes_per_event: f64,
    min_adaptive_gain: f64,
    measured_switches_per_kevent: f64,
    measured_copied_bytes_per_event: f64,
    measured_adaptive_gain: f64,
    pass: bool,
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn run_regime(
    label: &str,
    variant: EngineVariant,
    workers: usize,
    batch: usize,
    scale: RunScale,
) -> RegimeRow {
    let engine =
        Engine::new(EngineConfig::for_variant(variant, workers), BenchId::WinSum.pipeline(batch));
    let chunks = BenchId::WinSum.stream(scale.windows, scale.events_per_window, 42);
    let tz_before = engine.platform().stats().snapshot();
    drive(&engine, chunks, variant, batch, StreamSide::Left);
    let metrics = engine.metrics();
    let boundary = engine.platform().stats().snapshot().delta_since(&tz_before).boundary_events();
    let gateway = engine.boundary_events();
    let events = metrics.events_ingested;
    let per_kevent = |x: u64| x as f64 * 1_000.0 / events.max(1) as f64;
    RegimeRow {
        label: label.to_string(),
        variant: variant.label().to_string(),
        workers,
        batch_events: batch,
        events,
        mevents_per_sec: metrics.events_per_sec() / 1e6,
        switches_per_kevent: per_kevent(boundary.switches),
        copied_bytes_per_event: boundary.copied_bytes as f64 / events.max(1) as f64,
        pages_per_kevent: per_kevent(boundary.pages_committed),
        boundary,
        gateway_switches: gateway.switches,
        gateway_copied_bytes: gateway.copied_bytes,
        gateway_invocations: gateway.invocations,
    }
}

fn main() {
    // Calibrate first: the adaptive regimes exist to show that a batch size
    // derived from measured switch costs amortizes the boundary, so the
    // measurement belongs in the committed record.
    let calibration = CostModel::calibrate();
    let hikey = CostModel::hikey();
    println!(
        "host calibration (1 GHz reference clock): switch proxy {} ns, copy {} ns/page, \
         os commit {} ns/page, tee commit {} ns/page",
        calibration.switch_proxy_nanos,
        calibration.copy_nanos_per_page,
        calibration.os_page_commit_nanos,
        calibration.tee_page_commit_nanos,
    );
    println!(
        "hikey reference: switch {} ns; calibrated host: switch {} ns",
        hikey.switch_nanos(),
        calibration.model.switch_nanos(),
    );

    let scale = RunScale::from_env();
    // The engines in this gate run the HiKey model (the platform the paper
    // measures); ask one what batch size its adaptive batcher derives.
    let probe = Engine::new(
        EngineConfig::for_variant(EngineVariant::Sbt, 4),
        BenchId::WinSum.pipeline(scale.batch_events),
    );
    let batcher = probe.adaptive_batcher(BenchId::WinSum.event_bytes());
    let adaptive = batcher.events_per_batch();
    drop(probe);
    println!(
        "adaptive batcher: {} ns fixed boundary cost per batch -> {} events/batch \
         ({:.2}% boundary overhead)",
        batcher.fixed_nanos(),
        adaptive,
        batcher.overhead_fraction(adaptive) * 100.0,
    );

    let small = 1_000usize;
    let regimes = vec![
        run_regime("fixed-small", EngineVariant::Sbt, 4, small, scale),
        run_regime("fixed-mid", EngineVariant::Sbt, 4, scale.batch_events, scale),
        run_regime("adaptive", EngineVariant::Sbt, 4, adaptive, scale),
        run_regime("fixed-mid/via-os", EngineVariant::SbtIoViaOs, 4, scale.batch_events, scale),
        run_regime("adaptive/via-os", EngineVariant::SbtIoViaOs, 4, adaptive, scale),
    ];

    let table: Vec<Vec<String>> = regimes
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.variant.clone(),
                r.workers.to_string(),
                r.batch_events.to_string(),
                format!("{:.3}", r.mevents_per_sec),
                format!("{:.2}", r.switches_per_kevent),
                format!("{:.2}", r.copied_bytes_per_event),
                format!("{:.3}", r.pages_per_kevent),
                r.boundary.invocations.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "TEE boundary profile — WinSum, {} windows x {} events",
            scale.windows, scale.events_per_window
        ),
        &[
            "regime",
            "variant",
            "workers",
            "batch",
            "Mevents/s",
            "switches/Kevent",
            "copied B/event",
            "pages/Kevent",
            "invocations",
        ],
        &table,
    );

    // Recorded baselines (quick scale, HiKey model). The adaptive regime
    // makes one crossing per 40 K-event batch plus the watermark and fire
    // crossings of each window: 20 over the 400 K-event run, 0.05 switches
    // per 1 K events. Via-OS ingress copies exactly the 12-byte wire record
    // per event. The switch ceiling keeps the 1.56x headroom the gate has
    // always had over its measurement; the counters are deterministic.
    let max_switches = env_f64("SBT_BOUNDARY_GATE_SWITCHES_PER_KEVENT", 0.078);
    let max_copied = env_f64("SBT_BOUNDARY_GATE_COPIED_BYTES_PER_EVENT", 15.0);
    let min_gain = env_f64("SBT_BOUNDARY_GATE_MIN_GAIN", 1.05);

    let adaptive_row = &regimes[2];
    let small_row = &regimes[0];
    let via_os_row = &regimes[4];
    let gain = adaptive_row.mevents_per_sec / small_row.mevents_per_sec.max(f64::MIN_POSITIVE);

    let mut failures = Vec::new();
    if adaptive_row.switches_per_kevent > max_switches {
        failures.push(format!(
            "adaptive regime made {:.3} world switches per 1K events (baseline {max_switches})",
            adaptive_row.switches_per_kevent
        ));
    }
    if via_os_row.copied_bytes_per_event > max_copied {
        failures.push(format!(
            "via-OS ingress copied {:.2} bytes/event across the boundary (baseline {max_copied})",
            via_os_row.copied_bytes_per_event
        ));
    }
    for r in regimes.iter().filter(|r| r.variant == EngineVariant::Sbt.label()) {
        if r.boundary.copied_bytes != 0 {
            failures.push(format!(
                "trusted-IO regime {:?} copied {} bytes across the boundary (must be zero-copy)",
                r.label, r.boundary.copied_bytes
            ));
        }
    }
    if gain < min_gain {
        failures.push(format!(
            "adaptive batching gained only {:.3}x over {small}-event batches (minimum {min_gain}x)",
            gain
        ));
    }
    // The gateway's per-tenant metering and the platform's global counters
    // watch the same boundary; disagreement means a crossing went unmetered.
    for r in &regimes {
        if r.gateway_switches != r.boundary.switches
            || r.gateway_copied_bytes != r.boundary.copied_bytes
        {
            failures.push(format!(
                "gateway metering disagrees with platform counters on {:?}: \
                 {}sw/{}B vs {}sw/{}B",
                r.label,
                r.gateway_switches,
                r.gateway_copied_bytes,
                r.boundary.switches,
                r.boundary.copied_bytes
            ));
        }
    }

    let verdict = GateVerdict {
        max_switches_per_kevent: max_switches,
        max_copied_bytes_per_event: max_copied,
        min_adaptive_gain: min_gain,
        measured_switches_per_kevent: adaptive_row.switches_per_kevent,
        measured_copied_bytes_per_event: via_os_row.copied_bytes_per_event,
        measured_adaptive_gain: gain,
        pass: failures.is_empty(),
    };
    println!(
        "\ngate: adaptive {:.3} switches/Kevent (max {max_switches}), via-OS {:.2} B/event \
         (max {max_copied}), adaptive gain {gain:.2}x over {small}-event batches (min {min_gain}x)",
        verdict.measured_switches_per_kevent, verdict.measured_copied_bytes_per_event,
    );

    let report = BoundaryReport {
        generated_by: "cargo run --release -p sbt_bench --bin boundary_gate",
        host_calibration: calibration,
        hikey_model: hikey,
        adaptive_batch_events: adaptive,
        scale,
        regimes,
        gates: verdict,
    };
    // The committed record at the repo root (cargo run's working directory
    // is the workspace root), plus the usual evaluation copy.
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_boundary.json", json + "\n") {
                eprintln!("could not write BENCH_boundary.json: {e}");
            } else {
                eprintln!("(boundary record written to BENCH_boundary.json)");
            }
        }
        Err(e) => eprintln!("could not serialize boundary report: {e}"),
    }
    sbt_bench::dump_json("boundary_gate", &report);

    if !report.gates.pass {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("boundary gate passed");
}
