//! Rounds of the single-engine workloads (`winsum`, `topk`, `join`): a fresh
//! `Engine` per round, driven either closed-loop (next call as soon as the
//! last returns) or paced (each batch and watermark submitted at its due
//! time, delays timed from when they were due).

use crate::cloud::{self, Trail, Verdict};
use crate::procfs::CpuTime;
use crate::spans::Recorder;
use crate::workload::{EngineInputs, Spec};
use sbt_dataplane::stats::DataPlaneSnapshot;
use sbt_engine::{Engine, EngineConfig, EngineVariant, GatewayBoundary, IngestStatus, StreamSide};
use sbt_types::TenantId;
use sbt_tz::StatSnapshot;
use sbt_workloads::transport::Delivery;
use std::time::{Duration, Instant};

/// How a round submits its load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Closed loop, one client: the next call is made when the last returns.
    Closed,
    /// Open loop at a fixed rate in Mevents/s.
    Paced(f64),
}

/// Everything one round produced.
pub struct Round {
    /// First ingest call to last watermark return, by the benchmark's clock.
    pub wall_s: f64,
    /// Input events of windows whose result was egressed, opened and matched.
    pub events_ok: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// High-water mark of committed secure memory (the platform's own gauge;
    /// a round has a platform to itself, so this is the round's peak).
    pub peak_bytes: u64,
    /// Bytes the uArray allocator reclaimed over the round (every page it
    /// committed, since a finished round holds nothing live).
    pub reclaimed_bytes: u64,
    pub backpressure: u64,
    pub rejected_batches: u64,
    pub tz: StatSnapshot,
    pub gateway: GatewayBoundary,
    pub plane: DataPlaneSnapshot,
    pub executed: u64,
    pub steals: u64,
    pub parks: u64,
    /// Duration of each driver call, milliseconds.
    pub ingest_ms: Vec<f64>,
    pub fire_ms: Vec<f64>,
    /// Paced rounds: watermark due → results out, per window.
    pub delays_ms: Vec<f64>,
    /// Paced rounds: how late each submission started.
    pub lags_ms: Vec<f64>,
    pub lag_mid_ms: f64,
    pub lag_end_ms: f64,
    pub late_windows: u64,
    pub sustainable: bool,
    pub spin_ms: f64,
    pub cpu: CpuTime,
    pub verdict: Verdict,
    /// One trail per tenant (one in all for a single engine).
    pub trails: Vec<Trail>,
    /// Spans the program's own tracer recorded (traced rounds only).
    pub program_spans: u64,
    pub program_spans_dropped: u64,
    /// Server rounds only: per tenant, each window's output delay as the
    /// program's own `EngineMetrics` report it, milliseconds.
    pub tenant_delays_ms: Vec<Vec<f64>>,
    pub checkpoints: u64,
    pub drr_charged: u64,
    pub drr_penalties: u64,
}

impl Round {
    pub fn empty(spin_ms: f64) -> Round {
        Round {
            wall_s: 0.0,
            events_ok: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            peak_bytes: 0,
            reclaimed_bytes: 0,
            backpressure: 0,
            rejected_batches: 0,
            tz: StatSnapshot::default(),
            gateway: GatewayBoundary::default(),
            plane: DataPlaneSnapshot::default(),
            executed: 0,
            steals: 0,
            parks: 0,
            ingest_ms: Vec::new(),
            fire_ms: Vec::new(),
            delays_ms: Vec::new(),
            lags_ms: Vec::new(),
            lag_mid_ms: 0.0,
            lag_end_ms: 0.0,
            late_windows: 0,
            sustainable: true,
            spin_ms,
            cpu: CpuTime::default(),
            verdict: Verdict::default(),
            trails: Vec::new(),
            program_spans: 0,
            program_spans_dropped: 0,
            tenant_delays_ms: Vec::new(),
            checkpoints: 0,
            drr_charged: 0,
            drr_penalties: 0,
        }
    }
}

/// Counter-wise `after - before` of two data-plane snapshots.
pub fn plane_delta(after: &DataPlaneSnapshot, before: &DataPlaneSnapshot) -> DataPlaneSnapshot {
    DataPlaneSnapshot {
        invocations: after.invocations - before.invocations,
        compute_nanos: after.compute_nanos - before.compute_nanos,
        memory_nanos: after.memory_nanos - before.memory_nanos,
        events_ingested: after.events_ingested - before.events_ingested,
        bytes_ingested: after.bytes_ingested - before.bytes_ingested,
        decrypt_nanos: after.decrypt_nanos - before.decrypt_nanos,
        egress_count: after.egress_count - before.egress_count,
        audit_records: after.audit_records - before.audit_records,
    }
}

/// A fixed piece of arithmetic timed before every round. It touches no
/// memory and calls nothing, so when it runs slow the host was busy — a
/// witness for reading outliers, never part of a metric that is gated.
pub fn spin_witness() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..2_000_000u64 {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The calls one window makes, in order, with their due offsets (as a
/// fraction of the window period) for the paced pass: batch `i` of `n` is
/// complete — so due — at `(i+1)/n` of the window, and the watermark at its
/// end.
enum Step {
    Ingest(Vec<Delivery>, StreamSide, f64),
    Watermark(StreamSide),
}

fn steps(window: &crate::workload::WindowInput, pacing: Pacing) -> Vec<Step> {
    let mut out = Vec::new();
    match pacing {
        Pacing::Closed => {
            out.push(Step::Ingest(window.left.clone(), StreamSide::Left, 0.0));
            if !window.right.is_empty() {
                out.push(Step::Ingest(window.right.clone(), StreamSide::Right, 0.0));
            }
        }
        Pacing::Paced(_) => {
            let n = window.left.len().max(window.right.len());
            for i in 0..n {
                let due = (i + 1) as f64 / n as f64;
                if let Some(d) = window.left.get(i) {
                    out.push(Step::Ingest(vec![d.clone()], StreamSide::Left, due));
                }
                if let Some(d) = window.right.get(i) {
                    out.push(Step::Ingest(vec![d.clone()], StreamSide::Right, due));
                }
            }
        }
    }
    out.push(Step::Watermark(StreamSide::Left));
    if !window.right.is_empty() {
        out.push(Step::Watermark(StreamSide::Right));
    }
    out
}

/// Run one round on a fresh engine. `recorder` (traced pass only) receives
/// the driver's spans and switches the program's own tracing on.
pub fn run_round(
    spec: &Spec,
    inputs: &EngineInputs,
    workers: usize,
    variant: EngineVariant,
    pacing: Pacing,
    mut recorder: Option<&mut Recorder>,
) -> Round {
    let spin_ms = spin_witness();
    let pipeline = spec.pipeline();
    let target_ms = f64::from(pipeline.target_delay());
    let engine = Engine::new(EngineConfig::for_variant(variant, workers), pipeline);
    let registry = engine.telemetry().clone();
    registry.set_enabled(recorder.is_some());

    // Arc clones of the pre-encrypted deliveries, made before the clock starts.
    let plan: Vec<Vec<Step>> = inputs.windows.iter().map(|w| steps(w, pacing)).collect();
    let period = match pacing {
        Pacing::Closed => Duration::ZERO,
        Pacing::Paced(rate) => {
            Duration::from_secs_f64(spec.events_per_window_total() as f64 / (rate * 1e6))
        }
    };

    let tz_before = engine.platform().stats().snapshot();
    let plane_before = engine.data_plane().stats().snapshot();
    let pool = engine.worker_pool().clone();
    let (exec_before, steals_before, parks_before) = (pool.executed(), pool.steals(), pool.parks());
    let cpu_before = CpuTime::now();

    let mut round = Round::empty(spin_ms);
    let keychain = engine
        .data_plane()
        .verifier_keys(TenantId::DEFAULT)
        .expect("the default tenant always has keys");
    let declared = engine.pipeline().spec();

    let root = recorder.as_mut().map(|r| r.begin("round", crate::spans::NO_TRACE));
    let t0 = Instant::now();
    let windows = plan.len();
    for (w, window_steps) in plan.into_iter().enumerate() {
        let window_start = t0 + period * w as u32;
        let window_end = window_start + period;
        for step in window_steps {
            match step {
                Step::Ingest(deliveries, side, due_frac) => {
                    if pacing != Pacing::Closed {
                        let due = window_start + period.mul_f64(due_frac);
                        wait_until(due);
                        round.lags_ms.push(ms(Instant::now().saturating_duration_since(due)));
                    }
                    let batches = deliveries.len() as u64;
                    round.attempted += batches;
                    let span = recorder.as_mut().map(|r| r.begin("engine.ingest", w as u64));
                    let t = Instant::now();
                    let status = engine.ingest_many(deliveries, side);
                    round.ingest_ms.push(ms(t.elapsed()));
                    if let (Some(r), Some(id)) = (recorder.as_mut(), span) {
                        r.end(id);
                    }
                    match status {
                        Ok(IngestStatus::Accepted) => {}
                        Ok(IngestStatus::Backpressure) => round.backpressure += 1,
                        Err(e) => {
                            round.rejected_batches += batches;
                            round.failed += batches;
                            round.failures.push(format!("window {w}: ingest rejected: {e}"));
                        }
                    }
                }
                Step::Watermark(side) => {
                    if pacing != Pacing::Closed {
                        wait_until(window_end);
                        let lag = ms(Instant::now().saturating_duration_since(window_end));
                        round.lags_ms.push(lag);
                        if w == windows / 2 {
                            round.lag_mid_ms = lag;
                        }
                        if w + 1 == windows {
                            round.lag_end_ms = lag;
                        }
                    }
                    let span = recorder.as_mut().map(|r| r.begin("engine.fire", w as u64));
                    let t = Instant::now();
                    let fired = engine.advance_watermark_on(inputs.windows[w].watermark, side);
                    round.fire_ms.push(ms(t.elapsed()));
                    if let (Some(r), Some(id)) = (recorder.as_mut(), span) {
                        r.end(id);
                    }
                    if let Err(e) = fired {
                        round.failures.push(format!("window {w}: fire failed: {e}"));
                    }
                }
            }
        }
        if pacing != Pacing::Closed {
            let delay = ms(Instant::now().saturating_duration_since(window_end));
            if delay > target_ms {
                round.late_windows += 1;
            }
            round.delays_ms.push(delay);
        }
    }
    round.wall_s = t0.elapsed().as_secs_f64();
    if let (Some(r), Some(id)) = (recorder.as_mut(), root) {
        r.end(id);
    }

    round.cpu = CpuTime::now().since(&cpu_before);
    round.tz = engine.platform().stats().snapshot().delta_since(&tz_before);
    round.gateway = engine.boundary_events();
    round.plane = plane_delta(&engine.data_plane().stats().snapshot(), &plane_before);
    round.executed = pool.executed() - exec_before;
    round.steals = pool.steals() - steals_before;
    round.parks = pool.parks() - parks_before;
    round.peak_bytes = engine.platform().secure_mem().high_water();
    round.reclaimed_bytes = engine.data_plane().memory_report().reclaimed_bytes;
    // A backlog that is larger at the end than at the midpoint — by more
    // than one window period, so scheduler jitter does not count — means the
    // fixed rate was not sustained and no delay in this round can be trusted.
    if let Pacing::Paced(_) = pacing {
        round.sustainable = round.lag_end_ms <= round.lag_mid_ms + ms(period);
    }
    if recorder.is_some() {
        round.program_spans = registry.tracer().drain(|_| {}) as u64;
        round.program_spans_dropped = registry.tracer().dropped();
        registry.set_enabled(false);
    }

    // The consumer side, outside the timed region.
    let segments = engine.drain_audit_segments();
    let results = engine.results();
    let check = || {
        cloud::check(
            spec.name,
            &results,
            &inputs.expected,
            &segments,
            TenantId::DEFAULT,
            &keychain,
            &declared,
        )
    };
    round.verdict = match recorder.as_mut() {
        Some(r) => r.span("cloud.check", crate::spans::NO_TRACE, check),
        None => check(),
    };
    // One operation per expected window, one for the trail.
    round.attempted += inputs.expected.len() as u64 + 1;
    round.failed += round.verdict.failed;
    round.failures.append(&mut round.verdict.failures);
    let ok_windows = round.verdict.windows_ok.iter().filter(|ok| **ok).count() as u64;
    round.events_ok = ok_windows * spec.events_per_window_total();
    round.trails = vec![Trail { segments, tenant: TenantId::DEFAULT, keychain, spec: declared }];
    round
}

/// Executor threads the load shape prescribes: one core is left to the
/// driver thread, which helps while it joins, so runnable threads never
/// exceed `nproc`.
pub fn workers_for(nproc: usize) -> usize {
    nproc.saturating_sub(1).clamp(1, 3)
}

/// `std::thread::available_parallelism`, 1 if unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
