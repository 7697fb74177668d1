//! One workload, start to finish: set-up, the end-to-end passes (closed-loop
//! rounds, paced pass, cloud-side verification — all with tracing off) and
//! the traced pass with its layer probes.

use crate::metrics::{Decl, END_TO_END, PER_LAYER};
use crate::probes;
use crate::procfs;
use crate::single::{self, nproc, workers_for, Pacing, Round};
use crate::spans::{self_time_by_name, Recorder};
use crate::stats::{median, percentile, supported_tail, Summary};
use crate::tenants;
use crate::workload::{
    check_fingerprint, engine_inputs, tenant_inputs, wire_inputs, EngineInputs, Kind, SetupTimings,
    Spec, TenantInputs,
};
use crate::{cloud, json::Json};
use sbt_engine::{Engine, EngineConfig, EngineVariant};
use sbt_uarray::PAGE_SIZE;
use std::path::PathBuf;
use std::time::Instant;

/// HiKey's modelled clock, cycles per nanosecond: boundary time from the
/// platform's cost model is reported in cycles so a modelled quantity (a
/// count × a constant) never reads like a measured time.
const HIKEY_CYCLES_PER_NS: f64 = 1.2;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// What one pass over one workload reports.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub fingerprint: String,
    pub nproc: usize,
    pub workers: usize,
    pub metrics: Vec<(Decl, Summary)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn tally(&mut self, round: &mut Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        for failure in round.failures.drain(..) {
            if self.failures.len() < 16 {
                self.failures.push(failure);
            }
        }
    }
}

/// A workload's inputs, whichever shape they take.
enum Inputs {
    Engine(EngineInputs),
    Tenants(TenantInputs),
}

struct Loaded {
    spec: Spec,
    workers: usize,
    inputs: Inputs,
    /// Cleartext copy of a single engine's deliveries, for insecure rounds.
    clear: Option<EngineInputs>,
}

impl Loaded {
    /// One full set-up: generate + pre-encrypt the inputs, compute the
    /// reference, build the engine (or the server, admitting its tenants).
    fn set_up(spec: Spec, seed: u64, workers: usize) -> Result<Loaded, String> {
        let inputs = match spec.kind {
            Kind::Tenants => {
                let inputs = tenant_inputs(&spec, seed);
                drop(tenants::build_server(&spec, workers, EngineVariant::Sbt)?);
                Inputs::Tenants(inputs)
            }
            _ => {
                let inputs = engine_inputs(&spec, seed);
                drop(Engine::new(
                    EngineConfig::for_variant(EngineVariant::Sbt, workers),
                    spec.pipeline(),
                ));
                Inputs::Engine(inputs)
            }
        };
        Ok(Loaded { spec, workers, inputs, clear: None })
    }

    fn fingerprint(&self) -> &str {
        match &self.inputs {
            Inputs::Engine(i) => &i.fingerprint,
            Inputs::Tenants(i) => &i.fingerprint,
        }
    }

    fn timings(&self) -> SetupTimings {
        match &self.inputs {
            Inputs::Engine(i) => i.timings,
            Inputs::Tenants(i) => i.timings,
        }
    }

    /// Prepare what insecure rounds need (the traced pass only).
    fn prepare_insecure(&mut self) {
        if let Inputs::Engine(i) = &self.inputs {
            self.clear = Some(wire_inputs(
                &self.spec,
                i.chunks.clone(),
                i.right_chunks.clone(),
                i.expected.clone(),
                false,
            ));
        }
    }

    fn closed_round(
        &self,
        workers: usize,
        variant: EngineVariant,
        recorder: Option<&mut Recorder>,
    ) -> Result<Round, String> {
        match &self.inputs {
            Inputs::Tenants(i) => tenants::run_round(&self.spec, i, workers, variant, recorder),
            Inputs::Engine(i) => {
                let inputs = match (&self.clear, variant.encrypted_ingress()) {
                    (Some(clear), false) => clear,
                    _ => i,
                };
                Ok(single::run_round(
                    &self.spec,
                    inputs,
                    workers,
                    variant,
                    Pacing::Closed,
                    recorder,
                ))
            }
        }
    }
}

fn throughput(round: &Round) -> f64 {
    round.events_ok as f64 / 1e6 / round.wall_s.max(1e-9)
}

fn kevents(round: &Round) -> f64 {
    (round.events_ok as f64 / 1e3).max(1e-9)
}

/// Server rounds: the median across tenants of each tenant's p50 output
/// delay, as the program's own per-window results report it.
fn tenants_delay_p50(round: &Round) -> f64 {
    median(&round.tenant_delays_ms.iter().map(|d| median(d)).collect::<Vec<_>>())
}

fn set_up_repeatedly(
    spec: Spec,
    opts: &Options,
    workers: usize,
) -> Result<(Loaded, Vec<f64>), String> {
    let repeats = if opts.quick { 2 } else { 5 };
    let mut seconds = Vec::new();
    let mut loaded = None;
    for _ in 0..repeats {
        let t = Instant::now();
        loaded = Some(Loaded::set_up(spec, opts.seed, workers)?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    let loaded = loaded.expect("at least one set-up ran");
    check_fingerprint(&spec, opts.seed, opts.quick, loaded.fingerprint())?;
    Ok((loaded, seconds))
}

fn outcome_for(loaded: &Loaded) -> Outcome {
    Outcome {
        workload: loaded.spec.name,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        fingerprint: loaded.fingerprint().to_string(),
        nproc: nproc(),
        workers: loaded.workers,
        metrics: Vec::new(),
    }
}

/// The three end-to-end passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Closed,
    Paced,
    Verify,
}

/// Which pass runs next: the one furthest behind its share of the time spent
/// so far. The passes take turns throughout the run instead of running one
/// after the other, so every metric's samples are spread over the whole run
/// and a busy stretch on a shared host lands on all of them alike rather
/// than on whichever pass happened to be running.
fn next_pass(spent: &[(Pass, f64, f64)]) -> Pass {
    spent
        .iter()
        .filter(|(_, share, _)| *share > 0.0)
        .min_by(|a, b| (a.2 / a.1).total_cmp(&(b.2 / b.1)))
        .map_or(Pass::Closed, |(pass, _, _)| *pass)
}

/// The end-to-end passes, tracing off throughout.
pub fn run_end_to_end(spec: Spec, opts: &Options) -> Result<Outcome, String> {
    let workers = workers_for(nproc());
    let (loaded, setup_s) = set_up_repeatedly(spec, opts, workers)?;
    let mut outcome = outcome_for(&loaded);
    // (pass, share of the measuring time, seconds spent so far). The server
    // workload has no paced pass: `serve_with` cannot be paced from outside.
    let paced_share = if spec.kind == Kind::Tenants { 0.0 } else { 0.40 };
    let mut spent = [
        (Pass::Closed, 0.85 - paced_share, 0.0),
        (Pass::Paced, paced_share, 0.0),
        (Pass::Verify, 0.15, 0.0),
    ];

    let mut rounds: Vec<Round> = Vec::new();
    let mut delays: Vec<f64> = Vec::new();
    let mut delay_p50s = Vec::new();
    let mut unsustained = 0;
    let mut verify = Vec::new();
    let started = Instant::now();
    while rounds.len() < 3
        || verify.len() < 3
        || (paced_share > 0.0 && delay_p50s.len() < 3)
        || started.elapsed().as_secs_f64() < opts.seconds
    {
        // The cloud side needs a trail to verify, so a closed round goes first.
        let pass = if rounds.is_empty() { Pass::Closed } else { next_pass(&spent) };
        let t = Instant::now();
        match (pass, &loaded.inputs) {
            (Pass::Paced, Inputs::Engine(inputs)) => {
                let mut round = single::run_round(
                    &spec,
                    inputs,
                    workers,
                    EngineVariant::Sbt,
                    Pacing::Paced(spec.ref_rate_mev_s),
                    None,
                );
                outcome.tally(&mut round);
                unsustained += usize::from(!round.sustainable);
                delay_p50s.push(median(&round.delays_ms));
                delays.append(&mut round.delays_ms);
            }
            (Pass::Verify, _) => {
                let last = rounds.last().expect("a closed round ran first");
                verify.push(cloud::verify_rate(&last.trails, opts.seconds * 0.01));
            }
            _ => {
                let mut round = loaded.closed_round(workers, EngineVariant::Sbt, None)?;
                outcome.tally(&mut round);
                rounds.push(round);
            }
        }
        if let Some(entry) = spent.iter_mut().find(|(p, _, _)| *p == pass) {
            entry.2 += t.elapsed().as_secs_f64();
        }
    }
    // A round that fell behind the committed rate keeps its delays — they
    // are what a user would have seen, and they are large, so the bound on
    // `delay_p50_ms` catches a program that cannot carry the rate. It is not
    // a failed operation: on a shared host it is usually the host.
    if unsustained > 0 {
        eprintln!(
            "note: the backlog grew in {unsustained} of {} paced rounds at {} Mev/s",
            delay_p50s.len(),
            spec.ref_rate_mev_s
        );
    }
    // The delay is the median over every paced window of the run; its
    // quartiles are those of the rounds' own medians (the run-to-run view
    // `compare` wants). The server workload has one value per round.
    let delay = if spec.kind == Kind::Tenants {
        Summary::of(&rounds.iter().map(tenants_delay_p50).collect::<Vec<_>>())
    } else {
        Summary { median: median(&delays), n: delays.len(), ..Summary::of(&delay_p50s) }
    };

    let per_round =
        |f: &dyn Fn(&Round) -> f64| Summary::of(&rounds.iter().map(f).collect::<Vec<_>>());
    let values = [
        Summary::of(&setup_s),
        per_round(&throughput),
        delay,
        per_round(&|r| r.peak_bytes as f64 / 1e6),
        per_round(&|r| r.verdict.audit_wire_bytes as f64 / kevents(r)),
        per_round(&|r| {
            r.tz.total_overhead_nanos() as f64 * HIKEY_CYCLES_PER_NS / (kevents(r) * 1e3)
        }),
        Summary::of(&verify),
    ];
    outcome.metrics = END_TO_END.into_iter().zip(values).collect();
    Ok(outcome)
}

/// Fractions of a window's events each primitive sees, per workload kind —
/// the unit counts of the attribution.
struct Mix {
    sort: f64,
    merge_levels: f64,
    topk: f64,
    join: f64,
    sum: f64,
    filter: f64,
}

fn mix_for(spec: &Spec) -> Mix {
    let batches = spec.events_per_window.div_ceil(spec.batch_events) as f64;
    let levels = batches.log2().ceil();
    match spec.kind {
        Kind::WinSum => {
            Mix { sort: 0.0, merge_levels: 0.0, topk: 0.0, join: 0.0, sum: 1.0, filter: 0.0 }
        }
        Kind::TopK => {
            Mix { sort: 1.0, merge_levels: levels, topk: 1.0, join: 0.0, sum: 0.0, filter: 0.0 }
        }
        Kind::Join => {
            Mix { sort: 1.0, merge_levels: levels, topk: 0.0, join: 1.0, sum: 0.0, filter: 0.0 }
        }
        // Tenants 1–2 sum, tenant 3 sorts/merges/top-Ks, tenant 4 filters:
        // a quarter of the window's events each.
        Kind::Tenants => Mix {
            sort: 0.25,
            merge_levels: 0.25 * levels,
            topk: 0.25,
            join: 0.0,
            sum: 0.5,
            filter: 0.25,
        },
    }
}

fn per_mev(events: f64, rate_mev_s: f64) -> f64 {
    if rate_mev_s > 0.0 {
        events / 1e6 / rate_mev_s * 1e3
    } else {
        0.0
    }
}

/// The traced pass and the layer probes.
pub fn run_layers(spec: Spec, opts: &Options) -> Result<Outcome, String> {
    let workers = workers_for(nproc());
    let mut loaded = Loaded::set_up(spec, opts.seed, workers)?;
    check_fingerprint(&spec, opts.seed, opts.quick, loaded.fingerprint())?;
    loaded.prepare_insecure();
    let mut outcome = outcome_for(&loaded);
    let windows = f64::from(spec.windows);

    // Untraced and traced closed-loop rounds, alternating, so both see the
    // same host.
    let started = Instant::now();
    let mut recorder = Recorder::new();
    let (mut plain, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    while traced.len() < 2 || started.elapsed().as_secs_f64() < opts.seconds * 0.35 {
        let mut round = loaded.closed_round(workers, EngineVariant::Sbt, None)?;
        outcome.tally(&mut round);
        plain.push(round);
        let mut round = loaded.closed_round(workers, EngineVariant::Sbt, Some(&mut recorder))?;
        outcome.tally(&mut round);
        traced.push(round);
    }

    // Secure vs insecure, paired, alternating which side runs first.
    let started = Instant::now();
    let (mut secure, mut insecure) = (Vec::new(), Vec::new());
    while secure.len() < 3 || started.elapsed().as_secs_f64() < opts.seconds * 0.2 {
        let order = if secure.len() % 2 == 0 {
            [EngineVariant::Sbt, EngineVariant::Insecure]
        } else {
            [EngineVariant::Insecure, EngineVariant::Sbt]
        };
        for variant in order {
            let mut round = loaded.closed_round(workers, variant, None)?;
            outcome.tally(&mut round);
            match variant {
                EngineVariant::Sbt => secure.push(throughput(&round)),
                _ => insecure.push(throughput(&round)),
            }
        }
    }

    // Scaling: the same round on one worker (only meaningful with more).
    let scaling = if workers > 1 {
        let mut round = loaded.closed_round(1, EngineVariant::Sbt, None)?;
        outcome.tally(&mut round);
        median(&plain.iter().map(throughput).collect::<Vec<_>>()) / throughput(&round).max(1e-9)
    } else {
        1.0
    };

    // The driver-call view. A single engine has it already; the server
    // workload gets it from tenant 1's stream driven alone (see Spec::solo).
    let solo_inputs;
    let mut solo_recorder = Recorder::new();
    let (call_spec, call_inputs, call_traced, call_spans): (
        Spec,
        &EngineInputs,
        Vec<Round>,
        &Recorder,
    ) = match &loaded.inputs {
        Inputs::Engine(inputs) => (spec, inputs, Vec::new(), &recorder),
        Inputs::Tenants(inputs) => {
            let solo = spec.solo();
            solo_inputs = wire_inputs(
                &solo,
                inputs.chunks[0].clone(),
                Vec::new(),
                inputs.expected[0].clone(),
                true,
            );
            let mut rounds = Vec::new();
            for _ in 0..2 {
                let mut round = single::run_round(
                    &solo,
                    &solo_inputs,
                    workers,
                    EngineVariant::Sbt,
                    Pacing::Closed,
                    Some(&mut solo_recorder),
                );
                outcome.tally(&mut round);
                rounds.push(round);
            }
            (solo, &solo_inputs, rounds, &solo_recorder)
        }
    };
    let call_rounds: &[Round] = if call_traced.is_empty() { &traced } else { &call_traced };

    // One or two paced rounds for the tail and the generator's lateness.
    let mut paced = Vec::new();
    for _ in 0..2 {
        let mut round = single::run_round(
            &call_spec,
            call_inputs,
            workers,
            EngineVariant::Sbt,
            Pacing::Paced(call_spec.ref_rate_mev_s),
            None,
        );
        outcome.tally(&mut round);
        paced.push(round);
    }

    // Layer probes over this workload's own inputs.
    let left_chunk = &call_inputs.chunks[0].events;
    let right_chunk = call_inputs.right_chunks.first().map_or(&[][..], |c| c.events.as_slice());
    let first = &call_inputs.windows[0];
    let batch = &first.left[0];
    let batch_events = &left_chunk[..batch.event_count.min(left_chunk.len())];
    let result_bytes = match &loaded.inputs {
        Inputs::Engine(i) => i.expected[0].payload_bytes(),
        Inputs::Tenants(i) => i.expected.iter().map(|e| e[0].payload_bytes()).max().unwrap_or(8),
    };
    let smc_empty_ns = probes::smc_empty_ns();
    let commit_ns = probes::uarray_commit_ns_per_page(batch_events);
    let grow_ns = probes::uarray_grow_ns_per_page(result_bytes);
    let ctr = probes::ctr_mb_s(&batch.wire_bytes);
    let hmac = probes::hmac_mb_s(result_bytes);
    let prim = probes::primitive_rates(spec.kind, left_chunk, right_chunk);
    let plane = probes::plane_probe(batch, result_bytes);
    let (checkpoint_ms, snapshot_kb) = probes::checkpoint_probe(&spec, &first.left, &first.right);
    let last_traced = traced.last().expect("at least two traced rounds ran");
    let attest = probes::attest_probe(&last_traced.trails, workers);
    // The server's generators encrypt lazily inside `serve_with`; set-up
    // timed the same generators drained standalone.
    let source_share = match &loaded.inputs {
        Inputs::Tenants(i) => {
            i.timings.encrypt_s
                / median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>()).max(1e-9)
        }
        Inputs::Engine(_) => 0.0,
    };

    // Fold the rounds into the per-layer numbers.
    let med = |rounds: &[Round], f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let threads = (workers + 1) as f64;
    let busy = |nanos: &dyn Fn(&Round) -> u64| {
        med(&plain, &|r| nanos(r) as f64 / 1e9 / (r.wall_s.max(1e-9) * threads))
    };
    let plain_thr = med(&plain, &throughput);
    let traced_thr = med(&traced, &throughput);
    let batches = |r: &Round| (r.ingest_ms.len().max(1)) as f64;

    // Shares of the driver's round: ingest and fire are the spans' own
    // durations, "other" is the round span's self time. (For the server
    // workload these are the solo rounds: its own round span has no
    // children, `serve_with` being one call.)
    let by_name = self_time_by_name(call_spans.spans());
    let self_of =
        |name: &str| by_name.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, ns)| *ns as f64);
    let round_total: f64 = call_spans
        .spans()
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| s.duration_ns() as f64)
        .sum::<f64>()
        .max(1.0);
    let (ingest_share, fire_share, other_share) = (
        self_of("engine.ingest") / round_total,
        self_of("engine.fire") / round_total,
        self_of("round") / round_total,
    );

    let delays: Vec<f64> = paced.iter().flat_map(|r| r.delays_ms.iter().copied()).collect();
    let lags: Vec<f64> = paced.iter().flat_map(|r| r.lags_ms.iter().copied()).collect();
    let late: u64 = paced.iter().map(|r| r.late_windows).sum();
    let tail = supported_tail(delays.len()).unwrap_or(50.0).min(95.0);
    let spins: Vec<f64> = plain.iter().chain(&traced).map(|r| r.spin_ms).collect();
    let cpu_total: f64 = plain.iter().map(|r| r.cpu.total_s()).sum();
    let cpu_sys: f64 = plain.iter().map(|r| r.cpu.sys_s).sum();
    let mev_total: f64 = plain.iter().map(|r| r.events_ok as f64 / 1e6).sum::<f64>().max(1e-9);
    let cloud_total =
        med(&traced, &|r| r.verdict.open_s + r.verdict.verify_s + r.verdict.replay_s).max(1e-12);

    // Attribution: Σ probe unit cost × unit count per window, against the
    // CPU a window really took.
    let events_w = spec.events_per_window_total() as f64;
    let mix = mix_for(&spec);
    let predicted_ms = events_w * plane.ingress_ns_per_event / 1e6
        + per_mev(events_w, prim.segment)
        + per_mev(events_w * mix.sort, prim.sort)
        + per_mev(events_w * mix.merge_levels, prim.merge)
        + per_mev(events_w * mix.topk, prim.topk)
        + per_mev(events_w * mix.join, prim.join)
        + per_mev(events_w * mix.sum, prim.sum)
        + per_mev(events_w * mix.filter, prim.filter)
        + med(&plain, &|r| r.plane.egress_count as f64) / windows * plane.egress_seal_us / 1e3
        + med(&plain, &|r| r.tz.smc_invocations as f64) / windows * plane.invoke_overhead_us / 1e3
        + med(&plain, &|r| r.verdict.audit_records as f64) / windows * attest.append_ns_per_record
            / 1e6
        + med(&plain, &|r| r.trails.iter().map(|t| t.segments.len()).sum::<usize>() as f64)
            / windows
            * attest.seal_us_per_segment
            / 1e3;
    let measured_ms = cpu_total * 1e3 / (plain.len() as f64 * windows);

    let timings = loaded.timings();
    let values: Vec<f64> = vec![
        // tz
        med(&plain, &|r| r.tz.boundary_events().switches as f64 / kevents(r)),
        med(&plain, &|r| r.tz.boundary_events().copied_bytes as f64 / (kevents(r) * 1e3)),
        med(&plain, &|r| r.tz.boundary_events().pages_committed as f64 / kevents(r)),
        smc_empty_ns,
        // uarray
        commit_ns,
        grow_ns,
        med(&plain, &|r| r.reclaimed_bytes as f64 / PAGE_SIZE as f64 / kevents(r)),
        // crypto
        ctr,
        hmac,
        // primitives
        prim.segment,
        prim.sort,
        prim.merge,
        prim.topk,
        prim.join,
        prim.sum,
        prim.filter,
        // dataplane
        plane.ingress_ns_per_event,
        plane.invoke_overhead_us,
        plane.egress_seal_us,
        checkpoint_ms,
        snapshot_kb,
        busy(&|r| r.plane.decrypt_nanos),
        busy(&|r| r.plane.compute_nanos),
        busy(&|r| r.plane.memory_nanos),
        // engine
        ingest_share,
        fire_share,
        median(&call_rounds.iter().flat_map(|r| r.ingest_ms.iter().copied()).collect::<Vec<_>>()),
        median(&call_rounds.iter().flat_map(|r| r.fire_ms.iter().copied()).collect::<Vec<_>>()),
        med(&plain, &|r| r.executed as f64) / windows,
        med(&plain, &|r| r.steals as f64) / windows,
        med(&plain, &|r| r.parks as f64) / windows,
        med(&plain, &|r| r.backpressure as f64 * 1e3 / batches(r)),
        median(&secure) / median(&insecure).max(1e-9),
        med(&plain, &|r| {
            r.events_ok as f64
                / 1e6
                / (r.wall_s + r.tz.total_overhead_nanos() as f64 / 1e9 / workers as f64).max(1e-9)
        }),
        scaling,
        // server
        med(&plain, &|r| r.rejected_batches as f64),
        med(&plain, &|r| r.backpressure as f64),
        med(&plain, &|r| r.checkpoints as f64),
        med(&plain, &|r| r.drr_charged as f64 / kevents(r)),
        med(&plain, &|r| r.drr_penalties as f64),
        med(&plain, &|r| match r.tenant_delays_ms.as_slice() {
            [first, second, ..] => median(first) / median(second).max(1e-9),
            _ => 0.0,
        }),
        source_share,
        // attest
        med(&plain, &|r| r.verdict.audit_records as f64 / kevents(r)),
        med(&plain, &|r| {
            r.verdict.audit_raw_bytes as f64 / (r.verdict.audit_wire_bytes as f64).max(1.0)
        }),
        attest.append_ns_per_record,
        attest.seal_us_per_segment,
        attest.decode_mb_s,
        attest.verify_serial_krec_s,
        attest.verify_parallel_krec_s,
        attest.replay_krec_s,
        // telemetry
        1.0 - traced_thr / plain_thr.max(1e-9),
        med(&traced, &|r| r.program_spans as f64 / kevents(r)),
        med(&traced, &|r| r.program_spans_dropped as f64),
        // workloads
        timings.generate_s,
        timings.wire_bytes as f64 / 1e6 / timings.encrypt_s.max(1e-9),
        timings.reference_s,
        // cloud
        med(&traced, &|r| r.verdict.opened_bytes as f64 / 1e6 / r.verdict.open_s.max(1e-9)),
        med(&traced, &|r| r.verdict.open_s) / cloud_total,
        med(&traced, &|r| r.verdict.verify_s) / cloud_total,
        med(&traced, &|r| r.verdict.replay_s) / cloud_total,
        // driver
        other_share,
        percentile(&lags, 90.0),
        median(&paced.iter().map(|r| r.lag_end_ms).collect::<Vec<_>>()),
        percentile(&delays, tail),
        1.0 - late as f64 / (delays.len().max(1)) as f64,
        paced.iter().filter(|r| !r.sustainable).count() as f64,
        plain.iter().chain(&traced).map(|r| r.verdict.stale_results as f64).sum(),
        median(&spins),
        spins.iter().copied().fold(0.0, f64::max),
        // proc
        cpu_total / mev_total,
        cpu_sys / cpu_total.max(1e-9),
        procfs::peak_rss_mb(),
        // attribution
        predicted_ms,
        measured_ms,
        (measured_ms - predicted_ms) / measured_ms.max(1e-9),
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());
    outcome.metrics = PER_LAYER.into_iter().zip(values.into_iter().map(Summary::single)).collect();

    // Spans go out once, when the traced pass has ended.
    let trace = Json::obj(vec![
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(opts.seed as f64)),
        ("spans", recorder.to_json()),
        ("solo_spans", solo_recorder.to_json()),
    ]);
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(opts.out_dir.join("trace.json"), trace.render()))
        .map_err(|e| format!("cannot write trace.json under {}: {e}", opts.out_dir.display()))?;
    Ok(outcome)
}
