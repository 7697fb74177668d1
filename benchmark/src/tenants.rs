//! Rounds of `tenants4_small_batch`: one `StreamServer`, four tenants at the
//! paper's delay targets, 1 000-event batches, deficit round-robin serving,
//! policy checkpoints about once per eight windows.
//!
//! Closed-loop only: `serve_with` is a blocking pull loop, so nothing can be
//! submitted "late" from outside. Its generators encrypt lazily inside the
//! timed region; `server.source_encrypt_share` reports that share.

use crate::cloud::{self, Trail};
use crate::procfs::CpuTime;
use crate::single::{plane_delta, spin_witness, Round};
use crate::spans::{Recorder, NO_TRACE};
use crate::workload::{tenant_generator, Spec, TenantInputs, TENANTS, TENANT_QUOTA_BYTES};
use sbt_engine::{EngineVariant, GatewayBoundary};
use sbt_server::{Scheduler, ServerConfig, StreamServer, TenantConfig, TenantStream};
use sbt_types::TenantId;
use std::sync::Arc;
use std::time::Instant;

/// Build the server and admit the four tenants. A refusal is a set-up
/// failure: the workload never falls back to relaxed targets.
pub fn build_server(
    spec: &Spec,
    workers: usize,
    variant: EngineVariant,
) -> Result<(Arc<StreamServer>, Vec<TenantId>), String> {
    let config = ServerConfig { variant, ..ServerConfig::default().with_cores(workers) };
    let server = StreamServer::new(config);
    // A checkpoint about once per eight windows of one tenant's traffic.
    let every = 8 * spec.events_per_window as u64;
    let ids = (0..TENANTS)
        .map(|t| {
            let config = TenantConfig::new(&format!("tenant-{}", t + 1), TENANT_QUOTA_BYTES[t])
                .with_checkpoint_every_records(every);
            server
                .admit(config, spec.tenant_pipeline(t))
                .map_err(|e| format!("tenant {} refused admission: {e}", t + 1))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((server, ids))
}

/// Run one round on a fresh server.
pub fn run_round(
    spec: &Spec,
    inputs: &TenantInputs,
    workers: usize,
    variant: EngineVariant,
    mut recorder: Option<&mut Recorder>,
) -> Result<Round, String> {
    let spin_ms = spin_witness();
    let (server, ids) = build_server(spec, workers, variant)?;
    let registry = server.telemetry().clone();
    registry.set_enabled(recorder.is_some());
    let streams: Vec<TenantStream> = ids
        .iter()
        .zip(&inputs.chunks)
        .map(|(id, chunks)| TenantStream {
            tenant: *id,
            generator: tenant_generator(spec, *id, chunks.clone(), variant.encrypted_ingress()),
        })
        .collect();

    let tz_before = server.platform().stats().snapshot();
    let plane_before = server.data_plane().stats().snapshot();
    let pool = server.worker_pool().clone();
    let (exec_before, steals_before, parks_before) = (pool.executed(), pool.steals(), pool.parks());
    let counters_before = registry.snapshot();
    let cpu_before = CpuTime::now();

    let mut round = Round::empty(spin_ms);
    let root = recorder.as_mut().map(|r| r.begin("round", NO_TRACE));
    let t0 = Instant::now();
    let report = server.serve_with(streams, Scheduler::DeficitRoundRobin);
    round.wall_s = t0.elapsed().as_secs_f64();
    if let (Some(r), Some(id)) = (recorder.as_mut(), root) {
        r.end(id);
    }
    let report = report.map_err(|e| format!("serve_with failed: {e}"))?;

    round.cpu = CpuTime::now().since(&cpu_before);
    round.tz = server.platform().stats().snapshot().delta_since(&tz_before);
    round.plane = plane_delta(&server.data_plane().stats().snapshot(), &plane_before);
    round.executed = pool.executed() - exec_before;
    round.steals = pool.steals() - steals_before;
    round.parks = pool.parks() - parks_before;
    round.peak_bytes = server.platform().secure_mem().high_water();
    round.reclaimed_bytes = server.data_plane().memory_report().reclaimed_bytes;
    let counters = registry.snapshot().delta_since(&counters_before);
    round.drr_charged = counters.counter_u64("drr.charged");
    round.drr_penalties = counters.counter_u64("drr.penalties");
    if recorder.is_some() {
        round.program_spans = registry.tracer().drain(|_| {}) as u64;
        round.program_spans_dropped = registry.tracer().dropped();
        registry.set_enabled(false);
    }

    let batches_per_tenant =
        (spec.events_per_window.div_ceil(spec.batch_events) as u64) * u64::from(spec.windows);
    let check_span = recorder.as_mut().map(|r| r.begin("cloud.check", NO_TRACE));
    for (t, id) in ids.iter().enumerate() {
        let progress = &report.per_tenant[t];
        round.attempted += batches_per_tenant;
        round.rejected_batches += progress.rejected_batches;
        round.failed += progress.rejected_batches;
        if progress.rejected_batches > 0 {
            round
                .failures
                .push(format!("tenant {}: {} batches rejected", id.0, progress.rejected_batches));
        }
        round.backpressure += progress.backpressure_signals;
        round.checkpoints += progress.checkpoints_taken;

        let engine = server.engine(*id).ok_or("an admitted tenant lost its engine")?;
        let boundary = engine.boundary_events();
        round.gateway = GatewayBoundary {
            switches: round.gateway.switches + boundary.switches,
            copied_bytes: round.gateway.copied_bytes + boundary.copied_bytes,
            invocations: round.gateway.invocations + boundary.invocations,
        };
        round.tenant_delays_ms.push(
            engine.metrics().windows.iter().map(|w| w.output_delay_nanos as f64 / 1e6).collect(),
        );

        let keychain = server.verifier_keys(*id).ok_or("an admitted tenant has no keychain")?;
        let declared = engine.pipeline().spec();
        let segments = engine.drain_audit_segments();
        let verdict = cloud::check(
            &format!("{} tenant {}", spec.name, id.0),
            &engine.results(),
            &inputs.expected[t],
            &segments,
            *id,
            &keychain,
            &declared,
        );
        round.attempted += inputs.expected[t].len() as u64 + 1;
        let ok_windows = verdict.windows_ok.iter().filter(|ok| **ok).count() as u64;
        round.events_ok += ok_windows * spec.events_per_window as u64;
        round.verdict.absorb(verdict);
        round.trails.push(Trail { segments, tenant: *id, keychain, spec: declared });
    }
    if let (Some(r), Some(id)) = (recorder.as_mut(), check_span) {
        r.end(id);
    }
    round.failed += round.verdict.failed;
    round.failures.append(&mut round.verdict.failures);
    Ok(round)
}
