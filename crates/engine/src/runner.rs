//! The engine runner: ingestion, watermark-driven window completion, and
//! parallel execution of the pipeline's [`WindowPlan`] against the data
//! plane.
//!
//! The runner is the untrusted control plane in action. Batches enter
//! through one call, [`Engine::ingest_group`]: a group of batches is one
//! command list, so one crossing, and the TEE appends each batch straight
//! to its windows' arrays — one array per window, stream side and ingest
//! lane, held by the data plane and grown in place, so an event's pages
//! are committed once, in the array the window's fire reads. A group runs
//! on lane 0; [`Engine::ingest_many`] cuts its deliveries into at most W
//! contiguous groups run on the pool, group i on lane i (W is the pool's
//! workers plus the joining thread). The runner keeps one reference per
//! window array, whatever its batch count.
//!
//! When a watermark completes a window, the runner fires it from the plan
//! it compiled once: the plan's chain over the window's arrays (at most W
//! a side), in at most W lists run on the pool, then one tail list that
//! gathers each side, applies the reduce, egresses and retires. A fire
//! therefore crosses at most W + 1 times, whatever its batch count. Along
//! the way it attaches consumption hints for the TEE allocator, measures
//! output delay, applies backpressure under TEE memory pressure, and
//! collects uploadable results and audit segments.
//!
//! A watermark fires its windows inline ([`Engine::advance_watermark_on`])
//! or as an executor task whose [`JoinHandle`] the caller harvests
//! ([`Engine::advance_watermark_async`]). Either way the fire holds the
//! engine's one fire lock for the whole of its windows: one engine's
//! windows execute one fire at a time and in window order, and a fire
//! whose windows an earlier fire already ran returns at once.
//! [`Engine::quiesce`] and [`Engine::checkpoint`] take the same lock.
//!
//! A watermark that completes a window makes no crossing of its own: it is
//! recorded at the head of the first list of the first window it completes,
//! so the trail shows it before the egress of every window it completes and
//! the attested delay spans the whole fire. It crosses alone only when no
//! fire records it: it completes nothing (one side of a join), only windows
//! already executed, a window with no fire, or the first list failed.

use crate::config::EngineConfig;
use crate::executor::{as_fire, Executor, JoinHandle};
use crate::gateway::TeeGateway;
use crate::metrics::{EngineMetrics, WindowResult};
use crate::operators::WindowPlan;
use crate::pipeline::Pipeline;
use crate::steps::Steps;
use parking_lot::Mutex;
use sbt_attest::LogSegment;
use sbt_dataplane::{
    CheckpointManifest, Command, DataPlane, DataPlaneError, EgressMessage, OpaqueRef, Reply,
    RestoredTenant, SealedSnapshot,
};
use sbt_telemetry::MetricsRegistry;
use sbt_types::{TenantId, Watermark, WindowId};
use sbt_tz::Platform;
use sbt_workloads::transport::Delivery;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

mod fire;

/// Which input stream a batch belongs to (joins consume two streams; all
/// other pipelines use only [`StreamSide::Left`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamSide {
    /// The primary (or only) input stream.
    Left,
    /// The secondary input stream of a join.
    Right,
}

/// Outcome of offering a batch to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestStatus {
    /// The batch was ingested.
    Accepted,
    /// The batch was ingested, but the TEE is under memory pressure: the
    /// source should slow down (backpressure, §4.2).
    Backpressure,
}

/// Per window, the reference of each of its arrays in the data plane, by
/// stream side ([`StreamSide`] indexes it) and ingest lane.
type WindowState = [BTreeMap<u32, OpaqueRef>; 2];

/// What the engine's fire lock guards: window execution's cursor, and the
/// watermarks that completed a window and are not on the trail yet, each
/// with the first window it completes and its arrival, in arrival order.
struct Fires {
    next_unexecuted: WindowId,
    unrecorded: Vec<(WindowId, Watermark, Instant)>,
}

impl Fires {
    /// Take the unrecorded watermarks whose first window is before `end`,
    /// in arrival order.
    fn take_before(&mut self, end: WindowId) -> Vec<Watermark> {
        let mut due = Vec::new();
        self.unrecorded.retain(|&(win, wm, _)| {
            let taken = win < end;
            if taken {
                due.push(wm);
            }
            !taken
        });
        due
    }
}

/// The StreamBox-TZ engine instance.
pub struct Engine {
    config: EngineConfig,
    pipeline: Pipeline,
    /// The pipeline's plan, compiled once: what every window runs.
    plan: Arc<WindowPlan>,
    platform: Arc<Platform>,
    gateway: Arc<TeeGateway>,
    pool: Arc<Executor>,
    windows: Mutex<HashMap<WindowId, WindowState>>,
    /// The fire lock: a fire holds it for the whole of its windows.
    fires: Mutex<Fires>,
    /// Per stream side, `ingest_many`'s deliveries since the side's last
    /// watermark, and in the window before: where its lanes stand.
    feed: Mutex<[[u32; 2]; 2]>,
    watermarks: Mutex<(Watermark, Watermark)>,
    results: Mutex<Vec<EgressMessage>>,
    window_results: Mutex<Vec<WindowResult>>,
    backpressure_events: Mutex<u64>,
    peak_memory: Mutex<u64>,
    window_peak_memory: Mutex<u64>,
    started: Mutex<Option<Instant>>,
    finished: Mutex<Option<Instant>>,
}

impl Engine {
    /// Build an engine for a pipeline under a configuration. The engine owns
    /// its platform, data plane and worker pool (single-pipeline deployment,
    /// default tenant).
    pub fn new(config: EngineConfig, pipeline: Pipeline) -> Arc<Self> {
        let platform = Platform::new(config.platform_config());
        let dp = DataPlane::new(platform.clone(), config.dataplane.clone());
        let pool = Arc::new(Executor::new(config.cores));
        Self::for_tenant(config, pipeline, dp, TenantId::DEFAULT, pool)
    }

    /// Build an engine for one tenant over a **shared** data plane and worker
    /// pool (the multi-tenant server's constructor). The tenant must already
    /// be registered with the data plane; all of this engine's calls execute
    /// in the tenant's namespace, and its parallelism is mapped onto the
    /// shared pool alongside the other tenants'. The pipeline's plan is
    /// compiled here, once.
    pub fn for_tenant(
        config: EngineConfig,
        pipeline: Pipeline,
        dp: Arc<DataPlane>,
        tenant: TenantId,
        pool: Arc<Executor>,
    ) -> Arc<Self> {
        let platform = dp.platform().clone();
        let gateway = Arc::new(TeeGateway::open_for(dp, tenant));
        // Observability: the gateway's per-tenant boundary meters and the
        // (possibly shared) worker pool report into the plane's registry.
        // Registration is weak — an evicted tenant's gateway simply drops
        // out of future snapshots.
        let registry = gateway.data_plane().telemetry();
        registry.register_source(&gateway);
        registry.register_source(&pool);
        // Lend the executor to the data plane for the encrypt lanes of its
        // egress and checkpoint seals (inside the one crossing of each).
        gateway.data_plane().set_lane_pool(pool.clone());
        Arc::new(Engine {
            plan: Arc::new(pipeline.plan()),
            pipeline,
            platform,
            gateway,
            pool,
            windows: Mutex::new(HashMap::new()),
            fires: Mutex::new(Fires { next_unexecuted: WindowId::FIRST, unrecorded: Vec::new() }),
            feed: Mutex::new([[0; 2]; 2]),
            watermarks: Mutex::new((Watermark::default(), Watermark::default())),
            results: Mutex::new(Vec::new()),
            window_results: Mutex::new(Vec::new()),
            backpressure_events: Mutex::new(0),
            peak_memory: Mutex::new(0),
            window_peak_memory: Mutex::new(0),
            started: Mutex::new(None),
            finished: Mutex::new(None),
            config,
        })
    }

    /// The pipeline this engine executes.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The data plane (for cloud-side key material and introspection in
    /// tests and harnesses).
    pub fn data_plane(&self) -> &Arc<DataPlane> {
        self.gateway.data_plane()
    }

    /// The simulated platform the engine runs on.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    /// The tenant this engine's TEE calls execute under.
    pub fn tenant(&self) -> TenantId {
        self.gateway.tenant()
    }

    /// Boundary events this engine's gateway has caused so far (per-tenant
    /// world switches, copied bytes, invocations).
    pub fn boundary_events(&self) -> crate::gateway::GatewayBoundary {
        self.gateway.boundary_events()
    }

    /// The worker pool (shared across engines in multi-tenant deployments).
    pub fn worker_pool(&self) -> &Arc<Executor> {
        &self.pool
    }

    /// The data plane's unified metrics registry.
    pub fn telemetry(&self) -> &Arc<MetricsRegistry> {
        self.gateway.data_plane().telemetry()
    }

    /// Ingest a group of batches on one stream side in **one** crossing:
    /// one command list, a `WindowedIngress` per batch (a lone batch is a
    /// group of one), each appended straight to its windows' lane-0 arrays.
    /// The list is one transaction: a group the TEE rejects part-way — batch
    /// j's appends trip the tenant's quota, say — is unwound there whole,
    /// so no event, record or ingest count of *any* of its batches survives
    /// (the arrays are cut back), and the one error is returned.
    pub fn ingest_group(
        &self,
        deliveries: &[Delivery],
        side: StreamSide,
    ) -> Result<IngestStatus, DataPlaneError> {
        self.started.lock().get_or_insert_with(Instant::now);
        let spec = self.pipeline.window_spec();
        let arrays = Self::ingest_list(&self.gateway, spec, deliveries, side, 0)?;
        self.stash(arrays, side, 0);
        self.finish_ingest()
    }

    /// Ingest a set of batches on the worker pool, spread over up to W
    /// lanes: each delivery's lane is its place in the side's current
    /// window (the deliveries since the side's last watermark) spread
    /// evenly over W by the batch count of the side's previous window, or
    /// of this window so far for the first. So a window's arrays are
    /// contiguous runs of its batches, in order, whether the window comes
    /// in one call — cut into `min(n, W)` groups, as a fire cuts its
    /// arrays — or a batch per call. Each lane's deliveries are one group,
    /// one crossing, as with [`ingest_group`], and the groups run in
    /// parallel, so the per-batch decryption and segmentation still spread
    /// over the pool and no two groups append to one array. A rejected
    /// group costs only its own batches; the first rejection is returned.
    ///
    /// [`ingest_group`]: Engine::ingest_group
    pub fn ingest_many(
        &self,
        deliveries: Vec<Delivery>,
        side: StreamSide,
    ) -> Result<IngestStatus, DataPlaneError> {
        self.started.lock().get_or_insert_with(Instant::now);
        let w = self.pool.size() as u32 + 1;
        let (first, count) = {
            let [seen, previous] = &mut self.feed.lock()[side as usize];
            *seen += deliveries.len() as u32;
            (*seen - deliveries.len() as u32, if *previous > 0 { *previous } else { *seen })
        };
        let mut groups: Vec<(u32, Vec<Delivery>)> = Vec::new();
        for (i, delivery) in (first..).zip(deliveries) {
            let lane = (i * w / count).min(w - 1);
            match groups.last_mut() {
                Some((last, group)) if *last == lane => group.push(delivery),
                _ => groups.push((lane, vec![delivery])),
            }
        }
        let spec = self.pipeline.window_spec();
        let lanes: Vec<u32> = groups.iter().map(|(lane, _)| *lane).collect();
        let tasks: Vec<_> = (groups.into_iter())
            .map(|(lane, group)| {
                let gw = Arc::clone(&self.gateway);
                move || Self::ingest_list(&gw, spec, &group, side, lane)
            })
            .collect();
        let mut outcome = Ok(());
        for (result, lane) in self.pool.run_all(tasks).into_iter().zip(lanes) {
            match result {
                Ok(arrays) => self.stash(arrays, side, lane),
                Err(e) => outcome = outcome.and(Err(e)),
            }
        }
        outcome.and_then(|()| self.finish_ingest())
    }

    /// The modelled cost of ingesting `deliveries` as one group through
    /// this engine's gateway ([`crate::CycleCost::ingest_list`] under the
    /// platform's cost model and the gateway's ingress path): what a
    /// scheduler reserves before dispatching the group, and what the
    /// gateway meters once it ran.
    pub fn ingest_cost(&self, deliveries: &[Delivery]) -> u64 {
        self.gateway.ingest_cost(
            deliveries.iter().map(|d| (d.wire_bytes.len() as u64, d.event_count as u64)),
        )
    }

    /// The one ingest list builder, one crossing: for each batch, deliver
    /// its bytes to the TEE, which appends them straight to their windows'
    /// arrays of `side` and `lane`. Returns the arrays it appended to.
    fn ingest_list(
        gateway: &TeeGateway,
        spec: sbt_types::WindowSpec,
        deliveries: &[Delivery],
        side: StreamSide,
        lane: u32,
    ) -> Result<Vec<(WindowId, OpaqueRef)>, DataPlaneError> {
        let cmds: Vec<Command<'_>> = deliveries
            .iter()
            .map(|delivery| Command::WindowedIngress {
                payload: &delivery.wire_bytes,
                encrypted: delivery.encrypted,
                is_power: delivery.is_power,
                keystream_block: delivery.keystream_block,
                spec,
                side: side as u8,
                lane,
            })
            .collect();
        let replies = gateway.call(&cmds)?.into_iter();
        let arrays = replies.flat_map(|reply| match reply {
            Reply::WindowedIngress { windows, .. } => windows,
            _ => Vec::new(),
        });
        Ok(arrays.map(|out| (out.window.expect("a window array"), out.opaque)).collect())
    }

    /// Note the reference of each window array `side` and `lane` appended
    /// to: one per array, however many batches it holds.
    fn stash(&self, arrays: Vec<(WindowId, OpaqueRef)>, side: StreamSide, lane: u32) {
        let mut windows = self.windows.lock();
        for (win, opaque) in arrays {
            windows.entry(win).or_default()[side as usize].insert(lane, opaque);
        }
    }

    fn finish_ingest(&self) -> Result<IngestStatus, DataPlaneError> {
        self.sample_memory();
        // Backpressure is per tenant, not global: platform-wide pressure
        // slows everyone, but a tenant nearing its own quota is slowed
        // without affecting the other tenants.
        if self.gateway.under_pressure() {
            *self.backpressure_events.lock() += 1;
            Ok(IngestStatus::Backpressure)
        } else {
            Ok(IngestStatus::Accepted)
        }
    }

    /// Advance one side's watermark and execute, on the calling thread, the
    /// windows the combined (minimum) watermark completes before returning.
    /// The call holds the engine's fire lock from noting the watermark to
    /// its last window's egress, so if another fire of this engine is
    /// running (a task from [`advance_watermark_async`]) it waits for that
    /// fire to finish, then fires whatever is left through its own window.
    ///
    /// [`advance_watermark_async`]: Engine::advance_watermark_async
    pub fn advance_watermark_on(
        &self,
        wm: Watermark,
        side: StreamSide,
    ) -> Result<(), DataPlaneError> {
        let arrival = Instant::now();
        as_fire(|| {
            let mut fires = self.fires.lock();
            match self.note_watermark(&mut fires, wm, side, arrival) {
                Some(last) => self.fire_through(&mut fires, last),
                None => Ok(()),
            }
        })
    }

    /// Advance one side's watermark and fire the windows it completes as an
    /// executor task, returning the task's handle instead of blocking. The
    /// watermark is noted, and its arrival stamped, on the caller (which
    /// takes the fire lock to note it, so waits out a running fire of this
    /// engine); the task takes the lock and fires from the next unexecuted
    /// window through the last this watermark completes, or returns `Ok`
    /// if an earlier fire already ran them. Windows of one engine still
    /// execute one fire at a time and in window order, but windows of
    /// *different* engines — and this engine's subsequent ingestion —
    /// pipeline freely against them. A window that panics surfaces as the
    /// handle's [`crate::TaskPanicked`].
    pub fn advance_watermark_async(
        engine: &Arc<Engine>,
        wm: Watermark,
        side: StreamSide,
    ) -> JoinHandle<Result<(), DataPlaneError>> {
        let arrival = Instant::now();
        let due = engine.note_watermark(&mut engine.fires.lock(), wm, side, arrival);
        let fire = Arc::clone(engine);
        // Fire class: the windows are already due, so the fire (and the
        // sort, merge and seal tasks it fans out) runs ahead of any queued
        // ingest and never under it.
        engine.pool.spawn_fire(move || {
            due.map_or(Ok(()), |last| fire.fire_through(&mut fire.fires.lock(), last))
        })
    }

    /// Note a watermark under the fire lock and return the last window it
    /// completes, queueing it for the fire of the first window it completes
    /// (of its last when it completes none anew). A watermark that
    /// completes no window still to execute crosses alone, here, and
    /// returns `None`.
    fn note_watermark(
        &self,
        fires: &mut Fires,
        wm: Watermark,
        side: StreamSide,
        arrival: Instant,
    ) -> Option<WindowId> {
        self.started.lock().get_or_insert_with(Instant::now);
        {
            let [seen, previous] = &mut self.feed.lock()[side as usize];
            if *seen > 0 {
                *previous = std::mem::take(seen);
            }
        }
        let (before, effective) = {
            let mut marks = self.watermarks.lock();
            let effective = |marks: &(Watermark, Watermark)| {
                if self.pipeline.is_join() {
                    marks.0.merge_min(marks.1)
                } else {
                    marks.0
                }
            };
            let before = effective(&marks);
            match side {
                StreamSide::Left => marks.0 = marks.0.max(wm),
                StreamSide::Right => marks.1 = marks.1.max(wm),
            }
            (before, effective(&marks))
        };
        let spec = self.pipeline.window_spec();
        let Some(last) =
            spec.last_complete(effective.event_time).filter(|&last| last >= fires.next_unexecuted)
        else {
            self.record_watermarks(&[wm]);
            *self.finished.lock() = Some(Instant::now());
            return None;
        };
        let first = spec.last_complete(before.event_time).map_or(WindowId::FIRST, WindowId::next);
        fires.unrecorded.push((first.min(last), wm, arrival));
        Some(last)
    }

    /// Record watermarks no fire carried, in one list of their own.
    fn record_watermarks(&self, wms: &[Watermark]) {
        if !wms.is_empty() {
            let mut steps = Steps::default();
            steps.watermarks(wms);
            let _ = steps.run(&self.gateway);
        }
    }

    /// Fold the data plane's committed bytes into the run's and the window's
    /// peaks.
    fn sample_memory(&self) {
        let committed = self.data_plane().memory_report().committed_bytes;
        for peak in [&self.peak_memory, &self.window_peak_memory] {
            let mut peak = peak.lock();
            *peak = (*peak).max(committed);
        }
    }

    /// Wait until no fire of this engine is running: take the fire lock
    /// and release it. A fire task not yet started holds no lock; its
    /// handle is the caller's to join. The serving layer quiesces an engine
    /// before tearing its tenant down, so a drained tenant's final windows
    /// finish (and are audited) before the namespace disappears.
    pub fn quiesce(&self) {
        drop(self.fires.lock());
    }

    /// Seal a checkpoint of this engine's tenant: take the fire lock
    /// (waiting out a running fire) and seal, inside the TEE (one entry),
    /// the data plane's window arrays with this engine's watermarks and
    /// window cursor, holding the lock so no fire starts meanwhile. Only
    /// consistent with no ingest in flight. The returned container is safe
    /// to hand to untrusted storage; the matching sealed-checkpoint record
    /// is already chained into the tenant's audit trail.
    pub fn checkpoint(&self) -> Result<SealedSnapshot, DataPlaneError> {
        as_fire(|| {
            let fires = self.fires.lock();
            let (left, right) = *self.watermarks.lock();
            self.gateway.checkpoint(&CheckpointManifest {
                left_watermark_ms: left.event_time.as_millis(),
                right_watermark_ms: right.event_time.as_millis(),
                next_unexecuted: fires.next_unexecuted.0 as u32,
                batches: *self.feed.lock(),
            })
        })
    }

    /// Restore this engine's tenant from a sealed checkpoint and adopt the
    /// recovered state: the data plane re-commits every window array (fresh
    /// references, re-announced to the audit trail) and this engine resumes
    /// with the recovered arrays, watermarks and execution cursor.
    pub fn restore_from(
        &self,
        quota_bytes: Option<u64>,
        sealed: &SealedSnapshot,
        min_epoch: u32,
    ) -> Result<RestoredTenant, DataPlaneError> {
        let restored = self.gateway.restore(quota_bytes, sealed, min_epoch)?;
        self.adopt_restored(&restored);
        Ok(restored)
    }

    /// Adopt already-restored tenant state (see [`Engine::restore_from`],
    /// which restores and adopts in one step).
    pub fn adopt_restored(&self, restored: &RestoredTenant) {
        {
            let mut windows = self.windows.lock();
            for a in &restored.windows {
                windows.entry(a.window).or_default()[a.side as usize].insert(a.lane, a.opaque);
            }
        }
        self.fires.lock().next_unexecuted = WindowId(restored.next_unexecuted as u64);
        *self.feed.lock() = restored.batches;
        *self.watermarks.lock() = (
            Watermark::from_millis(restored.left_watermark_ms),
            Watermark::from_millis(restored.right_watermark_ms),
        );
    }

    /// Results externalized so far (encrypted and signed for the cloud).
    pub fn results(&self) -> Vec<EgressMessage> {
        self.results.lock().clone()
    }

    /// Number of results externalized so far (without cloning the
    /// ciphertexts as [`results`](Engine::results) does).
    pub fn results_len(&self) -> usize {
        self.results.lock().len()
    }

    /// Drain this engine's tenant's audit segments accumulated so far (for
    /// upload).
    pub fn drain_audit_segments(&self) -> Vec<LogSegment> {
        self.gateway.drain_audit_segments()
    }

    /// Drain the estimated cycle cost ([`crate::metrics::CycleCost`]) this
    /// engine's gateway serviced since the last drain — ingestion,
    /// primitive execution and egress alike. The deficit round-robin
    /// scheduler charges it against the tenant's deficit, so tenants pay
    /// for the cycles they actually consumed rather than per batch.
    pub fn drain_serviced_cost(&self) -> u64 {
        self.gateway.drain_cost()
    }

    /// Metrics of the run so far. Ingest counters are this engine's
    /// tenant's, so multi-tenant engines over a shared data plane report
    /// only their own traffic.
    pub fn metrics(&self) -> EngineMetrics {
        let (events_ingested, bytes_ingested) =
            self.data_plane().tenant_ingest(self.tenant()).unwrap_or((0, 0));
        let tz = self.platform.stats().snapshot();
        let wall = match (*self.started.lock(), *self.finished.lock()) {
            (Some(s), Some(f)) => f.duration_since(s).as_nanos() as u64,
            (Some(s), None) => s.elapsed().as_nanos() as u64,
            _ => 0,
        };
        EngineMetrics {
            events_ingested,
            bytes_ingested,
            wall_nanos: wall,
            simulated_overhead_nanos: tz.total_overhead_nanos(),
            cores: self.config.cores,
            windows: self.window_results.lock().clone(),
            peak_memory_bytes: *self.peak_memory.lock(),
            backpressure_events: *self.backpressure_events.lock(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineVariant;
    use crate::operators::Operator;
    use sbt_attest::{decompress_records, Verifier};
    use sbt_workloads::datasets::synthetic_stream;
    use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
    use sbt_workloads::transport::Channel;

    /// Drive an engine with a generated stream, returning it afterwards.
    fn run(
        engine: &Arc<Engine>,
        windows: u32,
        events_per_window: usize,
        keys: u32,
        encrypted: bool,
    ) {
        let channel = if encrypted { Channel::encrypted_demo() } else { Channel::cleartext() };
        let chunks = synthetic_stream(windows, events_per_window, keys, 42);
        let mut generator = Generator::new(
            GeneratorConfig { batch_events: engine.pipeline().batch_size() },
            channel,
            chunks,
        );
        while let Some(offer) = generator.next_offer() {
            match offer {
                Offer::Batch(delivery) => {
                    engine.ingest_group(&[delivery], StreamSide::Left).unwrap();
                }
                Offer::Watermark(wm) => engine.advance_watermark_on(wm, StreamSide::Left).unwrap(),
            }
        }
    }

    fn winsum_engine(cores: usize, variant: EngineVariant) -> Arc<Engine> {
        Engine::new(
            EngineConfig::for_variant(variant, cores),
            Pipeline::winsum_benchmark().batch_events(2_000),
        )
    }

    #[test]
    fn winsum_produces_correct_totals() {
        let engine = winsum_engine(2, EngineVariant::Sbt);
        run(&engine, 3, 10_000, 64, true);
        let results = engine.results();
        assert_eq!(results.len(), 3);

        // Decrypt on the cloud side and compare with an oracle computed
        // directly from the same generated stream.
        let (key, nonce, signing) = engine.data_plane().cloud_keys();
        let chunks = synthetic_stream(3, 10_000, 64, 42);
        for (i, msg) in results.iter().enumerate() {
            let plain = msg.open(&key, &nonce, &signing).unwrap();
            assert_eq!(plain.len(), 8);
            let got = u64::from_le_bytes(plain[..8].try_into().unwrap());
            let expected: u64 = chunks[i].events.iter().map(|e| e.value as u64).sum();
            assert_eq!(got, expected, "window {i}");
        }

        let metrics = engine.metrics();
        assert_eq!(metrics.events_ingested, 30_000);
        assert_eq!(metrics.windows.len(), 3);
        assert!(metrics.events_per_sec() > 0.0);
        assert!(metrics.peak_memory_bytes > 0);
    }

    #[test]
    fn sum_by_key_matches_oracle_and_verifies() {
        let engine = Engine::new(
            EngineConfig::for_variant(EngineVariant::Sbt, 4),
            Pipeline::new("sumbykey")
                .then(Operator::SumByKey)
                .target_delay_ms(10_000)
                .batch_events(1_500),
        );
        run(&engine, 2, 6_000, 16, true);
        let results = engine.results();
        assert_eq!(results.len(), 2);

        let (key, nonce, signing) = engine.data_plane().cloud_keys();
        let chunks = synthetic_stream(2, 6_000, 16, 42);
        for (i, msg) in results.iter().enumerate() {
            let plain = msg.open(&key, &nonce, &signing).unwrap();
            // KeyAgg wire layout: key(4) sum(8) count(8).
            let mut got: Vec<(u32, u64, u64)> = plain
                .chunks_exact(20)
                .map(|c| {
                    (
                        u32::from_le_bytes(c[0..4].try_into().unwrap()),
                        u64::from_le_bytes(c[4..12].try_into().unwrap()),
                        u64::from_le_bytes(c[12..20].try_into().unwrap()),
                    )
                })
                .collect();
            got.sort_by_key(|(k, _, _)| *k);
            let mut oracle: std::collections::BTreeMap<u32, (u64, u64)> = Default::default();
            for e in &chunks[i].events {
                let entry = oracle.entry(e.key).or_insert((0, 0));
                entry.0 += e.value as u64;
                entry.1 += 1;
            }
            let expected: Vec<(u32, u64, u64)> =
                oracle.into_iter().map(|(k, (s, c))| (k, s, c)).collect();
            assert_eq!(got, expected, "window {i}");
        }

        // The audit stream must verify cleanly against the derived spec.
        let records: Vec<_> = engine
            .drain_audit_segments()
            .iter()
            .flat_map(|s| decompress_records(&s.compressed).unwrap())
            .collect();
        let report = Verifier::new(engine.pipeline().spec()).replay(&records);
        assert!(report.is_correct(), "violations: {:?}", report.violations);
        assert_eq!(report.egressed, 2);
        assert_eq!(report.misleading_hints, 0);
    }

    #[test]
    fn filter_pipeline_keeps_only_the_band() {
        let engine = Engine::new(
            EngineConfig::for_variant(EngineVariant::SbtClearIngress, 2),
            Pipeline::new("filter")
                .then(Operator::Filter { lo: 0, hi: u32::MAX / 100 })
                .target_delay_ms(10_000)
                .batch_events(1_000),
        );
        run(&engine, 2, 5_000, 32, false);
        let results = engine.results();
        assert_eq!(results.len(), 2);
        let (key, nonce, signing) = engine.data_plane().cloud_keys();
        let chunks = synthetic_stream(2, 5_000, 32, 42);
        for (i, msg) in results.iter().enumerate() {
            let plain = msg.open(&key, &nonce, &signing).unwrap();
            let expected: usize =
                chunks[i].events.iter().filter(|e| e.value <= u32::MAX / 100).count();
            assert_eq!(plain.len(), expected * sbt_types::EVENT_BYTES, "window {i}");
        }
    }

    #[test]
    fn distinct_counts_unique_keys() {
        let engine = Engine::new(
            EngineConfig::for_variant(EngineVariant::Sbt, 4),
            Pipeline::distinct_benchmark().target_delay_ms(10_000).batch_events(2_000),
        );
        run(&engine, 1, 8_000, 500, true);
        let results = engine.results();
        assert_eq!(results.len(), 1);
        let (key, nonce, signing) = engine.data_plane().cloud_keys();
        let plain = results[0].open(&key, &nonce, &signing).unwrap();
        let got = plain.len() / 8;
        let chunks = synthetic_stream(1, 8_000, 500, 42);
        let expected: std::collections::HashSet<u32> =
            chunks[0].events.iter().map(|e| e.key).collect();
        assert_eq!(got, expected.len());
    }

    #[test]
    fn join_pipeline_joins_two_streams() {
        let engine = Engine::new(
            EngineConfig::for_variant(EngineVariant::Sbt, 2),
            Pipeline::join_benchmark().target_delay_ms(10_000).batch_events(1_000),
        );
        // Feed both sides the same small stream so every key joins.
        let chunks = synthetic_stream(1, 2_000, 8, 7);
        for side in [StreamSide::Left, StreamSide::Right] {
            let mut generator = Generator::new(
                GeneratorConfig { batch_events: 1_000 },
                Channel::encrypted_demo(),
                chunks.clone(),
            );
            while let Some(offer) = generator.next_offer() {
                match offer {
                    Offer::Batch(d) => {
                        engine.ingest_group(&[d], side).unwrap();
                    }
                    Offer::Watermark(wm) => engine.advance_watermark_on(wm, side).unwrap(),
                }
            }
        }
        let results = engine.results();
        assert_eq!(results.len(), 1);
        let (key, nonce, signing) = engine.data_plane().cloud_keys();
        let plain = results[0].open(&key, &nonce, &signing).unwrap();
        // Join of a stream with itself over 8 keys and 2000 events: output
        // count is sum over keys of count^2; just check it is large and a
        // whole number of 12-byte pair records.
        assert_eq!(plain.len() % 12, 0);
        let pairs = plain.len() / 12;
        let mut counts = std::collections::HashMap::new();
        for e in &chunks[0].events {
            *counts.entry(e.key).or_insert(0u64) += 1;
        }
        let expected: u64 = counts.values().map(|c| c * c).sum();
        assert_eq!(pairs as u64, expected);
    }

    #[test]
    fn insecure_variant_runs_without_isolation_costs() {
        let engine = winsum_engine(2, EngineVariant::Insecure);
        run(&engine, 2, 5_000, 16, false);
        assert_eq!(engine.results().len(), 2);
        let metrics = engine.metrics();
        assert_eq!(metrics.simulated_overhead_nanos, 0);
    }

    #[test]
    fn via_os_variant_pays_boundary_copies() {
        let engine = winsum_engine(2, EngineVariant::SbtIoViaOs);
        run(&engine, 1, 5_000, 16, true);
        let tz = engine.platform().stats().snapshot();
        assert!(tz.via_os_bytes > 0);
        assert!(tz.boundary_copy_bytes > 0);
        assert_eq!(tz.trusted_io_bytes, 0);

        let trusted = winsum_engine(2, EngineVariant::Sbt);
        run(&trusted, 1, 5_000, 16, true);
        let tz = trusted.platform().stats().snapshot();
        assert_eq!(tz.via_os_bytes, 0);
        assert!(tz.trusted_io_bytes > 0);
    }

    #[test]
    fn async_watermarks_pipeline_and_preserve_window_order() {
        // Watermarks submitted asynchronously: window execution overlaps the
        // next window's ingestion, yet results stay in window order and
        // match the oracle.
        let engine = winsum_engine(2, EngineVariant::Sbt);
        let chunks = synthetic_stream(4, 6_000, 32, 42);
        let mut generator = Generator::new(
            GeneratorConfig { batch_events: 2_000 },
            Channel::encrypted_demo(),
            chunks.clone(),
        );
        let mut tickets = Vec::new();
        while let Some(offer) = generator.next_offer() {
            match offer {
                Offer::Batch(d) => {
                    engine.ingest_group(&[d], StreamSide::Left).unwrap();
                }
                Offer::Watermark(wm) => {
                    tickets.push(Engine::advance_watermark_async(&engine, wm, StreamSide::Left));
                }
            }
        }
        assert_eq!(tickets.len(), 4);
        for t in tickets {
            t.join().expect("no window panicked").unwrap();
        }
        let results = engine.results();
        assert_eq!(results.len(), 4);
        let (key, nonce, signing) = engine.data_plane().cloud_keys();
        for (i, msg) in results.iter().enumerate() {
            let plain = msg.open(&key, &nonce, &signing).unwrap();
            let got = u64::from_le_bytes(plain[..8].try_into().unwrap());
            let expected: u64 = chunks[i].events.iter().map(|e| e.value as u64).sum();
            assert_eq!(got, expected, "window {i}");
        }
        // The fires charged their work to the tenant's cost meter.
        assert!(engine.drain_serviced_cost() > 0);
        assert_eq!(engine.drain_serviced_cost(), 0, "drain resets the meter");
    }

    #[test]
    fn watermark_only_stream_produces_no_results() {
        let engine = winsum_engine(1, EngineVariant::Sbt);
        engine.advance_watermark_on(Watermark::from_secs(5), StreamSide::Left).unwrap();
        assert!(engine.results().is_empty());
        assert_eq!(engine.metrics().windows.len(), 0);
    }

    /// The quota of [`quota_tripping_tenant`]: 6 pages.
    const TRIP_QUOTA: u64 = 6 * 4096;

    /// An engine for a tenant whose 6-page quota is smaller than the
    /// windowed copy of a 2 500-event batch (30 000 bytes, 8 pages), so the
    /// ingress pre-check refuses the batch before it holds a page; and a
    /// generator of one such batch and its watermark.
    fn quota_tripping_tenant() -> (Arc<Engine>, Arc<DataPlane>, Generator) {
        let config = EngineConfig::for_variant(EngineVariant::Sbt, 1);
        let platform = sbt_tz::Platform::new(config.platform_config());
        let dp = sbt_dataplane::DataPlane::new(platform, config.dataplane.clone());
        dp.register_tenant(TenantId(1), Some(TRIP_QUOTA)).unwrap();
        let engine = Engine::for_tenant(
            config,
            Pipeline::winsum_benchmark().batch_events(10_000),
            dp.clone(),
            TenantId(1),
            Arc::new(Executor::new(1)),
        );
        let chunks = synthetic_stream(1, 2_500, 16, 1);
        let generator =
            Generator::new(GeneratorConfig { batch_events: 2_500 }, Channel::cleartext(), chunks);
        (engine, dp, generator)
    }

    /// Check that the batches a quota-tripping tenant was refused left
    /// nothing: no used byte, no live reference, no ingested event, and a
    /// trail that verifies and replays with no violation (no unwindowed
    /// ingress) and holds the watermark the caller advanced.
    fn assert_no_residue(engine: &Engine, dp: &DataPlane) {
        assert_eq!(dp.tenant_memory(TenantId(1)).unwrap().used_bytes, 0);
        assert_eq!(dp.live_refs(TenantId(1)), 0);
        assert_eq!(engine.metrics().events_ingested, 0);
        let keys = dp.verifier_keys(TenantId(1)).unwrap();
        let records =
            sbt_attest::verify_tenant_trail(&engine.drain_audit_segments(), TenantId(1), &keys)
                .expect("the trail verifies");
        assert!(!records.is_empty(), "the watermark is on the trail");
        let replay = Verifier::new(engine.pipeline().spec()).replay(&records);
        assert!(replay.is_correct(), "violations: {:?}", replay.violations);
    }

    /// The 4 KiB secure pages the tenant's platform has committed so far.
    fn pages_committed(dp: &DataPlane) -> u64 {
        dp.platform().stats().snapshot().tee_pages_committed
    }

    #[test]
    fn quota_rejected_ingest_leaves_no_residue() {
        // The pre-check refuses the batch: its windowed copy alone is over
        // the quota, so not a page is committed.
        let (engine, dp, mut generator) = quota_tripping_tenant();
        let Some(Offer::Batch(delivery)) = generator.next_offer() else {
            panic!("first offer is a batch")
        };
        let Some(Offer::Watermark(wm)) = generator.next_offer() else {
            panic!("the watermark follows")
        };
        assert!(DataPlane::ingress_charge(delivery.event_count as u64) > TRIP_QUOTA);
        let before = pages_committed(&dp);
        let err = engine.ingest_group(&[delivery], StreamSide::Left).unwrap_err();
        assert_eq!(err, DataPlaneError::QuotaExceeded);
        assert_eq!(pages_committed(&dp), before, "refused before it held a page");
        engine.advance_watermark_on(wm, StreamSide::Left).unwrap();
        assert_no_residue(&engine, &dp);
    }

    #[test]
    fn a_batch_straddling_two_windows_trips_the_budget_mid_production() {
        // 2 000 events fit the pre-check (24 000 bytes, 6 pages), but they
        // straddle two windows: 1 100 in the first (13 200 bytes, 4 pages)
        // and 900 in the second (10 800 bytes, 3 pages). The second window
        // crosses the 6-page budget while it is produced, and the pages
        // already committed are released.
        let (engine, dp, _) = quota_tripping_tenant();
        let ts = |i: u32| if i < 1_100 { i * 900 / 1_100 } else { 1_000 + (i - 1_100) };
        let chunk = sbt_workloads::datasets::StreamChunk {
            events: (0..2_000).map(|i| sbt_types::Event::new(i % 16, i, ts(i))).collect(),
            power_events: Vec::new(),
            watermark: Watermark::from_millis(2_000),
        };
        let delivery = Channel::cleartext().send(&chunk);
        assert!(DataPlane::ingress_charge(delivery.event_count as u64) <= TRIP_QUOTA);
        let before = pages_committed(&dp);
        let err = engine.ingest_group(&[delivery], StreamSide::Left).unwrap_err();
        assert_eq!(err, DataPlaneError::QuotaExceeded);
        assert!(pages_committed(&dp) > before, "the windows committed pages before the trip");
        engine.advance_watermark_on(chunk.watermark, StreamSide::Left).unwrap();
        assert_no_residue(&engine, &dp);
    }

    #[test]
    fn a_failed_batch_strands_none_of_the_batches_after_it() {
        // `ingest_many` of four batches on W = 2 (the one worker and the
        // joining thread) runs the lists [mate, rejected] and [a1, a2]. The
        // quota refuses `rejected` (its windowed copy alone is larger than the
        // quota, so it is refused before it holds a page, whatever the other
        // list holds meanwhile) and its list-mate with it; the call reports
        // the rejection, and the other list's partitions are still fired and
        // retired with their window.
        let (engine, dp, _) = quota_tripping_tenant();
        let mut big = Generator::new(
            GeneratorConfig { batch_events: 4_000 },
            Channel::cleartext(),
            synthetic_stream(1, 4_000, 16, 2),
        );
        let Some(Offer::Batch(rejected)) = big.next_offer() else {
            panic!("first offer is a batch")
        };
        let mut small = Generator::new(
            GeneratorConfig { batch_events: 50 },
            Channel::cleartext(),
            synthetic_stream(1, 150, 16, 1),
        );
        let (mut batches, mut wms) = (Vec::new(), Vec::new());
        while let Some(offer) = small.next_offer() {
            match offer {
                Offer::Batch(delivery) => batches.push(delivery),
                Offer::Watermark(wm) => wms.push(wm),
            }
        }
        batches.insert(1, rejected);
        assert_eq!(batches.len(), 4);
        assert_eq!(
            engine.ingest_many(batches, StreamSide::Left),
            Err(DataPlaneError::QuotaExceeded)
        );
        // Only the second list's two batches reached their window.
        assert_eq!(engine.metrics().events_ingested, 100);
        for wm in wms {
            engine.advance_watermark_on(wm, StreamSide::Left).unwrap();
        }
        assert_eq!(engine.results().len(), 1);
        assert_eq!(dp.live_refs(TenantId(1)), 0);
        assert_eq!(dp.tenant_memory(TenantId(1)).unwrap().used_bytes, 0);
        let keys = dp.verifier_keys(TenantId(1)).unwrap();
        let records =
            sbt_attest::verify_tenant_trail(&engine.drain_audit_segments(), TenantId(1), &keys)
                .expect("the trail verifies");
        let replay = Verifier::new(engine.pipeline().spec()).replay(&records);
        assert!(replay.is_correct(), "violations: {:?}", replay.violations);
    }

    #[test]
    fn a_quota_tripped_batch_leaves_an_honest_trail() {
        // The same quota trip inside a group, seen by the cloud: the
        // rejected batch takes the batch ahead of it in its list down too,
        // and neither leaves a record, so the tenant's trail verifies and
        // replays with no violation.
        let (engine, dp, mut generator) = quota_tripping_tenant();
        let Some(Offer::Batch(rejected)) = generator.next_offer() else {
            panic!("first offer is a batch")
        };
        let Some(Offer::Watermark(wm)) = generator.next_offer() else {
            panic!("the watermark follows")
        };
        let mut small = Generator::new(
            GeneratorConfig { batch_events: 100 },
            Channel::cleartext(),
            synthetic_stream(1, 100, 16, 2),
        );
        let Some(Offer::Batch(mate)) = small.next_offer() else { panic!("first offer is a batch") };
        assert_eq!(
            engine.ingest_group(&[mate, rejected], StreamSide::Left),
            Err(DataPlaneError::QuotaExceeded)
        );
        engine.advance_watermark_on(wm, StreamSide::Left).unwrap();
        assert_no_residue(&engine, &dp);
    }

    #[test]
    fn backpressure_fires_under_tiny_secure_memory() {
        let config =
            EngineConfig::for_variant(EngineVariant::Sbt, 1).with_secure_mem(4 * 1024 * 1024);
        let engine = Engine::new(config, Pipeline::winsum_benchmark().batch_events(10_000));
        // 280 K events of 12 bytes accumulate ~3.4 MB of windowed uArrays
        // before the watermark, crossing the 80% backpressure threshold of
        // the 4 MB budget without exhausting it.
        let chunks = synthetic_stream(1, 280_000, 16, 1);
        let mut generator =
            Generator::new(GeneratorConfig { batch_events: 10_000 }, Channel::cleartext(), chunks);
        let mut saw_backpressure = false;
        while let Some(offer) = generator.next_offer() {
            match offer {
                Offer::Batch(d) => {
                    if let Ok(IngestStatus::Backpressure) =
                        engine.ingest_group(&[d], StreamSide::Left)
                    {
                        saw_backpressure = true;
                    }
                }
                Offer::Watermark(wm) => {
                    // Window execution itself may exhaust the deliberately
                    // tiny budget; the property under test is that the
                    // engine signalled backpressure during ingestion.
                    let _ = engine.advance_watermark_on(wm, StreamSide::Left);
                }
            }
        }
        assert!(saw_backpressure);
        assert!(engine.metrics().backpressure_events > 0);
    }
}
