//! Fair scheduling of tenant sources over the shared executor: deficit
//! round-robin.
//!
//! Each lane (tenant stream) accrues a quantum of estimated *cycle cost*
//! (`weight × drr_quantum` units per refill round, see
//! [`sbt_engine::CycleCost`]) and spends it on work actually dispatched —
//! bytes decrypted, events windowed, records executed. Penalties
//! (backpressure, quota rejections) are deficit debits rather than skipped
//! rounds. Ingestion tasks and window-execution tickets from many lanes stay
//! **in flight simultaneously** and overlap with the offer loop itself:
//! there is no global round barrier, so one slow tenant's window cannot
//! stall another tenant's ingestion.
//!
//! Service accounting is *post-paid*: the dispatch gate uses estimated
//! batch costs, but deficits are charged with the cycle cost each tenant's
//! gateway actually metered, so tenants pay for the cycles they consumed —
//! including their window executions — not for a batch count.

use crate::server::{LanePhase, StreamServer};
use parking_lot::Mutex;
use sbt_dataplane::DataPlaneError;
use sbt_engine::{CycleCost, Engine, IngestStatus, JoinHandle, StreamSide, WindowTicket};
use sbt_telemetry::FlightReason;
use sbt_types::{TenantId, Watermark};
use sbt_workloads::generator::{Generator, Offer};
use sbt_workloads::transport::Delivery;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RAII registration of the tenants whose lanes a serve loop owns, so
/// [`StreamServer::drain`] hands teardown to the loop instead of racing it.
struct ServingGuard<'a> {
    server: &'a StreamServer,
    ids: Vec<TenantId>,
}

impl<'a> ServingGuard<'a> {
    fn new(server: &'a StreamServer, ids: Vec<TenantId>) -> Self {
        server.mark_serving(&ids);
        ServingGuard { server, ids }
    }
}

impl Drop for ServingGuard<'_> {
    fn drop(&mut self) {
        self.server.unmark_serving(&self.ids);
    }
}

/// The serving discipline [`StreamServer::serve_with`] runs. There is one:
/// the enum names it so callers that pick a scheduler explicitly keep
/// compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Cycle-cost deficits with pipelined ingestion and window execution.
    DeficitRoundRobin,
}

/// One tenant's input: its id plus the rate-controlled source draining into
/// it.
pub struct TenantStream {
    /// Which admitted tenant the stream feeds.
    pub tenant: TenantId,
    /// The source generator (events pre-chunked into windows).
    pub generator: Generator,
}

/// Per-tenant outcome of a serve run.
#[derive(Debug, Clone)]
pub struct TenantProgress {
    /// The tenant.
    pub tenant: TenantId,
    /// Events offered by the tenant's source.
    pub offered_events: u64,
    /// Batches accepted into the TEE.
    pub accepted_batches: u64,
    /// Batches rejected because they would exceed the tenant's quota.
    pub rejected_batches: u64,
    /// Backpressure signals the tenant's engine raised.
    pub backpressure_signals: u64,
    /// Results (windows) the tenant externalized.
    pub results: usize,
    /// Events the tenant's engine ingested.
    pub ingested_events: u64,
    /// Checkpoints sealed and vaulted for the tenant during the run
    /// (policy-driven, at lane-quiescent points; see
    /// [`TenantConfig::with_checkpoint_every_records`]).
    ///
    /// [`TenantConfig::with_checkpoint_every_records`]: crate::TenantConfig::with_checkpoint_every_records
    pub checkpoints_taken: u64,
    /// Mean output delay over the tenant's windows, in milliseconds.
    pub avg_delay_ms: f64,
    /// Maximum output delay over the tenant's windows, in milliseconds.
    pub max_delay_ms: f64,
    /// Whether the tenant departed (was drained or evicted) during the run;
    /// departed tenants' engine-side counters read zero because the
    /// namespace is gone.
    pub departed: bool,
}

/// Outcome of serving a set of tenant streams to completion.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Wall-clock nanoseconds of the whole run.
    pub wall_nanos: u64,
    /// Per-tenant progress, in the order the streams were passed.
    pub per_tenant: Vec<TenantProgress>,
}

impl ServeReport {
    /// Total events ingested across all tenants.
    pub fn aggregate_events(&self) -> u64 {
        self.per_tenant.iter().map(|t| t.ingested_events).sum()
    }

    /// Aggregate throughput in events per second.
    pub fn aggregate_events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.aggregate_events() as f64 / (self.wall_nanos as f64 / 1e9)
    }
}

/// Pure deficit round-robin bookkeeping, exported so the fairness property
/// tests can drive it without a server.
///
/// Lanes accrue `weight × quantum` cost units per refill round while
/// backlogged (an idle lane's deficit resets — classic DRR, so credit
/// cannot be hoarded). A lane may dispatch a work item while its available
/// credit (deficit minus in-flight reservations) covers the item's
/// estimated cost; completed work is charged at its *actual* metered cost.
#[derive(Debug)]
pub struct DrrAccounting {
    quantum: u64,
    lanes: Vec<DrrLane>,
}

#[derive(Debug)]
struct DrrLane {
    weight: u32,
    deficit: i64,
    reserved: u64,
}

impl DrrAccounting {
    /// Bookkeeping for `weights.len()` lanes with the given refill quantum.
    pub fn new(weights: &[u32], quantum: u64) -> Self {
        DrrAccounting {
            quantum: quantum.max(1),
            lanes: weights
                .iter()
                .map(|w| DrrLane { weight: (*w).max(1), deficit: 0, reserved: 0 })
                .collect(),
        }
    }

    /// Start a refill round: backlogged lanes accrue `weight × quantum`;
    /// idle lanes reset to zero.
    pub fn begin_round(&mut self, backlogged: impl Fn(usize) -> bool) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            if backlogged(i) {
                lane.deficit += lane.weight as i64 * self.quantum as i64;
            } else {
                lane.deficit = lane.deficit.min(0);
            }
        }
    }

    /// Whether the lane's available credit covers an item of estimated
    /// cost `est`.
    pub fn can_dispatch(&self, lane: usize, est: u64) -> bool {
        self.lanes[lane].deficit - self.lanes[lane].reserved as i64 >= est as i64
    }

    /// Reserve estimated credit for a dispatched, still-in-flight item.
    pub fn reserve(&mut self, lane: usize, est: u64) {
        self.lanes[lane].reserved += est;
    }

    /// Release the reservation of a completed (or abandoned) item.
    pub fn release(&mut self, lane: usize, est: u64) {
        let l = &mut self.lanes[lane];
        l.reserved = l.reserved.saturating_sub(est);
    }

    /// Charge actually serviced cost against the lane's deficit.
    pub fn charge(&mut self, lane: usize, cost: u64) {
        self.lanes[lane].deficit -= cost as i64;
    }

    /// Penalize a misbehaving lane (backpressure, quota rejection) by one
    /// full round's credit.
    pub fn penalize(&mut self, lane: usize) {
        let l = &mut self.lanes[lane];
        l.deficit -= l.weight as i64 * self.quantum as i64;
    }

    /// The lane's current deficit (may be negative after penalties or
    /// cost overruns).
    pub fn deficit(&self, lane: usize) -> i64 {
        self.lanes[lane].deficit
    }
}

/// Estimated dispatch cost of one batch delivery for a lane's engine:
/// compute plus the *measured* TEE-boundary toll (world switches, and the
/// via-OS copy where configured) under the engine's platform cost model —
/// not a guessed constant. Small-batch tenants therefore pay their real,
/// higher per-event boundary cost.
fn batch_cost(engine: &Engine, delivery: &Delivery) -> u64 {
    let via_os = matches!(engine.config().variant, sbt_engine::EngineVariant::SbtIoViaOs);
    CycleCost::batch_measured(
        engine.cost_model(),
        delivery.wire_bytes.len() as u64,
        delivery.event_count as u64,
        via_os,
    )
}

/// One tenant stream's serve-loop state: its source, its counters and the
/// work it has in flight.
struct Lane {
    tenant: TenantId,
    weight: u32,
    engine: Arc<Engine>,
    generator: Generator,
    accepted_batches: u64,
    rejected_batches: u64,
    backpressure_signals: u64,
    /// Checkpoint policy from the tenant's admitted config.
    ckpt_every_records: Option<u64>,
    ckpt_every_ms: Option<u64>,
    checkpoints_taken: u64,
    /// The next undispatched offer, pulled ahead so its cost can gate
    /// dispatch.
    staged: Option<Offer>,
    /// A watermark waiting for this lane's in-flight batches to drain
    /// (batches of a window must be stashed before its watermark fires).
    pending_wm: Option<Watermark>,
    /// In-flight ingestion tasks: (estimated cost, handle).
    inflight: Vec<(u64, JoinHandle<Result<IngestStatus, DataPlaneError>>)>,
    /// The lane's unresolved window-execution ticket. At most one: the next
    /// watermark launches only after this one resolves.
    ticket: Option<WindowTicket>,
    /// Drain requested: finish staged/pending/in-flight work, pull nothing
    /// new, then depart the tenant.
    draining: bool,
    /// The tenant departed (evicted, or this loop finished its drain): the
    /// lane only exists to absorb in-flight completions, whose outcomes —
    /// `UnknownTenant` included — are discarded.
    dead: bool,
    /// Engine event count at the last checkpoint attempt (record-driven
    /// policies measure progress from here).
    last_ckpt_events: u64,
    /// When the last checkpoint attempt happened (wall-driven policies
    /// measure from here).
    last_ckpt_at: Instant,
    /// A window fired since the last checkpoint attempt. Amortized
    /// checkpoints wait for this: right after a fire the lane's buffered
    /// state is minimal, so the snapshot seals a few hundred bytes instead
    /// of a whole in-progress window's events.
    fired_since_ckpt: bool,
    /// A fire happened and the record-driven due-check hasn't looked at the
    /// ingest counter yet. Reading that counter takes the tenant-state lock
    /// that in-flight ingest workers hold, so the serve loop reads it once
    /// per fire — never per iteration, which would serialize against
    /// ingest.
    ckpt_check_pending: bool,
}

impl Lane {
    /// Whether the lane still has work the serve loop must see through.
    fn live(&self) -> bool {
        if self.dead {
            return !self.inflight.is_empty() || self.ticket.is_some();
        }
        if self.draining {
            return self.staged.is_some()
                || self.pending_wm.is_some()
                || !self.inflight.is_empty()
                || self.ticket.is_some();
        }
        !self.generator.is_exhausted()
            || self.staged.is_some()
            || self.pending_wm.is_some()
            || !self.inflight.is_empty()
            || self.ticket.is_some()
    }

    /// Whether the lane has offerable input (backlogged, in DRR terms).
    fn backlogged(&self) -> bool {
        if self.dead || self.draining {
            return false;
        }
        self.staged.is_some() || self.pending_wm.is_some() || !self.generator.is_exhausted()
    }
}

/// Cap on in-flight ingestion tasks per lane: enough to keep the pool fed,
/// small enough that no lane floods the queues.
const MAX_INFLIGHT_PER_LANE: usize = 4;

/// Live mirror of [`DrrAccounting`] state published to the telemetry
/// registry (section `drr`): total cycle cost charged, penalties issued and
/// each lane's current deficit. The serve loop owns the real bookkeeping;
/// observers read this mirror so snapshots never contend with dispatch.
pub(crate) struct DrrCounters {
    charged: AtomicU64,
    penalties: AtomicU64,
    deficits: Mutex<Vec<i64>>,
}

impl DrrCounters {
    fn new(lanes: usize) -> Self {
        DrrCounters {
            charged: AtomicU64::new(0),
            penalties: AtomicU64::new(0),
            deficits: Mutex::new(vec![0; lanes]),
        }
    }

    fn add_charged(&self, cost: u64) {
        self.charged.fetch_add(cost, Ordering::Relaxed);
    }

    fn add_penalty(&self) {
        self.penalties.fetch_add(1, Ordering::Relaxed);
    }

    fn sync_deficits(&self, drr: &DrrAccounting) {
        let mut deficits = self.deficits.lock();
        for (i, d) in deficits.iter_mut().enumerate() {
            *d = drr.deficit(i);
        }
    }
}

impl sbt_telemetry::CounterSource for DrrCounters {
    fn section(&self) -> String {
        "drr".to_string()
    }

    fn collect(&self, emit: &mut dyn FnMut(&str, i64)) {
        emit("charged", self.charged.load(Ordering::Relaxed) as i64);
        emit("penalties", self.penalties.load(Ordering::Relaxed) as i64);
        for (i, d) in self.deficits.lock().iter().enumerate() {
            emit(&format!("lane{i}_deficit"), *d);
        }
    }
}

impl StreamServer {
    /// Resolve streams against the admitted tenants: one lane per stream,
    /// erroring on unknown tenants and on two streams naming the same
    /// tenant in one submission (which would silently double-drain it).
    fn lanes_for(&self, streams: Vec<TenantStream>) -> Result<Vec<Lane>, DataPlaneError> {
        let entries: HashMap<TenantId, (crate::tenant::TenantConfig, Arc<Engine>)> = self
            .entries_snapshot()
            .into_iter()
            .map(|(id, config, engine)| (id, (config, engine)))
            .collect();
        let mut seen: HashSet<TenantId> = HashSet::new();
        let mut lanes = Vec::with_capacity(streams.len());
        for s in streams {
            let (config, engine) =
                entries.get(&s.tenant).cloned().ok_or(DataPlaneError::UnknownTenant)?;
            if !seen.insert(s.tenant) {
                return Err(DataPlaneError::UnknownTenant);
            }
            lanes.push(Lane {
                tenant: s.tenant,
                weight: config.weight,
                engine,
                generator: s.generator,
                accepted_batches: 0,
                rejected_batches: 0,
                backpressure_signals: 0,
                ckpt_every_records: config.checkpoint_every_records,
                ckpt_every_ms: config.checkpoint_every_ms,
                checkpoints_taken: 0,
                staged: None,
                pending_wm: None,
                inflight: Vec::new(),
                ticket: None,
                draining: false,
                dead: false,
                last_ckpt_events: 0,
                last_ckpt_at: Instant::now(),
                fired_since_ckpt: false,
                ckpt_check_pending: false,
            });
        }
        Ok(lanes)
    }

    fn report(&self, lanes: &[Lane], wall_nanos: u64) -> ServeReport {
        let per_tenant = lanes
            .iter()
            .map(|lane| {
                let metrics = lane.engine.metrics();
                TenantProgress {
                    tenant: lane.tenant,
                    offered_events: lane.generator.offered_events(),
                    accepted_batches: lane.accepted_batches,
                    rejected_batches: lane.rejected_batches,
                    backpressure_signals: lane.backpressure_signals,
                    results: lane.engine.results_len(),
                    ingested_events: metrics.events_ingested,
                    checkpoints_taken: lane.checkpoints_taken,
                    avg_delay_ms: metrics.avg_delay_ms(),
                    max_delay_ms: metrics.max_delay_ms(),
                    departed: self.is_departed(lane.tenant),
                }
            })
            .collect();
        ServeReport { wall_nanos, per_tenant }
    }

    /// Drain every tenant stream to exhaustion under deficit round-robin:
    /// stage offers, dispatch them as executor tasks while deficits allow,
    /// harvest ingestion completions and window tickets as they land, and
    /// lend the calling thread to the executor when there is nothing to
    /// orchestrate.
    ///
    /// Returns an error only for streams naming un-admitted (or duplicated)
    /// tenants or for data-plane failures other than quota rejections
    /// (those are counted, not fatal).
    pub fn serve(&self, streams: Vec<TenantStream>) -> Result<ServeReport, DataPlaneError> {
        let mut lanes = self.lanes_for(streams)?;
        let _guard = ServingGuard::new(self, lanes.iter().map(|l| l.tenant).collect());
        let executor = self.worker_pool().clone();
        for lane in &lanes {
            // Reset the cost meter so this run's charges start at zero.
            let _ = lane.engine.drain_serviced_cost();
        }
        let weights: Vec<u32> = lanes.iter().map(|l| l.weight).collect();
        let mut drr = DrrAccounting::new(&weights, self.config().drr_quantum);
        let telemetry = self.telemetry().clone();
        let drr_counters = Arc::new(DrrCounters::new(lanes.len()));
        telemetry.register_source(&drr_counters);
        // Keep the mirror alive past this loop so post-run snapshots still
        // see the final deficits (the registry only holds it weakly).
        self.retain_drr_mirror(drr_counters.clone());
        let mut fatal: Option<DataPlaneError> = None;
        let start = Instant::now();

        let lane_ids: Vec<TenantId> = lanes.iter().map(|l| l.tenant).collect();
        loop {
            let mut progress = false;
            let phases = self.lane_phases(&lane_ids);

            for (li, l) in lanes.iter_mut().enumerate() {
                // Lifecycle check: an eviction (from any thread) unwinds the
                // lane mid-serve; a drain request stops its intake.
                if !l.dead {
                    match phases[li] {
                        LanePhase::Departed => {
                            l.dead = true;
                            l.staged = None;
                            l.pending_wm = None;
                            progress = true;
                        }
                        LanePhase::Draining if !l.draining => {
                            l.draining = true;
                            // The staged batch never entered the TEE; drop
                            // it. A staged watermark still closes the
                            // windows whose batches are already in.
                            if matches!(l.staged, Some(Offer::Batch(_))) {
                                l.staged = None;
                            }
                            progress = true;
                        }
                        _ => {}
                    }
                }

                // Harvest finished ingestion tasks (any completion order).
                let mut harvested = Vec::new();
                l.inflight.retain_mut(|(est, handle)| match handle.try_join() {
                    None => true,
                    Some(done) => {
                        harvested.push((*est, done));
                        false
                    }
                });
                for (est, done) in harvested {
                    drr.release(li, est);
                    progress = true;
                    match done {
                        _ if l.dead => {
                            // The tenant departed with this batch in flight:
                            // whatever the TEE answered (including
                            // UnknownTenant) is moot.
                        }
                        Ok(Ok(IngestStatus::Accepted)) => l.accepted_batches += 1,
                        Ok(Ok(IngestStatus::Backpressure)) => {
                            l.accepted_batches += 1;
                            l.backpressure_signals += 1;
                            drr.penalize(li);
                            drr_counters.add_penalty();
                            telemetry.flight_trigger(l.tenant.0, FlightReason::BackpressureStall);
                        }
                        Ok(Err(DataPlaneError::QuotaExceeded)) => {
                            // The batch is dropped: the tenant outgrew its
                            // quota. The debit penalizes only this lane.
                            l.rejected_batches += 1;
                            drr.penalize(li);
                            drr_counters.add_penalty();
                            telemetry.flight_trigger(l.tenant.0, FlightReason::QuotaExhausted);
                        }
                        // Evicted after this iteration's phase snapshot,
                        // with the batch in flight: the lane dies; nothing
                        // is fatal for the other tenants.
                        Ok(Err(DataPlaneError::UnknownTenant))
                            if self.lane_phase(l.tenant) == LanePhase::Departed =>
                        {
                            l.dead = true;
                            l.staged = None;
                            l.pending_wm = None;
                        }
                        Ok(Err(e)) => {
                            fatal.get_or_insert(e);
                        }
                        Err(p) => {
                            telemetry.flight_trigger(l.tenant.0, FlightReason::TaskPanic);
                            panic!("ingest task panicked: {}", p.message)
                        }
                    }
                }

                // Charge the cycle cost this tenant actually consumed since
                // the last look (ingestion and window execution alike).
                let serviced = l.engine.drain_serviced_cost();
                if serviced > 0 {
                    drr.charge(li, serviced);
                    drr_counters.add_charged(serviced);
                }

                // Launch a pending watermark once its window's batches have
                // all been stashed and the lane's previous fire has resolved
                // (one closed-but-unemitted window per lane: intake stops at
                // a pending watermark, so a fast ingest cannot run windows
                // ahead of a slow fire and pile their state onto the quota);
                // the returned ticket joins the in-flight set and its window
                // executes concurrently with everything else.
                if l.inflight.is_empty() && l.ticket.is_none() && fatal.is_none() && !l.dead {
                    if let Some(wm) = l.pending_wm.take() {
                        l.ticket =
                            Some(Engine::advance_watermark_async(&l.engine, wm, StreamSide::Left));
                        progress = true;
                    }
                }

                // Harvest the window ticket once it resolves.
                if let Some(result) = l.ticket.as_mut().and_then(WindowTicket::try_wait) {
                    l.ticket = None;
                    progress = true;
                    match result {
                        _ if l.dead => {}
                        Ok(()) => {
                            l.fired_since_ckpt = true;
                            l.ckpt_check_pending = true;
                        }
                        Err(DataPlaneError::QuotaExceeded) => {
                            // Window execution tripped the tenant's quota
                            // (intermediates count too): costs the tenant
                            // its window, nothing else.
                            l.rejected_batches += 1;
                            drr.penalize(li);
                            drr_counters.add_penalty();
                            telemetry.flight_trigger(l.tenant.0, FlightReason::QuotaExhausted);
                        }
                        // Evicted with the window in flight: lane dies,
                        // others unaffected.
                        Err(DataPlaneError::UnknownTenant)
                            if self.lane_phase(l.tenant) == LanePhase::Departed =>
                        {
                            l.dead = true;
                            l.staged = None;
                            l.pending_wm = None;
                        }
                        Err(e) => {
                            fatal.get_or_insert(e);
                        }
                    }
                }
            }

            // Finalize drains: a draining lane with nothing left in flight
            // departs its tenant (the namespace disappears only after its
            // final windows executed and were audited).
            if fatal.is_none() {
                for l in lanes.iter_mut() {
                    if l.draining
                        && !l.dead
                        && l.staged.is_none()
                        && l.pending_wm.is_none()
                        && l.inflight.is_empty()
                        && l.ticket.is_none()
                    {
                        l.engine.quiesce();
                        self.finish_drain(l.tenant);
                        l.dead = true;
                        progress = true;
                    }
                }
            }

            // Amortized checkpoints: a lane with a checkpoint policy whose
            // interval is due seals a snapshot at its next quiescent
            // post-fire point (no in-flight batches, window tickets or
            // staged watermark, and a window fired since the last attempt —
            // right after a fire the buffered state is minimal, so the
            // seal hashes a few hundred bytes, not a whole in-progress
            // window). The seal is one world crossing on this thread; the
            // other lanes' in-flight work keeps overlapping it, so the cost
            // is amortized exactly like any other dispatch.
            if fatal.is_none() {
                for l in lanes.iter_mut() {
                    if l.dead
                        || l.draining
                        || (l.ckpt_every_records.is_none() && l.ckpt_every_ms.is_none())
                        || !l.fired_since_ckpt
                        || !l.inflight.is_empty()
                        || l.ticket.is_some()
                        || l.pending_wm.is_some()
                    {
                        continue;
                    }
                    let due_wall = l
                        .ckpt_every_ms
                        .map(|ms| l.last_ckpt_at.elapsed().as_millis() as u64 >= ms)
                        .unwrap_or(false);
                    if !due_wall && !l.ckpt_check_pending {
                        continue;
                    }
                    l.ckpt_check_pending = false;
                    // The raw ingest counter — read at most once per fire
                    // (see `ckpt_check_pending`), and never via
                    // `Engine::metrics()`, whose snapshot clones every
                    // window result.
                    let events =
                        l.engine.data_plane().tenant_ingest(l.tenant).map(|(e, _)| e).unwrap_or(0);
                    let due_records = l
                        .ckpt_every_records
                        .map(|n| events.saturating_sub(l.last_ckpt_events) >= n)
                        .unwrap_or(false);
                    if !(due_records || due_wall) {
                        continue;
                    }
                    // Mark the attempt whether or not it lands: a vault
                    // fault or a racing departure must not become a
                    // per-iteration retry storm.
                    l.last_ckpt_events = events;
                    l.last_ckpt_at = Instant::now();
                    l.fired_since_ckpt = false;
                    if let Ok(sealed) = l.engine.checkpoint() {
                        if self.vault_store(l.tenant, &sealed).is_ok() {
                            l.checkpoints_taken += 1;
                        }
                        progress = true;
                    }
                }
            }

            // Offer phase: dispatch staged batches while deficits allow.
            let mut starved_by_credit = false;
            if fatal.is_none() {
                for (li, l) in lanes.iter_mut().enumerate() {
                    if l.dead {
                        continue;
                    }
                    if l.draining {
                        // Intake is closed: only promote an already-staged
                        // watermark so the lane can finish its windows.
                        if let Some(Offer::Watermark(wm)) = l.staged.take() {
                            l.pending_wm = Some(wm);
                            progress = true;
                        }
                        continue;
                    }
                    loop {
                        if l.staged.is_none() && l.pending_wm.is_none() {
                            l.staged = l.generator.next_offer();
                        }
                        match l.staged.take() {
                            None => break,
                            Some(Offer::Watermark(wm)) => {
                                // Stop pulling until the watermark launches:
                                // batches behind it belong to later windows.
                                l.pending_wm = Some(wm);
                                break;
                            }
                            Some(Offer::Batch(delivery)) => {
                                let est = batch_cost(&l.engine, &delivery);
                                if l.inflight.len() >= MAX_INFLIGHT_PER_LANE {
                                    l.staged = Some(Offer::Batch(delivery));
                                    break;
                                }
                                if !drr.can_dispatch(li, est) {
                                    l.staged = Some(Offer::Batch(delivery));
                                    starved_by_credit = true;
                                    break;
                                }
                                drr.reserve(li, est);
                                let engine = l.engine.clone();
                                let handle = executor
                                    .spawn(move || engine.ingest_on(&delivery, StreamSide::Left));
                                l.inflight.push((est, handle));
                                progress = true;
                            }
                        }
                    }
                }
            }

            drr_counters.sync_deficits(&drr);

            if fatal.is_some() {
                // Fatal error: stop offering (gated above), let in-flight
                // tasks and tickets drain, then return the error — a lane
                // with unoffered input must not keep the loop alive.
                if lanes.iter().all(|l| l.inflight.is_empty() && l.ticket.is_none()) {
                    break;
                }
            } else if !lanes.iter().any(|l| l.live()) {
                break;
            }

            // Refill only when credit is what's actually blocking: lanes
            // starved by in-flight caps or waiting on completions get
            // nothing, so idle tenants cannot hoard credit.
            if starved_by_credit && !progress {
                drr.begin_round(|i| lanes[i].backlogged());
                continue;
            }

            if !progress {
                // Nothing to orchestrate right now: lend this thread to the
                // executor rather than spinning.
                if !executor.help_one() {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }

        let wall_nanos = start.elapsed().as_nanos() as u64;
        match fatal {
            Some(e) => Err(e),
            None => Ok(self.report(&lanes, wall_nanos)),
        }
    }

    /// [`serve`](StreamServer::serve) under an explicitly named scheduler.
    pub fn serve_with(
        &self,
        streams: Vec<TenantStream>,
        scheduler: Scheduler,
    ) -> Result<ServeReport, DataPlaneError> {
        let Scheduler::DeficitRoundRobin = scheduler;
        self.serve(streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::tenant::TenantConfig;
    use sbt_crypto::MasterSecret;
    use sbt_engine::{Operator, Pipeline};
    use sbt_workloads::datasets::multi_tenant_streams;
    use sbt_workloads::generator::GeneratorConfig;
    use sbt_workloads::transport::Channel;

    fn pipeline(name: &str) -> Pipeline {
        Pipeline::new(name).then(Operator::WindowSum).target_delay_ms(60_000).batch_events(500)
    }

    fn streams_for(
        ids: &[TenantId],
        loads: &[Vec<sbt_workloads::datasets::StreamChunk>],
    ) -> Vec<TenantStream> {
        let master = MasterSecret::demo();
        ids.iter()
            .zip(loads)
            .map(|(tenant, chunks)| TenantStream {
                tenant: *tenant,
                generator: Generator::new(
                    GeneratorConfig { batch_events: 500 },
                    Channel::for_tenant(&master, *tenant, 0),
                    chunks.clone(),
                ),
            })
            .collect()
    }

    #[test]
    fn drr_serves_two_tenants_to_completion_with_correct_results() {
        let server = StreamServer::new(ServerConfig::default().with_cores(2));
        let a = server.admit(TenantConfig::new("a", 32 << 20), pipeline("a")).unwrap();
        let b =
            server.admit(TenantConfig::new("b", 32 << 20).with_weight(2), pipeline("b")).unwrap();
        let loads = multi_tenant_streams(2, 2, 2_000, 16, 7);
        let report =
            server.serve_with(streams_for(&[a, b], &loads), Scheduler::DeficitRoundRobin).unwrap();
        assert_eq!(report.aggregate_events(), 2 * 2 * 2_000);
        assert!(report.aggregate_events_per_sec() > 0.0);
        // Every tenant produced one result per window, matching its oracle —
        // each opening only under its own derived keys.
        for (i, tenant) in [a, b].into_iter().enumerate() {
            let keys = server.verifier_keys(tenant).unwrap();
            let engine = server.engine(tenant).unwrap();
            let results = engine.results();
            assert_eq!(results.len(), 2, "{tenant}");
            for (w, msg) in results.iter().enumerate() {
                let plain = msg.open_with(keys.latest()).unwrap();
                let got = u64::from_le_bytes(plain[..8].try_into().unwrap());
                let expected: u64 = loads[i][w].events.iter().map(|e| e.value as u64).sum();
                assert_eq!(got, expected, "{tenant} window {w}");
            }
        }
        // Cross-tenant: a's results do not open under b's keys.
        let a_result = &server.engine(a).unwrap().results()[0];
        assert!(a_result.open_with(server.verifier_keys(b).unwrap().latest()).is_none());
    }

    #[test]
    fn unadmitted_tenant_streams_are_refused() {
        let server = StreamServer::new(ServerConfig::default());
        let streams = vec![TenantStream {
            tenant: TenantId(99),
            generator: Generator::new(
                GeneratorConfig { batch_events: 100 },
                Channel::cleartext(),
                vec![],
            ),
        }];
        assert_eq!(server.serve(streams).unwrap_err(), DataPlaneError::UnknownTenant);
    }

    #[test]
    fn duplicate_tenant_streams_are_refused_not_double_drained() {
        let server = StreamServer::new(ServerConfig::default());
        let a = server.admit(TenantConfig::new("a", 32 << 20), pipeline("a")).unwrap();
        let loads = multi_tenant_streams(2, 1, 500, 8, 3);
        let streams = streams_for(&[a, a], &loads);
        assert_eq!(server.serve(streams).unwrap_err(), DataPlaneError::UnknownTenant);
    }

    #[test]
    fn drr_serve_publishes_lane_counters_to_the_registry() {
        let server = StreamServer::new(ServerConfig::default().with_cores(2));
        let a = server.admit(TenantConfig::new("a", 32 << 20), pipeline("a")).unwrap();
        let b = server.admit(TenantConfig::new("b", 32 << 20), pipeline("b")).unwrap();
        let loads = multi_tenant_streams(2, 1, 1_000, 8, 11);
        server.serve(streams_for(&[a, b], &loads)).unwrap();
        let snap = server.telemetry().snapshot();
        assert!(snap.counter_u64("drr.charged") > 0, "serviced cost reaches the registry");
        assert!(snap.counter("drr.penalties").is_some());
        assert!(snap.counter("drr.lane0_deficit").is_some());
        assert!(snap.counter("drr.lane1_deficit").is_some());
        // The shared executor is registered as a source by the server too.
        assert!(snap.counter_u64("executor.executed") > 0);
    }

    #[test]
    fn drr_serve_records_per_tenant_window_emit_histograms() {
        let server = StreamServer::new(ServerConfig::default().with_cores(2));
        server.telemetry().set_enabled(true);
        let a = server.admit(TenantConfig::new("a", 32 << 20), pipeline("a")).unwrap();
        let b = server.admit(TenantConfig::new("b", 32 << 20), pipeline("b")).unwrap();
        let windows = 2u64;
        let loads = multi_tenant_streams(2, windows as u32, 1_000, 8, 13);
        server.serve(streams_for(&[a, b], &loads)).unwrap();
        let rows = server.telemetry().latency_rows();
        for tenant in [a, b] {
            let row = rows
                .iter()
                .find(|r| r.tenant == tenant.0 && r.kind == "window_emit")
                .unwrap_or_else(|| panic!("{tenant} has no window-emit histogram: {rows:?}"));
            assert!(row.count >= windows, "{tenant}: {} emits for {windows} windows", row.count);
            assert!(
                row.p50_nanos <= row.p95_nanos
                    && row.p95_nanos <= row.p99_nanos
                    && row.p99_nanos <= row.max_nanos,
                "{tenant}: quantiles are not monotone: {row:?}"
            );
        }
    }

    #[test]
    fn quota_exhaustion_during_serve_dumps_the_flight_recorder() {
        let server = StreamServer::new(ServerConfig::default().with_cores(2));
        // A quota far below one window's working set: ingestion trips
        // QuotaExceeded, which the loop counts (not fatal) and records.
        let a = server.admit(TenantConfig::new("tiny", 4 * 1024), pipeline("tiny")).unwrap();
        let loads = multi_tenant_streams(1, 1, 2_000, 64, 5);
        let report = server.serve(streams_for(&[a], &loads)).unwrap();
        assert!(report.per_tenant[0].rejected_batches > 0, "quota must actually trip");
        let dumps = server.telemetry().take_flight_dumps();
        assert!(
            dumps.iter().any(|d| d.tenant == a.0
                && matches!(d.reason, sbt_telemetry::FlightReason::QuotaExhausted)),
            "expected a QuotaExhausted dump for tenant {a}, got {dumps:?}"
        );
    }

    #[test]
    fn drr_accounting_reserves_charges_and_penalizes() {
        let mut drr = DrrAccounting::new(&[1, 2], 100);
        assert!(!drr.can_dispatch(0, 50), "no credit before the first round");
        drr.begin_round(|_| true);
        assert_eq!(drr.deficit(0), 100);
        assert_eq!(drr.deficit(1), 200);
        assert!(drr.can_dispatch(0, 100));
        drr.reserve(0, 80);
        assert!(!drr.can_dispatch(0, 80), "reservations hold credit");
        // Actual cost overran the estimate; the lane pays what it used.
        drr.release(0, 80);
        drr.charge(0, 120);
        assert_eq!(drr.deficit(0), -20);
        drr.penalize(1);
        assert_eq!(drr.deficit(1), 0);
        // An idle lane's deficit resets instead of hoarding credit.
        drr.begin_round(|i| i == 1);
        assert_eq!(drr.deficit(0), -20, "negative deficits persist through idling");
        assert_eq!(drr.deficit(1), 200);
    }
}
