//! Fair scheduling of tenant sources over the shared executor: deficit
//! round-robin.
//!
//! Each lane (tenant stream) accrues a quantum of estimated *cycle cost*
//! (`weight × drr_quantum` units per refill round, see
//! [`sbt_engine::CycleCost`]) and spends it on work actually dispatched —
//! bytes decrypted, events windowed, records executed. Penalties
//! (backpressure, quota rejections) are deficit debits rather than skipped
//! rounds. Ingestion tasks and window fires from many lanes stay
//! **in flight simultaneously** and overlap with the offer loop itself:
//! there is no global round barrier, so one slow tenant's window cannot
//! stall another tenant's ingestion.
//!
//! **Group commit.** A lane ingests a window's batches as one group, one
//! command list and so one world switch ([`Engine::ingest_group`]). A group
//! stops at the watermark, and before its committed bytes would exceed the
//! tenant's quota headroom (read once per group), so a group that fits is
//! never refused whole; a headroom short of one batch makes a group of one
//! (unless the batches are too big for the whole quota).
//! It never waits on a source, a lane has one group in
//! flight at a time, and after backpressure or a refusal the lane sends
//! groups of one batch until one is accepted. A window of 25 batches costs
//! one ingest crossing, not 25; its watermark costs none, since the
//! window's fire records it.
//!
//! **Checkpoints.** A lane counts the events of its accepted groups. Once
//! they reach the tenant's checkpoint interval, the lane dispatches nothing
//! more until its window fire lands, and seals the checkpoint at that
//! quiescent point, so every due checkpoint is taken.
//!
//! Service accounting is *post-paid*: the dispatch gate uses the group's
//! estimated cost, but deficits are charged with the cycle cost each
//! tenant's gateway actually metered — the same [`Engine::ingest_cost`]
//! function for a group, plus primitive and egress work — so tenants pay
//! for the cycles they consumed, including their window executions, not
//! for a batch count.

use crate::server::{LanePhase, StreamServer};
use parking_lot::Mutex;
use sbt_dataplane::{DataPlane, DataPlaneError};
use sbt_engine::{Engine, Executor, IngestStatus, JoinHandle, StreamSide};
use sbt_telemetry::FlightReason;
use sbt_types::{TenantId, Watermark};
use sbt_workloads::generator::{Generator, Offer};
use sbt_workloads::transport::Delivery;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
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
    /// Batches rejected because they would exceed the tenant's quota
    /// (every batch of a rejected group), plus one per window whose fire
    /// the quota rejected.
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
/// cannot be hoarded). A lane may dispatch a work item while its deficit
/// covers the item's estimated cost; completed work is charged at its
/// *actual* metered cost. A lane has at most one ingest group in flight and
/// offers nothing more until it is harvested, so no credit is held for work
/// in flight.
#[derive(Debug)]
pub struct DrrAccounting {
    quantum: u64,
    lanes: Vec<DrrLane>,
}

#[derive(Debug)]
struct DrrLane {
    weight: u32,
    deficit: i64,
}

impl DrrAccounting {
    /// Bookkeeping for `weights.len()` lanes with the given refill quantum.
    pub fn new(weights: &[u32], quantum: u64) -> Self {
        DrrAccounting {
            quantum: quantum.max(1),
            lanes: weights.iter().map(|w| DrrLane { weight: (*w).max(1), deficit: 0 }).collect(),
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

    /// Whether the lane's deficit covers an item of estimated cost `est`.
    pub fn can_dispatch(&self, lane: usize, est: u64) -> bool {
        self.lanes[lane].deficit >= est as i64
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

/// A lane's in-flight ingest group.
struct InflightGroup {
    /// Batches in the group.
    batches: u64,
    /// Events in the group.
    events: u64,
    handle: JoinHandle<Result<IngestStatus, DataPlaneError>>,
}

/// One tenant stream's serve-loop state: its source, its counters and the
/// work it has in flight.
struct Lane {
    tenant: TenantId,
    /// The lane's index in the serve loop's [`DrrAccounting`].
    slot: usize,
    weight: u32,
    engine: Arc<Engine>,
    generator: Generator,
    accepted_batches: u64,
    rejected_batches: u64,
    backpressure_signals: u64,
    /// Checkpoint policy from the tenant's admitted config.
    ckpt_every_records: Option<u64>,
    checkpoints_taken: u64,
    /// Events of the groups accepted since the last checkpoint attempt.
    events_since_ckpt: u64,
    /// Batches pulled from the source and not yet dispatched: the next
    /// ingest group, held until the lane's deficit covers all of it.
    staged: Vec<Delivery>,
    /// A watermark pulled from the source. Intake stops here; it launches
    /// once the batches ahead of it are dispatched and landed (batches of a
    /// window must be stashed before its watermark fires).
    pending_wm: Option<Watermark>,
    /// The in-flight ingest group, if any: at most one per lane.
    ingest: Option<InflightGroup>,
    /// The last outcome was backpressure or a quota rejection: groups are
    /// one batch each until a group is accepted, so one quota trip never
    /// costs a whole group.
    single_batches: bool,
    /// The lane's in-flight window fire (an executor task; its handle is
    /// the lane's ticket). At most one: the next watermark launches only
    /// after this one is harvested.
    ticket: Option<JoinHandle<Result<(), DataPlaneError>>>,
    /// Drain requested: finish staged/pending/in-flight work, pull nothing
    /// new, then depart the tenant.
    draining: bool,
    /// The tenant departed (evicted, or this loop finished its drain): the
    /// lane only exists to absorb in-flight completions, whose outcomes —
    /// `UnknownTenant` included — are discarded.
    dead: bool,
}

impl Lane {
    /// Whether an ingest group or a window ticket is still out.
    fn in_flight(&self) -> bool {
        self.ingest.is_some() || self.ticket.is_some()
    }

    /// Whether nothing is staged, pending or in flight.
    fn quiescent(&self) -> bool {
        self.staged.is_empty() && self.pending_wm.is_none() && !self.in_flight()
    }

    /// Whether the lane's accepted events since the last checkpoint attempt
    /// have reached the tenant's checkpoint interval.
    fn checkpoint_due(&self) -> bool {
        self.ckpt_every_records.is_some_and(|every| self.events_since_ckpt >= every)
    }

    /// Whether the lane still has work the serve loop must see through.
    fn live(&self) -> bool {
        if self.dead {
            return self.in_flight();
        }
        !self.quiescent() || (!self.draining && !self.generator.is_exhausted())
    }

    /// Whether the lane has offerable input (backlogged, in DRR terms).
    fn backlogged(&self) -> bool {
        if self.dead || self.draining {
            return false;
        }
        !self.staged.is_empty() || self.pending_wm.is_some() || !self.generator.is_exhausted()
    }

    /// The tenant is gone: drop what never entered the TEE and keep the
    /// lane only to absorb in-flight completions.
    fn die(&mut self) {
        self.dead = true;
        self.staged.clear();
        self.pending_wm = None;
    }

    /// Lifecycle step: an eviction (from any thread) unwinds the lane
    /// mid-serve; a drain request stops its intake.
    fn apply_phase(&mut self, phase: LanePhase) -> bool {
        if self.dead {
            return false;
        }
        match phase {
            LanePhase::Departed => self.die(),
            LanePhase::Draining if !self.draining => {
                self.draining = true;
                // The staged batches never entered the TEE; drop them, and
                // the watermark behind them, which would fire their window
                // without them. A watermark with nothing staged ahead of
                // it still closes the windows whose batches are all in.
                if !self.staged.is_empty() {
                    self.staged.clear();
                    self.pending_wm = None;
                }
            }
            _ => return false,
        }
        true
    }

    /// Ingest-harvest step: settle the in-flight group once its task is
    /// done.
    fn harvest_ingest(&mut self, ctx: &mut Serving<'_>) -> bool {
        let Some(done) = self.ingest.as_ref().and_then(|group| group.handle.try_join()) else {
            return false;
        };
        let InflightGroup { batches, events, .. } =
            self.ingest.take().expect("a group was in flight");
        match done {
            Ok(outcome) => {
                if outcome.is_ok() {
                    self.events_since_ckpt += events;
                }
                self.on_ingest(ctx, batches, outcome)
            }
            Err(_) if self.dead => {}
            Err(p) => {
                ctx.server.telemetry().flight_trigger(self.tenant.0, FlightReason::TaskPanic);
                panic!("ingest task panicked: {}", p.message)
            }
        }
        true
    }

    /// Settle one ingest group's outcome into the lane's counters and
    /// deficit. The group is one transaction: all its `batches` were
    /// accepted or all rejected, and either way it earns at most one
    /// penalty.
    fn on_ingest(
        &mut self,
        ctx: &mut Serving<'_>,
        batches: u64,
        outcome: Result<IngestStatus, DataPlaneError>,
    ) {
        match outcome {
            // The tenant departed with this group in flight: whatever the
            // TEE answered (including UnknownTenant) is moot.
            _ if self.dead => {}
            Ok(IngestStatus::Accepted) => {
                self.accepted_batches += batches;
                self.single_batches = false;
            }
            Ok(IngestStatus::Backpressure) => {
                self.accepted_batches += batches;
                self.backpressure_signals += 1;
                self.single_batches = true;
                ctx.penalize(self, FlightReason::BackpressureStall);
            }
            Err(e) => self.on_error(ctx, batches, e),
        }
    }

    /// Settle one window-execution outcome.
    fn on_fire(&mut self, ctx: &mut Serving<'_>, outcome: Result<(), DataPlaneError>) {
        match outcome {
            Err(e) if !self.dead => self.on_error(ctx, 1, e),
            _ => {}
        }
    }

    /// The error outcomes ingestion and window execution share; `rejected`
    /// is what a quota rejection costs the lane's count (a group's batches,
    /// or one window).
    fn on_error(&mut self, ctx: &mut Serving<'_>, rejected: u64, e: DataPlaneError) {
        match e {
            // The group is dropped, or the window whose intermediates
            // tripped the quota: the tenant outgrew its quota. The debit
            // penalizes only this lane.
            DataPlaneError::QuotaExceeded => {
                self.rejected_batches += rejected;
                self.single_batches = true;
                ctx.penalize(self, FlightReason::QuotaExhausted);
            }
            // Evicted after this iteration's phase snapshot, with work in
            // flight: the lane dies; nothing is fatal for the other tenants.
            DataPlaneError::UnknownTenant
                if ctx.server.lane_phase(self.tenant) == LanePhase::Departed =>
            {
                self.die()
            }
            e => {
                ctx.fatal.get_or_insert(e);
            }
        }
    }

    /// Cost-charge step: charge the cycle cost this tenant actually
    /// consumed since the last look (ingestion and window execution alike).
    fn charge_serviced(&mut self, ctx: &mut Serving<'_>) {
        let serviced = self.engine.drain_serviced_cost();
        if serviced > 0 {
            ctx.drr.charge(self.slot, serviced);
            ctx.counters().charged.fetch_add(serviced, Ordering::Relaxed);
        }
    }

    /// Watermark-launch step: launch a pending watermark once its window's
    /// batches have all been stashed and the lane's previous fire has
    /// resolved (one closed-but-unemitted window per lane: intake stops at
    /// a pending watermark, so a fast ingest cannot run windows ahead of a
    /// slow fire and pile their state onto the quota); the returned ticket
    /// joins the in-flight set and its window executes concurrently with
    /// everything else.
    fn launch_watermark(&mut self, ctx: &Serving<'_>) -> bool {
        if self.in_flight() || !self.staged.is_empty() || ctx.fatal.is_some() || self.dead {
            return false;
        }
        let Some(wm) = self.pending_wm.take() else { return false };
        self.ticket = Some(Engine::advance_watermark_async(&self.engine, wm, StreamSide::Left));
        true
    }

    /// Ticket-harvest step: settle the window fire once its task is done.
    /// A fire that panicked is flight-recorded for the tenant and becomes
    /// the serve loop's fatal error.
    fn harvest_ticket(&mut self, ctx: &mut Serving<'_>) -> bool {
        let Some(done) = self.ticket.as_ref().and_then(JoinHandle::try_join) else {
            return false;
        };
        self.ticket = None;
        let outcome = done.unwrap_or_else(|_| {
            if !self.dead {
                ctx.server.telemetry().flight_trigger(self.tenant.0, FlightReason::TaskPanic);
            }
            Err(DataPlaneError::BadArguments("window fire panicked"))
        });
        self.on_fire(ctx, outcome);
        true
    }

    /// Drain-finish step: a draining lane with nothing left in flight
    /// departs its tenant (the namespace disappears only after its final
    /// windows executed and were audited).
    fn finish_drain(&mut self, server: &StreamServer) -> bool {
        if !self.draining || self.dead || !self.quiescent() {
            return false;
        }
        self.engine.quiesce();
        server.finish_drain(self.tenant);
        self.dead = true;
        true
    }

    /// Checkpoint-due step: a lane whose checkpoint is due seals a snapshot
    /// at its quiescent point: [`offer`](Lane::offer) holds the next group
    /// while the due window's fire is out, so the lane gets there right
    /// after that fire lands, when its buffered state is minimal and the
    /// seal hashes a few hundred bytes, not a whole in-progress window. The
    /// seal is one world crossing on the serve thread; the other lanes'
    /// in-flight work keeps overlapping it, so the cost is amortized exactly
    /// like any other dispatch.
    fn checkpoint_if_due(&mut self, server: &StreamServer) -> bool {
        if self.dead || self.draining || !self.checkpoint_due() || !self.quiescent() {
            return false;
        }
        // Mark the attempt whether or not it lands: a vault fault or a
        // racing departure must not become a per-iteration retry storm.
        self.events_since_ckpt = 0;
        let Ok(sealed) = self.engine.checkpoint() else { return false };
        if server.vault_store(self.tenant, &sealed).is_ok() {
            self.checkpoints_taken += 1;
        }
        true
    }

    /// Offer step: fill the next ingest group and dispatch it as one task
    /// once the lane's deficit covers the whole group. The lane pulls from
    /// the source up to the window's watermark, which stays pending behind
    /// the group, or until the source runs dry — it never waits for input.
    /// The group takes the staged batches up to the tenant's quota headroom
    /// ([`Lane::group_len`]), or one batch while `single_batches` holds.
    /// Nothing is offered while the lane's previous group is in flight, nor
    /// while a due checkpoint waits for the lane's window fire to land.
    /// Returns whether anything moved and whether credit, rather than the
    /// input, is what stopped it.
    fn offer(&mut self, drr: &mut DrrAccounting, executor: &Executor) -> (bool, bool) {
        if self.dead
            || self.draining
            || self.ingest.is_some()
            || (self.checkpoint_due() && self.ticket.is_some())
        {
            return (false, false);
        }
        let mut pulled = false;
        while self.pending_wm.is_none() {
            match self.generator.next_offer() {
                None => break,
                Some(Offer::Watermark(wm)) => self.pending_wm = Some(wm),
                Some(Offer::Batch(delivery)) => self.staged.push(delivery),
            }
            pulled = true;
        }
        if self.staged.is_empty() {
            return (pulled, false);
        }
        let n = if self.single_batches { 1 } else { self.group_len() };
        let est = self.engine.ingest_cost(&self.staged[..n]);
        if !drr.can_dispatch(self.slot, est) {
            return (pulled, true);
        }
        let group: Vec<Delivery> = self.staged.drain(..n).collect();
        let events = group.iter().map(|d| d.event_count as u64).sum();
        let engine = self.engine.clone();
        let handle = executor.spawn(move || engine.ingest_group(&group, StreamSide::Left));
        self.ingest = Some(InflightGroup { batches: n as u64, events, handle });
        (true, false)
    }

    /// How many staged batches the next group takes: as many as fit the
    /// tenant's quota headroom, read once. A batch is decrypted straight
    /// into its windows and appended to each one's array, filling its
    /// part-filled last page first, so it commits at most
    /// [`DataPlane::ingress_charge`], plus a page for each further window it
    /// touches — which the charge cannot count, since an encrypted batch
    /// does not show its windows before the TEE decrypts it. When not even the
    /// first batch fits, a batch that only waits for headroom goes alone:
    /// should the data plane refuse it, the lane risks one batch, not the
    /// window, and sends groups of one until one is accepted. Batches too
    /// big for the whole quota are refused in any group, so they go
    /// together, for one penalty.
    fn group_len(&self) -> usize {
        let memory = self.engine.data_plane().tenant_memory(self.tenant).ok();
        let headroom = memory.map_or(u64::MAX, |memory| memory.headroom_bytes());
        let quota = memory.and_then(|memory| memory.quota_bytes).unwrap_or(u64::MAX);
        let charge = |delivery: &Delivery| DataPlane::ingress_charge(delivery.event_count as u64);
        let mut committed = 0u64;
        let fit = self
            .staged
            .iter()
            .take_while(|delivery| {
                committed = committed.saturating_add(charge(delivery));
                committed <= headroom
            })
            .count();
        if fit > 0 {
            return fit;
        }
        self.staged.iter().take_while(|delivery| charge(delivery) > quota).count().max(1)
    }
}

sbt_telemetry::counters! {
    /// What deficit round-robin has charged, over the server's lifetime.
    struct DrrCounters {
        /// Cycle cost charged against lane deficits.
        charged,
        /// Penalties issued (backpressure, quota rejections).
        penalties,
    }
    /// A point-in-time copy of [`DrrCounters`].
    struct DrrCounts;
}

/// DRR's registry section (`drr`): the server-lifetime counters, plus each
/// lane's current deficit as the latest serve loop left it. The serve loop
/// owns the real bookkeeping; observers read this mirror so snapshots
/// never contend with dispatch.
#[derive(Default)]
pub(crate) struct DrrTelemetry {
    counters: DrrCounters,
    deficits: Mutex<Vec<i64>>,
}

impl DrrTelemetry {
    /// Rewrite the deficit gauge from one serve loop's lanes (in place:
    /// the loop calls this every pass).
    fn sync_deficits(&self, drr: &DrrAccounting) {
        let mut deficits = self.deficits.lock();
        deficits.clear();
        deficits.extend(drr.lanes.iter().map(|lane| lane.deficit));
    }
}

impl sbt_telemetry::CounterSource for DrrTelemetry {
    fn section(&self) -> String {
        "drr".to_string()
    }

    fn collect(&self, emit: &mut dyn FnMut(&str, i64)) {
        self.counters.export(emit);
        for (i, d) in self.deficits.lock().iter().enumerate() {
            emit(&format!("lane{i}_deficit"), *d);
        }
    }
}

/// The serve loop's shared state that lane steps report into: the server,
/// the DRR bookkeeping, and the first fatal error.
struct Serving<'a> {
    server: &'a StreamServer,
    drr: DrrAccounting,
    fatal: Option<DataPlaneError>,
}

impl<'a> Serving<'a> {
    fn new(server: &'a StreamServer, lanes: &[Lane]) -> Self {
        let weights: Vec<u32> = lanes.iter().map(|l| l.weight).collect();
        let drr = DrrAccounting::new(&weights, server.config().drr_quantum);
        server.drr_telemetry().sync_deficits(&drr);
        Serving { server, drr, fatal: None }
    }

    fn counters(&self) -> &DrrCounters {
        &self.server.drr_telemetry().counters
    }

    /// Debit a misbehaving lane one round's credit, count the penalty and
    /// dump the flight recorder for its tenant.
    fn penalize(&mut self, lane: &Lane, reason: FlightReason) {
        self.drr.penalize(lane.slot);
        self.counters().penalties.fetch_add(1, Ordering::Relaxed);
        self.server.telemetry().flight_trigger(lane.tenant.0, reason);
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
                slot: lanes.len(),
                weight: config.weight,
                engine,
                generator: s.generator,
                accepted_batches: 0,
                rejected_batches: 0,
                backpressure_signals: 0,
                ckpt_every_records: config.checkpoint_every_records,
                checkpoints_taken: 0,
                events_since_ckpt: 0,
                staged: Vec::new(),
                pending_wm: None,
                ingest: None,
                single_batches: false,
                ticket: None,
                draining: false,
                dead: false,
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
    /// fill each lane's ingest group, dispatch it as one executor task once
    /// the lane's deficit covers it, harvest group completions and window
    /// tickets as they land, run queued window fires before the lanes pull
    /// again, and lend the calling thread to the executor when there is
    /// nothing to orchestrate.
    ///
    /// Returns an error only for streams naming un-admitted (or duplicated)
    /// tenants or for data-plane failures other than quota rejections
    /// (those are counted, not fatal).
    pub fn serve(&self, streams: Vec<TenantStream>) -> Result<ServeReport, DataPlaneError> {
        let mut lanes = self.lanes_for(streams)?;
        let lane_ids: Vec<TenantId> = lanes.iter().map(|l| l.tenant).collect();
        let _guard = ServingGuard::new(self, lane_ids.clone());
        let executor = self.worker_pool().clone();
        for lane in &lanes {
            // Reset the cost meter so this run's charges start at zero.
            let _ = lane.engine.drain_serviced_cost();
        }
        let mut ctx = Serving::new(self, &lanes);
        let start = Instant::now();

        loop {
            let mut progress = false;
            let phases = self.lane_phases(&lane_ids);
            for (l, phase) in lanes.iter_mut().zip(phases) {
                progress |= l.apply_phase(phase);
                progress |= l.harvest_ingest(&mut ctx);
                l.charge_serviced(&mut ctx);
                progress |= l.launch_watermark(&ctx);
                progress |= l.harvest_ticket(&mut ctx);
            }
            let mut starved_by_credit = false;
            if ctx.fatal.is_none() {
                for l in lanes.iter_mut() {
                    progress |= l.finish_drain(self);
                }
                for l in lanes.iter_mut() {
                    progress |= l.checkpoint_if_due(self);
                }
                // Fires first: a window fire launched this pass and not yet
                // taken by a worker (likely deep in a window's ingest group)
                // runs here, before the lanes pull their next windows, the
                // longest stretch of this thread's own work.
                while executor.help_fire() {
                    progress = true;
                }
                for l in lanes.iter_mut() {
                    let (offered, starved) = l.offer(&mut ctx.drr, &executor);
                    progress |= offered;
                    starved_by_credit |= starved;
                }
            }
            self.drr_telemetry().sync_deficits(&ctx.drr);

            if ctx.fatal.is_some() {
                // Fatal error: stop offering (gated above), let in-flight
                // tasks and tickets drain, then return the error — a lane
                // with unoffered input must not keep the loop alive.
                if !lanes.iter().any(Lane::in_flight) {
                    break;
                }
            } else if !lanes.iter().any(Lane::live) {
                break;
            }

            // Refill only when credit is what's actually blocking: lanes
            // starved by in-flight caps or waiting on completions get
            // nothing, so idle tenants cannot hoard credit.
            if starved_by_credit && !progress {
                ctx.drr.begin_round(|i| lanes[i].backlogged());
                continue;
            }
            // Nothing to orchestrate right now: lend this thread to the
            // executor rather than spinning.
            if !progress && !executor.help_one() {
                std::thread::sleep(Duration::from_micros(50));
            }
        }

        let wall_nanos = start.elapsed().as_nanos() as u64;
        match ctx.fatal {
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

    /// `drr.*` counts over the server's lifetime: a second serve adds to
    /// what the first charged, so a registry delta across it reads what
    /// that serve charged.
    #[test]
    fn drr_counters_accumulate_across_serves() {
        let server = StreamServer::new(ServerConfig::default().with_cores(2));
        let a = server.admit(TenantConfig::new("a", 32 << 20), pipeline("a")).unwrap();
        let b = server.admit(TenantConfig::new("b", 32 << 20), pipeline("b")).unwrap();
        let loads = multi_tenant_streams(2, 1, 1_000, 8, 11);
        let start = server.telemetry().snapshot();
        server.serve(streams_for(&[a, b], &loads)).unwrap();
        let first = server.telemetry().snapshot();
        server.serve(streams_for(&[a, b], &loads)).unwrap();
        let second = server.telemetry().snapshot();
        let charged = |later: &sbt_telemetry::TelemetrySnapshot, earlier: &_| {
            later.delta_since(earlier).counter("drr.charged").unwrap()
        };
        let (d1, d2) = (charged(&first, &start), charged(&second, &first));
        assert!(d1 > 0 && d2 >= 0, "drr.charged fell: first serve {d1}, second serve {d2}");
        assert!(d2 > d1 / 2, "the second serve charged {d2}, the first {d1}");
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

    /// The serve loop's outcome table, one row per ingest/ticket outcome:
    /// what each does to the lane's counters, its deficit, the penalty
    /// count and the loop's fatal error.
    #[test]
    fn lane_steps_settle_every_ingest_and_fire_outcome() {
        let server = StreamServer::new(ServerConfig::default().with_drr_quantum(100));
        let a =
            server.admit(TenantConfig::new("a", 32 << 20).with_weight(2), pipeline("a")).unwrap();
        let mut lanes = server.lanes_for(streams_for(&[a], &[vec![]])).unwrap();
        let mut ctx = Serving::new(&server, &lanes);
        let lane = &mut lanes[0];
        // (accepted, rejected, backpressure, deficit, penalties)
        let row = |lane: &Lane, ctx: &Serving<'_>| {
            (
                lane.accepted_batches,
                lane.rejected_batches,
                lane.backpressure_signals,
                ctx.drr.deficit(0),
                ctx.counters().snapshot().penalties,
            )
        };

        // A group of 4 settles as one outcome: its batches counted, at
        // most one penalty.
        lane.on_ingest(&mut ctx, 4, Ok(IngestStatus::Accepted));
        assert_eq!(row(lane, &ctx), (4, 0, 0, 0, 0));
        assert!(!lane.single_batches);
        lane.on_ingest(&mut ctx, 4, Ok(IngestStatus::Backpressure));
        assert_eq!(row(lane, &ctx), (8, 0, 1, -200, 1), "backpressure costs a weighted round");
        assert!(lane.single_batches, "backpressure shrinks groups to one batch");
        lane.on_ingest(&mut ctx, 1, Ok(IngestStatus::Accepted));
        assert!(!lane.single_batches, "an accepted group restores full groups");
        lane.on_ingest(&mut ctx, 4, Err(DataPlaneError::QuotaExceeded));
        assert_eq!(row(lane, &ctx), (9, 4, 1, -400, 2), "a rejected group: n batches, 1 penalty");
        assert!(lane.single_batches);
        lane.on_fire(&mut ctx, Err(DataPlaneError::QuotaExceeded));
        assert_eq!(row(lane, &ctx), (9, 5, 1, -600, 3), "a window over quota costs one");
        lane.on_fire(&mut ctx, Ok(()));
        assert_eq!(row(lane, &ctx), (9, 5, 1, -600, 3), "a fire that lands costs nothing");
        let reasons: Vec<FlightReason> =
            server.telemetry().take_flight_dumps().into_iter().map(|d| d.reason).collect();
        assert_eq!(
            reasons,
            [
                FlightReason::BackpressureStall,
                FlightReason::QuotaExhausted,
                FlightReason::QuotaExhausted
            ]
        );
        assert_eq!(ctx.fatal, None);

        // Fatal: UnknownTenant while the tenant is still admitted, or any
        // other error. The first one sticks.
        lane.on_ingest(&mut ctx, 4, Err(DataPlaneError::UnknownTenant));
        lane.on_fire(&mut ctx, Err(DataPlaneError::BadArguments("later")));
        assert_eq!(ctx.fatal, Some(DataPlaneError::UnknownTenant));
        assert!(!lane.dead);
        assert_eq!(row(lane, &ctx), (9, 5, 1, -600, 3));
        ctx.fatal = None;

        // UnknownTenant after a departure: the lane dies, dropping what never
        // entered the TEE, and nothing is fatal or penalized.
        let Some(Offer::Batch(batch)) = single_batch_stream().next_offer() else {
            panic!("a batch comes first")
        };
        lane.staged.push(batch);
        lane.pending_wm = Some(Watermark::from_millis(2));
        server.evict(a).unwrap();
        lane.on_ingest(&mut ctx, 4, Err(DataPlaneError::UnknownTenant));
        assert!(lane.dead && lane.staged.is_empty() && lane.pending_wm.is_none());
        assert_eq!(ctx.fatal, None);
        // A dead lane's outcomes are moot.
        lane.on_ingest(&mut ctx, 4, Ok(IngestStatus::Backpressure));
        lane.on_fire(&mut ctx, Err(DataPlaneError::QuotaExceeded));
        lane.on_fire(&mut ctx, Err(DataPlaneError::BadArguments("moot")));
        assert_eq!(row(lane, &ctx), (9, 5, 1, -600, 3));
        assert_eq!(ctx.fatal, None);
    }

    /// A generator of one window of 500 events, cut into one batch.
    fn single_batch_stream() -> Generator {
        Generator::new(
            GeneratorConfig { batch_events: 500 },
            Channel::cleartext(),
            multi_tenant_streams(1, 1, 500, 8, 3).remove(0),
        )
    }

    /// Run the lane's in-flight group to completion and settle it as
    /// `outcome` says; returns how many batches it carried.
    fn settle_group(
        lane: &mut Lane,
        ctx: &mut Serving<'_>,
        outcome: Result<IngestStatus, DataPlaneError>,
    ) -> u64 {
        let group = lane.ingest.take().expect("a group is in flight");
        group.handle.join().expect("no panic").expect("the group ingests");
        lane.on_ingest(ctx, group.batches, outcome);
        group.batches
    }

    #[test]
    fn a_lane_groups_a_window_and_one_batch_after_backpressure() {
        // Two windows of 3 000 events in 500-event batches: 6 batches, then
        // the watermark, each. Credit is plentiful, so only the group rules
        // cut.
        let server = StreamServer::new(ServerConfig::default().with_drr_quantum(1 << 40));
        let a = server.admit(TenantConfig::new("a", 32 << 20), pipeline("a")).unwrap();
        let loads = multi_tenant_streams(1, 2, 3_000, 8, 5);
        let mut lanes = server.lanes_for(streams_for(&[a], &loads)).unwrap();
        let mut ctx = Serving::new(&server, &lanes);
        let executor = server.worker_pool().clone();
        let lane = &mut lanes[0];
        ctx.drr.begin_round(|_| true);

        // The whole window is one group; the watermark stays pending until
        // it lands.
        assert_eq!(lane.offer(&mut ctx.drr, &executor), (true, false));
        assert!(lane.pending_wm.is_some() && lane.staged.is_empty());
        assert_eq!(lane.offer(&mut ctx.drr, &executor), (false, false), "one group in flight");
        assert!(!lane.launch_watermark(&ctx), "the group ahead of the watermark is in flight");
        assert_eq!(settle_group(lane, &mut ctx, Ok(IngestStatus::Backpressure)), 6);
        assert!(lane.launch_watermark(&ctx));
        lane.ticket.take().unwrap().join().expect("no panic").expect("the window fires");
        // After backpressure (which cost the lane a round's credit): groups
        // of one, until one is accepted.
        ctx.drr.begin_round(|_| true);
        lane.offer(&mut ctx.drr, &executor);
        assert_eq!(lane.staged.len(), 5, "the window is staged up to its watermark");
        assert_eq!(settle_group(lane, &mut ctx, Ok(IngestStatus::Accepted)), 1);
        lane.offer(&mut ctx.drr, &executor);
        assert_eq!(settle_group(lane, &mut ctx, Ok(IngestStatus::Accepted)), 5);
        assert!(lane.launch_watermark(&ctx));
        lane.ticket.take().unwrap().join().expect("no panic").expect("the window fires");
        assert_eq!(lane.engine.results_len(), 2);
        assert_eq!(lane.accepted_batches, 12);
    }

    #[test]
    fn a_group_stops_at_the_tenants_headroom() {
        // A 500-event batch commits 2 pages, its windowed copy, so a
        // window of 6 batches ingests in 12 pages as one group. The quota
        // is 24 pages, and 16 of them are held by another array when the
        // window is offered: its headroom fits a group of 4 (4 × 2 pages),
        // the rest lands once the array is retired, and no batch is
        // refused.
        const PAGE: u64 = 4096;
        let server = StreamServer::new(ServerConfig::default().with_drr_quantum(1 << 40));
        let a = server.admit(TenantConfig::new("a", 24 * PAGE), pipeline("a")).unwrap();
        let loads = multi_tenant_streams(1, 1, 3_000, 8, 5);
        let mut lanes = server.lanes_for(streams_for(&[a], &loads)).unwrap();
        let mut ctx = Serving::new(&server, &lanes);
        let executor = server.worker_pool().clone();
        let lane = &mut lanes[0];
        ctx.drr.begin_round(|_| true);
        let dp = server.data_plane().clone();
        fn in_tee<R>(f: impl FnOnce() -> R) -> R {
            let _secure = sbt_tz::WorldGuard::enter(sbt_tz::World::Secure);
            f()
        }
        let events: Vec<sbt_types::Event> =
            (0..16 * PAGE as u32 / 12).map(|i| sbt_types::Event::new(i, i, 0)).collect();
        let bytes = sbt_types::Event::slice_to_bytes(&events);
        let held = in_tee(|| dp.ingress(a, &bytes, false, false, 0)).unwrap().opaque;
        assert_eq!(dp.tenant_memory(a).unwrap().headroom_bytes(), 8 * PAGE);

        lane.offer(&mut ctx.drr, &executor);
        assert_eq!(settle_group(lane, &mut ctx, Ok(IngestStatus::Accepted)), 4);
        in_tee(|| dp.retire(a, held)).unwrap();
        lane.offer(&mut ctx.drr, &executor);
        assert_eq!(settle_group(lane, &mut ctx, Ok(IngestStatus::Accepted)), 2);
        assert!(lane.staged.is_empty() && lane.pending_wm.is_some());
        assert_eq!(lane.accepted_batches, 6);
        assert_eq!(lane.rejected_batches, 0);
        let ingested = lane.engine.metrics().events_ingested;
        assert_eq!(ingested, events.len() as u64 + 3_000, "the held array and the window");
    }

    #[test]
    fn a_lane_short_of_headroom_risks_one_batch_not_the_window() {
        // The quota is 24 pages and 23 are held by another array, so not
        // even the first batch of the 6-batch window fits (2 pages): the
        // lane sends it alone, the data plane refuses it, and the lane
        // keeps to groups of one until the array is retired. Two batches
        // are lost, not the window.
        const PAGE: u64 = 4096;
        let server = StreamServer::new(ServerConfig::default().with_drr_quantum(1 << 40));
        let a = server.admit(TenantConfig::new("a", 24 * PAGE), pipeline("a")).unwrap();
        let loads = multi_tenant_streams(1, 1, 3_000, 8, 5);
        let mut lanes = server.lanes_for(streams_for(&[a], &loads)).unwrap();
        let mut ctx = Serving::new(&server, &lanes);
        let executor = server.worker_pool().clone();
        let lane = &mut lanes[0];
        let dp = server.data_plane().clone();
        fn in_tee<R>(f: impl FnOnce() -> R) -> R {
            let _secure = sbt_tz::WorldGuard::enter(sbt_tz::World::Secure);
            f()
        }
        let events: Vec<sbt_types::Event> =
            (0..23 * PAGE as u32 / 12).map(|i| sbt_types::Event::new(i, i, 0)).collect();
        let held =
            in_tee(|| dp.ingress(a, &sbt_types::Event::slice_to_bytes(&events), false, false, 0))
                .unwrap()
                .opaque;
        assert_eq!(dp.tenant_memory(a).unwrap().headroom_bytes(), PAGE);
        // Land the group in flight with the outcome the data plane gave it.
        let mut land = |lane: &mut Lane| {
            for _ in 0..4 {
                ctx.drr.begin_round(|_| true);
            }
            assert!(lane.offer(&mut ctx.drr, &executor).0);
            let group = lane.ingest.take().expect("a group is in flight");
            let outcome = group.handle.join().expect("no panic");
            lane.on_ingest(&mut ctx, group.batches, outcome.clone());
            (group.batches, outcome.map_err(|_| ()))
        };

        assert_eq!(land(lane), (1, Err(())), "no batch fits: a group of one, refused");
        assert!(lane.single_batches);
        assert_eq!(land(lane), (1, Err(())), "still short: one batch more");
        in_tee(|| dp.retire(a, held)).unwrap();
        assert_eq!(land(lane), (1, Ok(IngestStatus::Accepted)));
        assert_eq!(land(lane), (3, Ok(IngestStatus::Accepted)), "full groups again");
        assert!(lane.staged.is_empty() && lane.pending_wm.is_some());
        assert_eq!((lane.accepted_batches, lane.rejected_batches), (4, 2));
    }

    #[test]
    fn a_group_waits_for_credit_to_cover_all_of_it() {
        let server = StreamServer::new(ServerConfig::default().with_drr_quantum(1));
        let a = server.admit(TenantConfig::new("a", 32 << 20), pipeline("a")).unwrap();
        let loads = multi_tenant_streams(1, 1, 2_000, 8, 5);
        let mut lanes = server.lanes_for(streams_for(&[a], &loads)).unwrap();
        let mut ctx = Serving::new(&server, &lanes);
        let executor = server.worker_pool().clone();
        let lane = &mut lanes[0];
        // The group is filled, then held for credit.
        assert_eq!(lane.offer(&mut ctx.drr, &executor), (true, true));
        assert_eq!(lane.staged.len(), 4);
        let est = lane.engine.ingest_cost(&lane.staged);
        for _ in 1..est {
            ctx.drr.begin_round(|_| true);
        }
        assert_eq!(lane.offer(&mut ctx.drr, &executor), (false, true), "one unit short");
        ctx.drr.begin_round(|_| true);
        assert_eq!(lane.offer(&mut ctx.drr, &executor), (true, false));
        assert_eq!(settle_group(lane, &mut ctx, Ok(IngestStatus::Accepted)), 4);
    }

    #[test]
    fn drr_accounting_charges_and_penalizes() {
        let mut drr = DrrAccounting::new(&[1, 2], 100);
        assert!(!drr.can_dispatch(0, 50), "no credit before the first round");
        drr.begin_round(|_| true);
        assert_eq!(drr.deficit(0), 100);
        assert_eq!(drr.deficit(1), 200);
        assert!(drr.can_dispatch(0, 100));
        assert!(!drr.can_dispatch(0, 101));
        // Actual cost overran the estimate; the lane pays what it used.
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
