//! The multi-tenant stream server: admission, lifecycle and
//! shared-substrate ownership.
//!
//! Tenants are full lifecycle objects. Admission brings a tenant up with its
//! own derived key material and reserved quota; while admitted it can be
//! **rekeyed** (epoch bump, neighbours untouched) and its quota **resized**;
//! it leaves by **drain** (ingest stops, remaining windows run to the
//! watermark, then teardown) or **evict** (immediate teardown, unwinding the
//! scheduler lane mid-`serve`). Either departure frees every opaque
//! reference and uArray the tenant owned in one pass and returns its quota
//! reservation to [`StreamServer::unreserved_quota`], so a long-running edge
//! can admit, churn and re-admit tenants indefinitely.

use crate::recovery::CheckpointVault;
use crate::sched::DrrTelemetry;
use crate::tenant::{AdmissionError, LifecycleError, TenantConfig};
use parking_lot::{Mutex, MutexGuard};
use sbt_attest::{DepartureReason, LogSegment};
use sbt_crypto::TenantKeychain;
use sbt_dataplane::{DataPlane, DataPlaneConfig, DataPlaneError, RestoredTenant, SealedSnapshot};
use sbt_engine::{CycleCost, Engine, EngineConfig, EngineVariant, Executor, Pipeline};
use sbt_types::TenantId;
use sbt_tz::Platform;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Server-wide configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads shared by all tenants' control planes.
    pub cores: usize,
    /// Secure-memory carve-out of the shared platform, in bytes. The sum of
    /// admitted tenant quotas may not exceed it.
    pub secure_mem_bytes: u64,
    /// Maximum number of tenants the server admits.
    pub max_tenants: usize,
    /// Which engine variant the shared platform models (isolation costs,
    /// ingress path).
    pub variant: EngineVariant,
    /// Data-plane keys and audit settings (shared TEE instance).
    pub dataplane: DataPlaneConfig,
    /// Deficit round-robin quantum: estimated cycle-cost units credited per
    /// unit of scheduling weight each refill round (see
    /// [`crate::sched::DrrAccounting`]).
    pub drr_quantum: u64,
    /// The untrusted checkpoint vault to attach. `None` gives the server a
    /// fresh, empty vault; a recovering server is handed the crashed
    /// instance's vault here so its snapshots survive the "reboot".
    pub vault: Option<Arc<CheckpointVault>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cores: 4,
            secure_mem_bytes: 256 * 1024 * 1024,
            max_tenants: 64,
            variant: EngineVariant::Sbt,
            dataplane: DataPlaneConfig::default(),
            drr_quantum: 32 * 1024,
            vault: None,
        }
    }
}

impl ServerConfig {
    /// A server on an n-core HiKey-like platform.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores.max(1);
        self
    }

    /// Override the secure-memory carve-out.
    pub fn with_secure_mem(mut self, bytes: u64) -> Self {
        self.secure_mem_bytes = bytes;
        self
    }

    /// Override the tenant cap.
    pub fn with_max_tenants(mut self, n: usize) -> Self {
        self.max_tenants = n.max(1);
        self
    }

    /// Override the deficit round-robin quantum.
    pub fn with_drr_quantum(mut self, quantum: u64) -> Self {
        self.drr_quantum = quantum.max(1);
        self
    }

    /// Attach an existing checkpoint vault (untrusted storage that
    /// survived a previous server instance's crash).
    pub fn with_vault(mut self, vault: Arc<CheckpointVault>) -> Self {
        self.vault = Some(vault);
        self
    }
}

/// Where an admitted tenant is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TenantPhase {
    /// Serving normally.
    Active,
    /// Drain requested: no new ingest; remaining windows run to the
    /// watermark, then the tenant departs.
    Draining,
}

/// What a serve loop should do with a tenant's lane right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LanePhase {
    /// Keep serving.
    Active,
    /// Stop pulling offers; finish in-flight work, then depart the tenant.
    Draining,
    /// The tenant is gone (evicted or drained elsewhere): unwind the lane,
    /// discarding outcomes of in-flight work.
    Departed,
}

/// One admitted tenant.
pub(crate) struct TenantEntry {
    pub(crate) id: TenantId,
    pub(crate) config: TenantConfig,
    pub(crate) engine: Arc<Engine>,
    pub(crate) phase: TenantPhase,
}

/// The record of one tenant's departure: its final trail and what the
/// teardown recovered. Kept by the server so departed tenants' trails stay
/// verifiable (the cloud can fetch them after the fact).
#[derive(Debug, Clone)]
pub struct DepartureReport {
    /// The departed tenant.
    pub tenant: TenantId,
    /// Drained or evicted.
    pub reason: DepartureReason,
    /// The key epoch the tenant departed under (fixes the keychain the
    /// trail verifies with).
    pub final_epoch: u32,
    /// Audit segments not yet drained at departure, ending with the
    /// departure record.
    pub trail: Vec<LogSegment>,
    /// Secure-memory bytes the one-pass owner teardown freed.
    pub reclaimed_bytes: u64,
    /// Quota reservation returned to the admission pool.
    pub released_quota: u64,
    /// Opaque references revoked with the tenant's namespace.
    pub refs_revoked: usize,
}

/// The multi-tenant serving layer over one shared TEE.
pub struct StreamServer {
    config: ServerConfig,
    platform: Arc<Platform>,
    dp: Arc<DataPlane>,
    pool: Arc<Executor>,
    tenants: Mutex<Vec<TenantEntry>>,
    next_tenant: Mutex<u32>,
    reserved_quota: Mutex<u64>,
    /// Tenants whose lanes a `serve` loop currently owns (refcounted:
    /// concurrent serve calls may overlap on a tenant); `drain` hands the
    /// teardown to an owning loop instead of racing it.
    serving: Mutex<HashMap<TenantId, usize>>,
    /// Departure records of every tenant that ever left.
    departed: Mutex<HashMap<TenantId, DepartureReport>>,
    /// DRR's registry section, registered once: every serve adds to it.
    drr: Arc<DrrTelemetry>,
    /// Untrusted storage for sealed checkpoints; shared with (and outliving)
    /// crashed predecessors when recovery hands it over.
    vault: Arc<CheckpointVault>,
}

/// What one sealed-and-vaulted checkpoint amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReceipt {
    /// The checkpointed tenant.
    pub tenant: TenantId,
    /// Monotone per-tenant checkpoint sequence number.
    pub ckpt_seq: u64,
    /// The key epoch the snapshot sealed under.
    pub epoch: u32,
    /// Sealed snapshot size on the untrusted medium, in bytes.
    pub sealed_bytes: usize,
}

impl StreamServer {
    /// Bring up the shared substrate: one platform, one data plane loaded
    /// into its TEE, one worker pool. No tenants are admitted yet.
    pub fn new(config: ServerConfig) -> Arc<Self> {
        let platform_config = EngineConfig::for_variant(config.variant, config.cores)
            .with_secure_mem(config.secure_mem_bytes)
            .platform_config();
        let platform = Platform::new(platform_config);
        let dp = DataPlane::new(platform.clone(), config.dataplane.clone());
        let pool = Arc::new(Executor::new(config.cores));
        let drr = Arc::new(DrrTelemetry::default());
        dp.telemetry().register_source(&pool);
        dp.telemetry().register_source(&drr);
        // The shared pool also runs the encrypt lanes of every tenant's
        // egress and checkpoint seals, inside the seal's one crossing.
        dp.set_lane_pool(pool.clone());
        Arc::new(StreamServer {
            platform,
            dp,
            pool,
            tenants: Mutex::new(Vec::new()),
            // Tenant 0 is the data plane's built-in unconstrained default;
            // server tenants start at 1.
            next_tenant: Mutex::new(1),
            reserved_quota: Mutex::new(0),
            serving: Mutex::new(HashMap::new()),
            departed: Mutex::new(HashMap::new()),
            drr,
            vault: config.vault.clone().unwrap_or_default(),
            config,
        })
    }

    /// Estimated worst-case cycle demand of one tenant, in cost units per
    /// millisecond: its quota-bounded window working set must be processed
    /// within its declared output-delay target.
    fn demand_per_ms(quota_bytes: u64, target_delay_ms: u32) -> u64 {
        CycleCost::window_bound(quota_bytes) / u64::from(target_delay_ms.max(1))
    }

    /// The admission gate [`admit`](Self::admit) and
    /// [`restore_tenant_from_bytes`](Self::restore_tenant_from_bytes) share.
    /// In order: an empty quota, an invalid checkpoint policy, a full server,
    /// a taken name (or, on restore, a taken id), an unmeetable delay target
    /// and a quota overcommit each refuse the tenant. A tenant that passes
    /// has its quota reserved, and the caller gets the locked tenant list
    /// to add it to.
    fn admission_gate(
        &self,
        tenant_config: &TenantConfig,
        pipeline: &Pipeline,
        restoring: Option<TenantId>,
    ) -> Result<MutexGuard<'_, Vec<TenantEntry>>, AdmissionError> {
        if tenant_config.quota_bytes == 0 {
            return Err(AdmissionError::EmptyQuota);
        }
        if let Some(reason) = tenant_config.checkpoint_policy_error() {
            return Err(AdmissionError::InvalidCheckpointPolicy { reason });
        }
        let tenants = self.tenants.lock();
        if tenants.len() >= self.config.max_tenants {
            return Err(AdmissionError::ServerFull { max_tenants: self.config.max_tenants });
        }
        if tenants.iter().any(|t| t.config.name == tenant_config.name || Some(t.id) == restoring) {
            return Err(AdmissionError::DuplicateName(tenant_config.name.clone()));
        }
        // Pool-aware admission: sum every admitted tenant's estimated cycle
        // demand plus the candidate's; refuse if the worker pool cannot
        // sustain it (the candidate's delay target — or someone's — would
        // become unmeetable under load).
        let required = tenants
            .iter()
            .map(|t| Self::demand_per_ms(t.config.quota_bytes, t.engine.pipeline().target_delay()))
            .sum::<u64>()
            + Self::demand_per_ms(tenant_config.quota_bytes, pipeline.target_delay());
        let capacity = self.config.cores as u64 * CycleCost::CORE_CAPACITY_PER_MS;
        if required > capacity {
            return Err(AdmissionError::DelayUnmeetable { required, capacity });
        }
        let mut reserved = self.reserved_quota.lock();
        let available = self.config.secure_mem_bytes.saturating_sub(*reserved);
        if tenant_config.quota_bytes > available {
            return Err(AdmissionError::QuotaOvercommit {
                requested: tenant_config.quota_bytes,
                available,
            });
        }
        *reserved += tenant_config.quota_bytes;
        Ok(tenants)
    }

    /// A tenant's control-plane engine over the shared data plane and pool.
    fn tenant_engine(&self, id: TenantId, pipeline: Pipeline) -> Arc<Engine> {
        let engine_config = EngineConfig {
            dataplane: self.config.dataplane.clone(),
            ..EngineConfig::for_variant(self.config.variant, self.config.cores)
                .with_secure_mem(self.config.secure_mem_bytes)
        };
        Engine::for_tenant(engine_config, pipeline, self.dp.clone(), id, self.pool.clone())
    }

    /// Admit a tenant: check capacity, quota headroom and pool headroom
    /// (the delay target must be meetable at current load), register the
    /// tenant's namespace and quota inside the TEE, and build its
    /// control-plane engine over the shared data plane and executor.
    pub fn admit(
        &self,
        tenant_config: TenantConfig,
        pipeline: Pipeline,
    ) -> Result<TenantId, AdmissionError> {
        let mut tenants = self.admission_gate(&tenant_config, &pipeline, None)?;
        let id = {
            let mut next = self.next_tenant.lock();
            let id = TenantId(*next);
            *next += 1;
            id
        };
        if let Err(e) = self.dp.register_tenant(id, Some(tenant_config.quota_bytes)) {
            *self.reserved_quota.lock() -= tenant_config.quota_bytes;
            return Err(AdmissionError::Rejected(e));
        }
        let engine = self.tenant_engine(id, pipeline);
        tenants.push(TenantEntry { id, config: tenant_config, engine, phase: TenantPhase::Active });
        Ok(id)
    }

    // ----- tenant lifecycle ----------------------------------------------

    /// Remove a tenant and tear down everything it owns on the shared
    /// substrate: audit departure record, reference namespace, uArrays and
    /// pages, quota reservation.
    fn depart(
        &self,
        tenant: TenantId,
        reason: DepartureReason,
    ) -> Result<DepartureReport, LifecycleError> {
        let entry = {
            let mut tenants = self.tenants.lock();
            let pos =
                tenants.iter().position(|t| t.id == tenant).ok_or(LifecycleError::UnknownTenant)?;
            tenants.remove(pos)
        };
        let teardown =
            self.dp.deregister_tenant(tenant, reason).map_err(LifecycleError::Rejected)?;
        {
            let mut reserved = self.reserved_quota.lock();
            *reserved = reserved.saturating_sub(entry.config.quota_bytes);
        }
        let report = DepartureReport {
            tenant,
            reason,
            final_epoch: teardown.final_epoch,
            trail: teardown.segments,
            reclaimed_bytes: teardown.reclaimed_bytes,
            released_quota: entry.config.quota_bytes,
            refs_revoked: teardown.refs_revoked,
        };
        self.departed.lock().insert(tenant, report.clone());
        Ok(report)
    }

    /// Evict a tenant immediately. Its scheduler lane (if a `serve` is
    /// running) unwinds: in-flight work is discarded, no further offers are
    /// pulled. Every opaque reference and uArray the tenant owned is freed
    /// in one pass and its quota reservation returns to
    /// [`unreserved_quota`](StreamServer::unreserved_quota). The tenant's
    /// remaining audit segments — ending with an `Evicted` departure record
    /// — are in the returned report and stay fetchable via
    /// [`departure`](StreamServer::departure).
    pub fn evict(&self, tenant: TenantId) -> Result<DepartureReport, LifecycleError> {
        self.depart(tenant, DepartureReason::Evicted)
    }

    /// Drain a tenant: stop its ingest, let the windows its watermarks
    /// already completed run to the end, then tear it down like
    /// [`evict`](StreamServer::evict) (with a `Drained` departure record).
    /// If a `serve` loop currently owns the tenant's lane, the drain is
    /// handed to it and this call blocks until the lane has wound down.
    pub fn drain(&self, tenant: TenantId) -> Result<DepartureReport, LifecycleError> {
        {
            let mut tenants = self.tenants.lock();
            let entry =
                tenants.iter_mut().find(|t| t.id == tenant).ok_or(LifecycleError::UnknownTenant)?;
            entry.phase = TenantPhase::Draining;
        }
        loop {
            if self.is_departed(tenant) {
                return self.departure(tenant).ok_or(LifecycleError::UnknownTenant);
            }
            if !self.is_being_served(tenant) {
                // No serve loop owns the lane: finish the drain here. Any
                // windows still executing asynchronously get to complete
                // (and be audited) before the namespace disappears.
                if let Some(engine) = self.engine(tenant) {
                    engine.quiesce();
                }
                return match self.depart(tenant, DepartureReason::Drained) {
                    Ok(report) => Ok(report),
                    // Lost the race to a concurrent evict/serve teardown:
                    // the departure record is the outcome either way.
                    Err(LifecycleError::UnknownTenant) => {
                        self.departure(tenant).ok_or(LifecycleError::UnknownTenant)
                    }
                    Err(e) => Err(e),
                };
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Resize a tenant's TEE memory quota. Growing requires headroom in the
    /// secure carve-out against the other tenants' reservations; shrinking
    /// below current usage is allowed (further charges fail until usage
    /// drops).
    pub fn resize_quota(&self, tenant: TenantId, new_bytes: u64) -> Result<(), LifecycleError> {
        if new_bytes == 0 {
            return Err(LifecycleError::EmptyQuota);
        }
        let mut tenants = self.tenants.lock();
        let entry =
            tenants.iter_mut().find(|t| t.id == tenant).ok_or(LifecycleError::UnknownTenant)?;
        let mut reserved = self.reserved_quota.lock();
        let others = reserved.saturating_sub(entry.config.quota_bytes);
        let available = self.config.secure_mem_bytes.saturating_sub(others);
        if new_bytes > available {
            return Err(LifecycleError::QuotaOvercommit { requested: new_bytes, available });
        }
        self.dp.set_tenant_quota(tenant, Some(new_bytes)).map_err(LifecycleError::Rejected)?;
        *reserved = others + new_bytes;
        entry.config.quota_bytes = new_bytes;
        Ok(())
    }

    /// Rotate a tenant's key material to the next epoch. Ingest encrypted
    /// under the old epoch's source key stops decrypting; audit segments
    /// from here on sign under the new epoch's key; other tenants are
    /// untouched. Returns the new epoch.
    pub fn rekey(&self, tenant: TenantId) -> Result<u32, LifecycleError> {
        if !self.tenants.lock().iter().any(|t| t.id == tenant) {
            return Err(LifecycleError::UnknownTenant);
        }
        self.dp.rekey_tenant(tenant).map_err(LifecycleError::Rejected)
    }

    // ----- crash recovery -------------------------------------------------

    /// Seal a checkpoint of a tenant's windowed state, watermarks and audit
    /// cursor inside the TEE and park the ciphertext in the untrusted
    /// vault. Quiesces the tenant's engine first, so the snapshot is a
    /// consistent cut; the sealed hash is chained into the tenant's signed
    /// trail, which is what lets the cloud detect a later rollback.
    pub fn checkpoint(&self, tenant: TenantId) -> Result<CheckpointReceipt, LifecycleError> {
        let engine = self.engine(tenant).ok_or(LifecycleError::UnknownTenant)?;
        let sealed = engine.checkpoint().map_err(LifecycleError::Rejected)?;
        self.vault_store(tenant, &sealed)
    }

    /// Park an already-sealed snapshot in the vault (the serve loop's
    /// amortized checkpoints land here too).
    pub(crate) fn vault_store(
        &self,
        tenant: TenantId,
        sealed: &SealedSnapshot,
    ) -> Result<CheckpointReceipt, LifecycleError> {
        let bytes = sealed.to_bytes();
        let receipt = CheckpointReceipt {
            tenant,
            ckpt_seq: sealed.ckpt_seq,
            epoch: sealed.epoch,
            sealed_bytes: bytes.len(),
        };
        self.vault.store(tenant, bytes).map_err(|_| {
            LifecycleError::Rejected(DataPlaneError::SnapshotRejected(
                "untrusted vault refused the store",
            ))
        })?;
        Ok(receipt)
    }

    /// Re-admit a crashed tenant from the latest snapshot in the vault.
    ///
    /// The tenant keeps its original id (the snapshot names it and the MAC
    /// binds it); admission-style capacity, name, quota and checkpoint
    /// policy checks all still apply. On success the tenant's engine holds
    /// the checkpointed windows and watermarks, its audit log has resumed
    /// at the checkpoint cursor with a `resumed` record chaining the
    /// snapshot hash, and serving can continue mid-stream.
    pub fn restore_tenant(
        &self,
        tenant: TenantId,
        tenant_config: TenantConfig,
        pipeline: Pipeline,
        min_epoch: u32,
    ) -> Result<RestoredTenant, AdmissionError> {
        let bytes = self.vault.fetch(tenant).ok_or(AdmissionError::NoCheckpoint)?;
        self.restore_tenant_from_bytes(&bytes, tenant_config, pipeline, min_epoch)
    }

    /// [`restore_tenant`](StreamServer::restore_tenant) from explicit
    /// snapshot bytes — the path recovery takes when the vault's current
    /// slot fails closed (torn or corrupted) and the fallback slot is
    /// tried instead. The tenant id comes from the snapshot header and is
    /// authenticated when the enclave verifies the MAC; a truncated,
    /// bit-flipped or stale snapshot is refused inside the TEE and the
    /// server admits nothing.
    pub fn restore_tenant_from_bytes(
        &self,
        bytes: &[u8],
        tenant_config: TenantConfig,
        pipeline: Pipeline,
        min_epoch: u32,
    ) -> Result<RestoredTenant, AdmissionError> {
        let sealed = SealedSnapshot::from_bytes(bytes).map_err(AdmissionError::Rejected)?;
        let tenant = TenantId(sealed.tenant);
        let mut tenants = self.admission_gate(&tenant_config, &pipeline, Some(tenant))?;
        let engine = self.tenant_engine(tenant, pipeline);
        let restored =
            match engine.restore_from(Some(tenant_config.quota_bytes), &sealed, min_epoch) {
                Ok(restored) => restored,
                Err(e) => {
                    *self.reserved_quota.lock() -= tenant_config.quota_bytes;
                    return Err(AdmissionError::Rejected(e));
                }
            };
        tenants.push(TenantEntry {
            id: tenant,
            config: tenant_config,
            engine,
            phase: TenantPhase::Active,
        });
        // Restored ids must stay out of the mint: a fresh admission after
        // recovery may never collide with a recovered tenant.
        let mut next = self.next_tenant.lock();
        *next = (*next).max(tenant.0 + 1);
        Ok(restored)
    }

    /// Retire a tenant's key epochs older than `horizon`: they vanish from
    /// [`verifier_keys`](StreamServer::verifier_keys) and snapshots sealed
    /// under them are refused at restore (forward secrecy across crashes).
    /// The horizon may not pass the tenant's newest checkpoint epoch —
    /// retiring the only restorable snapshot would make the next crash
    /// unrecoverable. Returns how many epochs this call newly retired.
    pub fn retire_epochs(&self, tenant: TenantId, horizon: u32) -> Result<usize, LifecycleError> {
        if !self.tenants.lock().iter().any(|t| t.id == tenant) {
            return Err(LifecycleError::UnknownTenant);
        }
        self.dp.retire_epochs_before(tenant, horizon).map_err(LifecycleError::Rejected)
    }

    /// The untrusted checkpoint vault (hand it to a replacement server via
    /// [`ServerConfig::with_vault`] to recover after a crash).
    pub fn vault(&self) -> &Arc<CheckpointVault> {
        &self.vault
    }

    /// The departure record of a tenant that left, if it ever did. The
    /// record (trail included) is retained until the cloud drains it with
    /// [`take_departed_trail`](StreamServer::take_departed_trail).
    pub fn departure(&self, tenant: TenantId) -> Option<DepartureReport> {
        self.departed.lock().get(&tenant).cloned()
    }

    /// Drain a departed tenant's retained trail segments (the cloud fetches
    /// them once, then they are dropped). The compact departure record —
    /// reason, final epoch, reclaimed bytes — stays, so
    /// [`verifier_keys`](StreamServer::verifier_keys) keeps working and an
    /// indefinitely churning edge retains only O(bytes) per departed tenant
    /// rather than its whole trail.
    pub fn take_departed_trail(&self, tenant: TenantId) -> Option<Vec<LogSegment>> {
        let mut departed = self.departed.lock();
        departed.get_mut(&tenant).map(|report| std::mem::take(&mut report.trail))
    }

    /// Ids of every tenant that has departed, in no particular order.
    pub fn departed_tenants(&self) -> Vec<TenantId> {
        self.departed.lock().keys().copied().collect()
    }

    /// What the serve loop should do with a tenant's lane right now.
    pub(crate) fn lane_phase(&self, tenant: TenantId) -> LanePhase {
        self.lane_phases(&[tenant])[0]
    }

    /// Batched [`lane_phase`](StreamServer::lane_phase) for a whole lane
    /// set under one lock (the DRR loop polls this once per iteration).
    pub(crate) fn lane_phases(&self, ids: &[TenantId]) -> Vec<LanePhase> {
        let tenants = self.tenants.lock();
        ids.iter()
            .map(|id| match tenants.iter().find(|t| t.id == *id) {
                Some(entry) => match entry.phase {
                    TenantPhase::Active => LanePhase::Active,
                    TenantPhase::Draining => LanePhase::Draining,
                },
                None => LanePhase::Departed,
            })
            .collect()
    }

    /// Called by a serve loop when a draining lane has wound down.
    pub(crate) fn finish_drain(&self, tenant: TenantId) {
        let _ = self.depart(tenant, DepartureReason::Drained);
    }

    pub(crate) fn mark_serving(&self, ids: &[TenantId]) {
        let mut serving = self.serving.lock();
        for id in ids {
            *serving.entry(*id).or_insert(0) += 1;
        }
    }

    pub(crate) fn unmark_serving(&self, ids: &[TenantId]) {
        let mut serving = self.serving.lock();
        for id in ids {
            if let Some(count) = serving.get_mut(id) {
                *count -= 1;
                if *count == 0 {
                    serving.remove(id);
                }
            }
        }
    }

    /// Whether any serve loop currently owns a lane for the tenant.
    fn is_being_served(&self, tenant: TenantId) -> bool {
        self.serving.lock().contains_key(&tenant)
    }

    /// Whether the tenant has departed, without cloning its report (the
    /// serve loop and `drain`'s wait loop poll this).
    pub(crate) fn is_departed(&self, tenant: TenantId) -> bool {
        self.departed.lock().contains_key(&tenant)
    }

    /// Ids of the admitted tenants, in admission order.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.tenants.lock().iter().map(|t| t.id).collect()
    }

    /// The engine serving one tenant.
    pub fn engine(&self, tenant: TenantId) -> Option<Arc<Engine>> {
        self.tenants.lock().iter().find(|t| t.id == tenant).map(|t| t.engine.clone())
    }

    /// The admitted configuration of one tenant.
    pub fn tenant_config(&self, tenant: TenantId) -> Option<TenantConfig> {
        self.tenants.lock().iter().find(|t| t.id == tenant).map(|t| t.config.clone())
    }

    /// Secure-memory bytes not yet reserved by tenant quotas.
    pub fn unreserved_quota(&self) -> u64 {
        self.config.secure_mem_bytes.saturating_sub(*self.reserved_quota.lock())
    }

    /// The shared data plane (introspection, per-tenant audit drains).
    pub fn data_plane(&self) -> &Arc<DataPlane> {
        &self.dp
    }

    /// The shared platform.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    /// The unified telemetry registry of the shared substrate: span tracer,
    /// per-tenant latency histograms, counter snapshot and flight recorder.
    pub fn telemetry(&self) -> &Arc<sbt_telemetry::MetricsRegistry> {
        self.dp.telemetry()
    }

    /// The shared work-stealing executor (historically "the worker pool").
    pub fn worker_pool(&self) -> &Arc<Executor> {
        &self.pool
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The cloud-side keychain of one tenant: per-epoch verifier keys (trail
    /// signing + result decryption), which is all trail verification needs.
    /// Works for departed tenants too — their trails stay verifiable under
    /// the keychain of their final epoch. Raw platform-wide keys are never
    /// handed out; there is no platform-wide key to hand out.
    pub fn verifier_keys(&self, tenant: TenantId) -> Option<TenantKeychain> {
        if let Ok(chain) = self.dp.verifier_keys(tenant) {
            return Some(chain);
        }
        let final_epoch = self.departed.lock().get(&tenant)?.final_epoch;
        Some(self.config.dataplane.master.keychain(tenant.0, final_epoch))
    }

    pub(crate) fn drr_telemetry(&self) -> &DrrTelemetry {
        &self.drr
    }

    pub(crate) fn entries_snapshot(&self) -> Vec<(TenantId, TenantConfig, Arc<Engine>)> {
        self.tenants.lock().iter().map(|t| (t.id, t.config.clone(), t.engine.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbt_engine::Operator;

    fn pipeline() -> Pipeline {
        Pipeline::new("t").then(Operator::WindowSum).target_delay_ms(60_000).batch_events(1_000)
    }

    #[test]
    fn admits_tenants_and_tracks_quota_headroom() {
        let server = StreamServer::new(ServerConfig::default().with_secure_mem(64 * 1024 * 1024));
        let a = server.admit(TenantConfig::new("a", 16 * 1024 * 1024), pipeline()).unwrap();
        let b = server.admit(TenantConfig::new("b", 16 * 1024 * 1024), pipeline()).unwrap();
        assert_ne!(a, b);
        assert_eq!(server.tenants(), vec![a, b]);
        assert_eq!(server.unreserved_quota(), 32 * 1024 * 1024);
        // The engines share one platform, data plane and pool.
        let ea = server.engine(a).unwrap();
        let eb = server.engine(b).unwrap();
        assert!(Arc::ptr_eq(ea.data_plane(), eb.data_plane()));
        assert!(Arc::ptr_eq(ea.worker_pool(), eb.worker_pool()));
        assert_eq!(ea.tenant(), a);
        assert_eq!(server.tenant_config(a).unwrap().name, "a");
    }

    #[test]
    fn admission_rejects_overcommit_full_and_duplicates() {
        let server = StreamServer::new(
            ServerConfig::default().with_secure_mem(8 * 1024 * 1024).with_max_tenants(2),
        );
        server.admit(TenantConfig::new("a", 6 * 1024 * 1024), pipeline()).unwrap();
        // Overcommit.
        let err = server.admit(TenantConfig::new("b", 4 * 1024 * 1024), pipeline()).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::QuotaOvercommit {
                requested: 4 * 1024 * 1024,
                available: 2 * 1024 * 1024
            }
        );
        // Duplicate name.
        assert!(matches!(
            server.admit(TenantConfig::new("a", 1024), pipeline()),
            Err(AdmissionError::DuplicateName(_))
        ));
        // Zero quota.
        assert!(matches!(
            server.admit(TenantConfig::new("z", 0), pipeline()),
            Err(AdmissionError::EmptyQuota)
        ));
        // Fill the server, then hit the cap.
        server.admit(TenantConfig::new("c", 1024 * 1024), pipeline()).unwrap();
        assert!(matches!(
            server.admit(TenantConfig::new("d", 1024), pipeline()),
            Err(AdmissionError::ServerFull { max_tenants: 2 })
        ));
    }

    #[test]
    fn evict_recovers_quota_for_new_admissions() {
        let server = StreamServer::new(ServerConfig::default().with_secure_mem(32 * 1024 * 1024));
        let a = server.admit(TenantConfig::new("a", 24 * 1024 * 1024), pipeline()).unwrap();
        // No headroom for b...
        assert!(matches!(
            server.admit(TenantConfig::new("b", 16 * 1024 * 1024), pipeline()),
            Err(AdmissionError::QuotaOvercommit { .. })
        ));
        let report = server.evict(a).unwrap();
        assert_eq!(report.reason, DepartureReason::Evicted);
        assert_eq!(report.released_quota, 24 * 1024 * 1024);
        assert_eq!(server.unreserved_quota(), 32 * 1024 * 1024);
        assert!(server.tenants().is_empty());
        assert_eq!(server.departed_tenants(), vec![a]);
        assert!(server.departure(a).is_some());
        // ...until the eviction frees it; the name is reusable, the id is not.
        let b = server.admit(TenantConfig::new("a", 16 * 1024 * 1024), pipeline()).unwrap();
        assert_ne!(a, b);
        // Departed tenants reject all lifecycle operations.
        assert!(matches!(server.evict(a), Err(LifecycleError::UnknownTenant)));
        assert_eq!(server.rekey(a), Err(LifecycleError::UnknownTenant));
        assert_eq!(server.resize_quota(a, 1024), Err(LifecycleError::UnknownTenant));
        // But their keychains stay derivable for late trail verification.
        assert!(server.verifier_keys(a).is_some());
    }

    #[test]
    fn departed_trails_drain_once_and_keychains_survive() {
        let server = StreamServer::new(ServerConfig::default());
        let a = server.admit(TenantConfig::new("a", 1024 * 1024), pipeline()).unwrap();
        let report = server.evict(a).unwrap();
        assert!(!report.trail.is_empty(), "departure record flushes a segment");
        // The retained copy drains exactly once; the compact record stays.
        let drained = server.take_departed_trail(a).unwrap();
        assert_eq!(drained.len(), report.trail.len());
        assert_eq!(server.take_departed_trail(a).unwrap().len(), 0);
        assert!(server.departure(a).is_some());
        assert!(server.verifier_keys(a).is_some());
        assert!(server.take_departed_trail(TenantId(99)).is_none());
    }

    #[test]
    fn resize_quota_respects_carveout_headroom() {
        let server = StreamServer::new(ServerConfig::default().with_secure_mem(32 * 1024 * 1024));
        let a = server.admit(TenantConfig::new("a", 8 * 1024 * 1024), pipeline()).unwrap();
        let _b = server.admit(TenantConfig::new("b", 8 * 1024 * 1024), pipeline()).unwrap();
        // Growing within headroom succeeds and moves the reservation.
        server.resize_quota(a, 20 * 1024 * 1024).unwrap();
        assert_eq!(server.unreserved_quota(), 4 * 1024 * 1024);
        assert_eq!(server.tenant_config(a).unwrap().quota_bytes, 20 * 1024 * 1024);
        assert_eq!(
            server.data_plane().tenant_memory(a).unwrap().quota_bytes,
            Some(20 * 1024 * 1024)
        );
        // Growing past the carve-out fails; shrinking always succeeds.
        assert_eq!(
            server.resize_quota(a, 30 * 1024 * 1024),
            Err(LifecycleError::QuotaOvercommit {
                requested: 30 * 1024 * 1024,
                available: 24 * 1024 * 1024
            })
        );
        server.resize_quota(a, 1024 * 1024).unwrap();
        assert_eq!(server.unreserved_quota(), 23 * 1024 * 1024);
        assert_eq!(server.resize_quota(a, 0), Err(LifecycleError::EmptyQuota));
    }

    #[test]
    fn rekey_bumps_the_tenants_epoch_only() {
        let server = StreamServer::new(ServerConfig::default());
        let a = server.admit(TenantConfig::new("a", 1024 * 1024), pipeline()).unwrap();
        let b = server.admit(TenantConfig::new("b", 1024 * 1024), pipeline()).unwrap();
        assert_eq!(server.rekey(a).unwrap(), 1);
        assert_eq!(server.rekey(a).unwrap(), 2);
        assert_eq!(server.verifier_keys(a).unwrap().epoch_count(), 3);
        assert_eq!(server.verifier_keys(b).unwrap().epoch_count(), 1);
    }

    #[test]
    fn drain_without_a_serve_loop_departs_immediately() {
        let server = StreamServer::new(ServerConfig::default());
        let a = server.admit(TenantConfig::new("a", 1024 * 1024), pipeline()).unwrap();
        let report = server.drain(a).unwrap();
        assert_eq!(report.reason, DepartureReason::Drained);
        assert!(server.tenants().is_empty());
        assert_eq!(server.unreserved_quota(), server.config().secure_mem_bytes);
    }

    #[test]
    fn admission_rejects_malformed_checkpoint_policies() {
        let server = StreamServer::new(ServerConfig::default());
        let err = server
            .admit(TenantConfig::new("z", 1024).with_checkpoint_every_records(0), pipeline())
            .unwrap_err();
        assert!(matches!(err, AdmissionError::InvalidCheckpointPolicy { .. }));
        // A well-formed policy admits; no tenant slot was leaked by the
        // rejections.
        server
            .admit(
                TenantConfig::new("z", 1024 * 1024).with_checkpoint_every_records(1_000),
                pipeline(),
            )
            .unwrap();
        assert_eq!(server.tenants().len(), 1);
    }

    #[test]
    fn checkpoint_vaults_and_restore_revives_the_tenant_on_a_new_server() {
        let server = StreamServer::new(ServerConfig::default());
        let a = server.admit(TenantConfig::new("a", 4 * 1024 * 1024), pipeline()).unwrap();
        let receipt = server.checkpoint(a).unwrap();
        assert_eq!(receipt.tenant, a);
        assert_eq!(receipt.ckpt_seq, 0);
        assert!(receipt.sealed_bytes > 0);
        assert_eq!(server.vault().tenants(), vec![a]);
        // Unknown tenants cannot checkpoint.
        assert!(matches!(server.checkpoint(TenantId(99)), Err(LifecycleError::UnknownTenant)));

        // "Crash": the vault survives, the server does not.
        let vault = server.vault().clone();
        drop(server);
        let server2 = StreamServer::new(ServerConfig::default().with_vault(vault));
        let restored = server2
            .restore_tenant(a, TenantConfig::new("a", 4 * 1024 * 1024), pipeline(), 0)
            .unwrap();
        assert_eq!(restored.tenant, a);
        assert_eq!(restored.ckpt_seq, 0);
        assert_eq!(server2.tenants(), vec![a]);
        // The restored id is fenced out of the mint.
        let b = server2.admit(TenantConfig::new("b", 1024 * 1024), pipeline()).unwrap();
        assert!(b.0 > a.0);
        // Restoring again collides with the live tenant.
        assert!(matches!(
            server2.restore_tenant(a, TenantConfig::new("a2", 1024), pipeline(), 0),
            Err(AdmissionError::DuplicateName(_))
        ));
        // A tenant with no snapshot has nothing to restore from.
        assert_eq!(
            server2
                .restore_tenant(TenantId(77), TenantConfig::new("c", 1024), pipeline(), 0)
                .unwrap_err(),
            AdmissionError::NoCheckpoint
        );
    }

    #[test]
    fn a_failed_restore_leaves_no_tenant_behind_and_a_retry_succeeds() {
        use sbt_engine::StreamSide;
        use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
        use sbt_workloads::transport::Channel;

        const QUOTA: u64 = 8 * 1024 * 1024;
        let server = StreamServer::new(ServerConfig::default());
        let t = server.admit(TenantConfig::new("t", QUOTA), pipeline()).unwrap();
        let engine = server.engine(t).unwrap();
        // 4 000 windowed events, their watermark withheld: the checkpoint
        // holds them all.
        let mut generator = Generator::new(
            GeneratorConfig { batch_events: 1_000 },
            Channel::for_tenant(&sbt_crypto::MasterSecret::demo(), t, 0),
            sbt_workloads::datasets::synthetic_stream(1, 4_000, 16, 1),
        );
        while let Some(Offer::Batch(delivery)) = generator.next_offer() {
            engine.ingest_group(&[delivery], StreamSide::Left).unwrap();
        }
        server.checkpoint(t).unwrap();
        let vault = server.vault().clone();
        drop((engine, server));

        let server = StreamServer::new(ServerConfig::default().with_vault(vault));
        let dp = server.data_plane().clone();
        let committed = dp.memory_report().committed_bytes;
        // One page of quota cannot hold the re-committed windows.
        assert_eq!(
            server.restore_tenant(t, TenantConfig::new("t", 4096), pipeline(), 0).unwrap_err(),
            AdmissionError::Rejected(DataPlaneError::QuotaExceeded)
        );
        assert!(server.tenants().is_empty());
        assert!(!dp.tenants().contains(&t), "the failed restore left the tenant registered");
        assert_eq!(dp.memory_report().committed_bytes, committed);
        assert_eq!(server.unreserved_quota(), server.config().secure_mem_bytes);

        let restored = server.restore_tenant(t, TenantConfig::new("t", QUOTA), pipeline(), 0);
        assert_eq!(restored.unwrap().events_restored, 4_000);
        assert_eq!(server.tenants(), vec![t]);
    }

    #[test]
    fn torn_vault_snapshot_fails_closed_and_fallback_slot_recovers() {
        let server = StreamServer::new(ServerConfig::default());
        let a = server.admit(TenantConfig::new("a", 4 * 1024 * 1024), pipeline()).unwrap();
        server.checkpoint(a).unwrap();
        // The second store tears mid-write; the first snapshot is demoted
        // to the fallback slot intact.
        server.vault().inject(crate::recovery::VaultFault::TearStore { nth: 2, keep: 24 });
        server.checkpoint(a).unwrap();

        let vault = server.vault().clone();
        drop(server);
        let server2 = StreamServer::new(ServerConfig::default().with_vault(vault.clone()));
        // The torn current snapshot is refused inside the TEE; nothing is
        // admitted.
        let err = server2
            .restore_tenant(a, TenantConfig::new("a", 4 * 1024 * 1024), pipeline(), 0)
            .unwrap_err();
        assert!(matches!(err, AdmissionError::Rejected(_)), "torn snapshot must fail closed");
        assert!(server2.tenants().is_empty());
        // The fallback slot still restores.
        let previous = vault.fetch_previous(a).unwrap();
        let restored = server2
            .restore_tenant_from_bytes(
                &previous,
                TenantConfig::new("a", 4 * 1024 * 1024),
                pipeline(),
                0,
            )
            .unwrap();
        assert_eq!(restored.tenant, a);
        assert_eq!(restored.ckpt_seq, 0, "fallback is the older checkpoint");
    }

    #[test]
    fn retire_epochs_trims_verifier_keys_and_gates_on_checkpoints() {
        let server = StreamServer::new(ServerConfig::default());
        let a = server.admit(TenantConfig::new("a", 1024 * 1024), pipeline()).unwrap();
        // No checkpoint yet: retirement is refused (it would orphan
        // recovery).
        assert!(matches!(server.retire_epochs(a, 1), Err(LifecycleError::Rejected(_))));
        assert_eq!(server.rekey(a).unwrap(), 1);
        server.checkpoint(a).unwrap();
        assert_eq!(server.retire_epochs(a, 1).unwrap(), 1);
        let chain = server.verifier_keys(a).unwrap();
        assert_eq!(chain.oldest_epoch(), 1, "epoch 0 left the keychain");
        assert!(matches!(
            server.retire_epochs(TenantId(99), 1),
            Err(LifecycleError::UnknownTenant)
        ));
    }

    #[test]
    fn admission_is_pool_aware_about_delay_targets() {
        // A 1 ms output-delay target over a 64 MB working set cannot be met
        // by a 2-core pool: admission refuses up front rather than letting
        // `serve` miss the target for everyone.
        let server = StreamServer::new(ServerConfig::default().with_cores(2));
        let greedy =
            Pipeline::new("rt").then(Operator::WindowSum).target_delay_ms(1).batch_events(1_000);
        let err = server.admit(TenantConfig::new("rt", 64 * 1024 * 1024), greedy).unwrap_err();
        let AdmissionError::DelayUnmeetable { required, capacity } = err else {
            panic!("expected DelayUnmeetable, got {err:?}");
        };
        assert!(required > capacity);
        // The same quota under a relaxed target fits comfortably.
        let relaxed = Pipeline::new("relaxed")
            .then(Operator::WindowSum)
            .target_delay_ms(60_000)
            .batch_events(1_000);
        server.admit(TenantConfig::new("relaxed", 64 * 1024 * 1024), relaxed).unwrap();
    }
}
