//! The data plane proper: ingress, primitive dispatch, egress, memory
//! management and audit-record generation.
//!
//! One [`DataPlane`] instance corresponds to the StreamBox-TZ trusted
//! application loaded into the secure world of one platform. It is `Sync`:
//! many control-plane worker threads invoke primitives concurrently (each
//! through its own SMC session), sharing one cache-coherent TEE address
//! space exactly as in the paper. Internally, the record store is read-mostly
//! (`RwLock` around `Arc`-shared arrays: lookups clone the `Arc`, drop the
//! lock and compute without holding it), while the allocator, reference
//! tables and audit logs take short critical sections.
//!
//! # Multi-tenancy
//!
//! The data plane serves many independent pipelines (**tenants**) over the
//! one TEE. Each tenant owns a private namespace inside the enclave:
//!
//! * a per-tenant **opaque-reference table** — a reference minted for one
//!   tenant's control plane does not resolve under any other tenant, so a
//!   compromised control plane cannot invoke primitives on another tenant's
//!   state even if it learns the raw reference value;
//! * a per-tenant **audit log** whose segments are tagged with (and signed
//!   under) the tenant id, so the cloud verifies each trail independently;
//! * a per-tenant **memory quota** enforced through the uArray allocator's
//!   owner accounting — a tenant that fills its quota is rejected without
//!   disturbing the others' committed memory.
//!
//! Single-pipeline deployments (the paper's setting) run everything under
//! [`TenantId::DEFAULT`], which is registered unconstrained at load time;
//! the original single-tenant entry points delegate to it.

use crate::egress::{EgressMessage, Sealer};
use crate::error::DataPlaneError;
use crate::opaque::{OpaqueRef, RefTable};
use crate::parallel::{lane_plan, min_lane_chunks, WIRE_CHUNK};
use crate::params::{InvokeOutput, PrimitiveParams};
use crate::produce::Output;
use crate::snapshot::{
    seal_snapshot, unseal_snapshot, CheckpointManifest, RestoredTenant, RestoredWindow,
    SealedSnapshot, SnapshotPlaintext, SnapshotWindow,
};
use crate::stats::{DataPlaneStats, InvocationBreakdown};
use crate::store::StoredData;
use parking_lot::{Mutex, RwLock};
use sbt_attest::{AuditLog, AuditRecord, DataRef, DepartureReason, LogSegment, UArrayRef};
use sbt_crypto::{AesCtr, Key128, KeySet, MasterSecret, Nonce, SigningKey, TenantKeychain};
use sbt_primitives as prim;
use sbt_telemetry::{decrypt_span_payload, LatencyKind, MetricsRegistry, SpanKind};
use sbt_types::{
    infallible, Event, LanePool, LaneTask, PowerEvent, PrimitiveKind, RecordCount, RecordSink,
    TenantId, Watermark, WindowId,
};
use sbt_tz::{Platform, WorldTracker};
use sbt_uarray::{
    Allocator, AllocatorConfig, CommitBudget, ConsumptionHint, DisjointWriter, HintSet,
    MemoryReport, TeePager, UArray, UArrayError, UArrayId, UArrayState, UArrayWriter, PAGE_SIZE,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a data plane instance.
///
/// No raw key material appears here: every tenant's source, cloud and
/// signing keys are derived on demand from the platform's [`MasterSecret`]
/// per `(tenant, epoch)`, so a leaked configuration exposes only what the
/// master secret protects, and per-tenant keys never need to be plumbed.
#[derive(Clone)]
pub struct DataPlaneConfig {
    /// The platform master secret every per-tenant key set is derived from.
    pub master: MasterSecret,
    /// Allocator configuration (placement policy, reservation size).
    pub allocator: AllocatorConfig,
    /// Flush the audit log every this many records (in addition to flushes
    /// at egress).
    pub audit_flush_threshold: usize,
    /// Seed for the opaque-reference RNG (tests pass a fixed value).
    pub ref_seed: u64,
}

impl Default for DataPlaneConfig {
    fn default() -> Self {
        DataPlaneConfig {
            master: MasterSecret::demo(),
            allocator: AllocatorConfig::default(),
            audit_flush_threshold: 256,
            ref_seed: 0x5b7_57a7e,
        }
    }
}

/// Mutable bookkeeping guarded by one mutex (allocator + id minting +
/// committed-size map). These are all short, metadata-only operations.
struct AllocState {
    allocator: Allocator,
    next_id: UArrayId,
    /// committed bytes per live uArray (needed to release pages on reclaim,
    /// since the record storage itself is dropped via `Arc`).
    committed: HashMap<UArrayId, u64>,
}

/// The per-tenant namespace inside the TEE.
struct TenantState {
    /// The tenant's private opaque-reference table.
    refs: RefTable,
    /// The tenant's current-epoch key set (source decrypt, cloud encrypt,
    /// trail signing). Replaced wholesale on rekey.
    keys: KeySet,
    /// The tenant's audit log (segments tagged with the tenant and epoch,
    /// signed under the epoch's derived key).
    audit: AuditLog,
    /// Flushed-but-undrained segments.
    segments: Vec<LogSegment>,
    /// Egress sequence counter of the tenant's result stream.
    egress_seq: u64,
    /// Events the tenant has ingested.
    events_ingested: u64,
    /// Plaintext bytes the tenant has ingested.
    bytes_ingested: u64,
    /// Monotone checkpoint counter (the next snapshot's `ckpt_seq`).
    next_ckpt_seq: u64,
    /// Key epoch of the tenant's most recent sealed checkpoint.
    last_ckpt_epoch: Option<u32>,
    /// Epoch-retirement horizon: epochs below this are retired — excluded
    /// from the tenant's verifier keychain and refused at restore.
    retired_before: u32,
}

/// What [`DataPlane::deregister_tenant`] hands back: the tenant's final
/// trail and an accounting of everything the teardown reclaimed.
pub struct TenantTeardown {
    /// The departed tenant.
    pub tenant: TenantId,
    /// Why it left (also recorded in the trail's final record).
    pub reason: DepartureReason,
    /// The key epoch the tenant departed under.
    pub final_epoch: u32,
    /// The remaining audit segments, ending with the departure record. The
    /// cloud appends these to whatever it already drained and verifies the
    /// whole trail under the tenant's keychain.
    pub segments: Vec<LogSegment>,
    /// Secure-memory bytes freed by the one-pass owner teardown.
    pub reclaimed_bytes: u64,
    /// Opaque references revoked with the tenant's namespace.
    pub refs_revoked: usize,
}

/// Point-in-time memory accounting of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantMemory {
    /// Bytes currently charged to the tenant.
    pub used_bytes: u64,
    /// The tenant's quota, or `None` when unconstrained.
    pub quota_bytes: Option<u64>,
}

impl TenantMemory {
    /// Whether the tenant is near its quota (≥ 80 %, mirroring the global
    /// backpressure threshold): its sources should slow down.
    pub fn under_pressure(&self) -> bool {
        match self.quota_bytes {
            Some(quota) => self.used_bytes >= quota - quota / 5,
            None => false,
        }
    }
}

/// The StreamBox-TZ trusted data plane.
pub struct DataPlane {
    platform: Arc<Platform>,
    config: DataPlaneConfig,
    pager: TeePager,
    store: RwLock<HashMap<UArrayId, Arc<StoredData>>>,
    tenants: RwLock<HashMap<TenantId, Arc<Mutex<TenantState>>>>,
    alloc: Mutex<AllocState>,
    stats: Arc<DataPlaneStats>,
    /// Unified observability: span tracer, per-tenant latency histograms,
    /// counter registry, flight recorder. Disabled by default (hot paths
    /// pay one relaxed atomic load).
    telemetry: Arc<MetricsRegistry>,
    /// Worker pool lent by the control plane for in-enclave lanes (ingest
    /// decrypt/parse, egress and checkpoint encrypt). `None` keeps all of
    /// them serial.
    ingest_pool: RwLock<Option<Arc<dyn LanePool>>>,
    /// The streaming encrypt-then-MAC pipeline egress and checkpoints seal
    /// through (owns the recycled staging buffers).
    sealer: Sealer,
    /// Recycled lane buffers for [`DisjointWriter`]: each grows once to its
    /// high-water capacity, so steady-state parallel ingest allocates
    /// nothing beyond the destination extent.
    lane_buffers: Mutex<Vec<Vec<Event>>>,
    start: Instant,
}

impl DataPlane {
    /// Load the data plane onto a platform (the `Initialize` entry function).
    /// The default tenant is registered unconstrained, so single-pipeline
    /// deployments work without any tenant management.
    pub fn new(platform: Arc<Platform>, config: DataPlaneConfig) -> Arc<Self> {
        let pager = TeePager::new(
            platform.secure_mem().clone(),
            platform.stats().clone(),
            *platform.cost(),
        );
        let stats = Arc::new(DataPlaneStats::new());
        let telemetry = Arc::new(MetricsRegistry::new());
        // Every layer below the control plane reports into this registry:
        // the platform's TZ counters, the plane's own stats, and (via the
        // installed tracer) SMC world-switch spans.
        telemetry.register_source(platform.stats());
        telemetry.register_source(&stats);
        platform.smc().install_tracer(telemetry.tracer().clone());
        let dp = DataPlane {
            pager,
            store: RwLock::new(HashMap::new()),
            tenants: RwLock::new(HashMap::new()),
            alloc: Mutex::new(AllocState {
                allocator: Allocator::new(config.allocator),
                next_id: UArrayId(0),
                committed: HashMap::new(),
            }),
            stats,
            telemetry,
            ingest_pool: RwLock::new(None),
            sealer: Sealer::new(),
            lane_buffers: Mutex::new(Vec::new()),
            start: Instant::now(),
            config,
            platform,
        };
        dp.register_tenant(TenantId::DEFAULT, None).expect("default tenant registers once");
        Arc::new(dp)
    }

    /// Register a tenant with an optional TEE memory quota in bytes
    /// (`None` = unconstrained). The tenant's epoch-0 key set is derived
    /// from the platform master secret. Fails if the tenant already exists.
    pub fn register_tenant(
        &self,
        tenant: TenantId,
        quota_bytes: Option<u64>,
    ) -> Result<(), DataPlaneError> {
        {
            let mut tenants = self.tenants.write();
            if tenants.contains_key(&tenant) {
                return Err(DataPlaneError::BadArguments("tenant already registered"));
            }
            // Distinct per-tenant RNG streams for the reference namespaces.
            let seed = self
                .config
                .ref_seed
                .wrapping_add((tenant.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let keys = self.config.master.tenant_keys(tenant.0, 0);
            tenants.insert(
                tenant,
                Arc::new(Mutex::new(TenantState {
                    refs: RefTable::new(seed),
                    audit: AuditLog::for_tenant(
                        keys.signing.clone(),
                        self.config.audit_flush_threshold,
                        tenant,
                    ),
                    keys,
                    segments: Vec::new(),
                    egress_seq: 0,
                    events_ingested: 0,
                    bytes_ingested: 0,
                    next_ckpt_seq: 0,
                    last_ckpt_epoch: None,
                    retired_before: 0,
                })),
            );
        }
        if let Some(quota) = quota_bytes {
            self.alloc.lock().allocator.set_owner_quota(tenant.owner_tag(), quota);
        }
        // Pre-create the tenant's latency histograms so the ingest hot
        // path never takes the registry's write lock.
        self.telemetry.register_tenant(tenant.0);
        Ok(())
    }

    /// Replace (or install) a tenant's TEE memory quota. `None` makes the
    /// tenant unconstrained. Usage above a shrunken quota is not evicted;
    /// further charges simply fail until the tenant's usage drops.
    pub fn set_tenant_quota(
        &self,
        tenant: TenantId,
        quota_bytes: Option<u64>,
    ) -> Result<(), DataPlaneError> {
        self.tenant_state(tenant)?;
        let mut alloc = self.alloc.lock();
        match quota_bytes {
            Some(bytes) => alloc.allocator.set_owner_quota(tenant.owner_tag(), bytes),
            None => alloc.allocator.clear_owner_quota(tenant.owner_tag()),
        }
        Ok(())
    }

    /// Rotate a tenant's key material to the next epoch. Records appended
    /// before the rotation flush as the old epoch's final segment; the new
    /// epoch opens with a [`AuditRecord::Rekey`] record. Other tenants are
    /// untouched. Returns the new epoch.
    pub fn rekey_tenant(&self, tenant: TenantId) -> Result<u32, DataPlaneError> {
        let ts = self.tenant_state(tenant)?;
        let mut t = ts.lock();
        let next_epoch = t.keys.epoch + 1;
        t.keys = self.config.master.tenant_keys(tenant.0, next_epoch);
        let signing = t.keys.signing.clone();
        if let Some(seg) = t.audit.rekey(signing, next_epoch) {
            t.segments.push(seg);
        }
        let record = AuditRecord::Rekey { ts_ms: self.now_ms(), epoch: next_epoch };
        if let Some(seg) = t.audit.append(record) {
            t.segments.push(seg);
        }
        Ok(next_epoch)
    }

    /// A tenant's current key epoch.
    pub fn tenant_epoch(&self, tenant: TenantId) -> Result<u32, DataPlaneError> {
        Ok(self.tenant_state(tenant)?.lock().keys.epoch)
    }

    /// The cloud-side keychain of a tenant: per-epoch verifier keys (cloud
    /// decrypt + trail signing) covering every epoch through the current
    /// one. This is all trail verification and result decryption need — the
    /// source-link keys are not included.
    pub fn verifier_keys(&self, tenant: TenantId) -> Result<TenantKeychain, DataPlaneError> {
        let ts = self.tenant_state(tenant)?;
        let (epoch, horizon) = {
            let t = ts.lock();
            (t.keys.epoch, t.retired_before)
        };
        let mut chain = self.config.master.keychain(tenant.0, epoch);
        if horizon > 0 {
            chain.retire_before(horizon);
        }
        Ok(chain)
    }

    /// Tear a tenant down: append its departure record, flush and hand back
    /// its remaining trail, revoke every opaque reference, free every uArray
    /// charged to it in one allocator pass, and release the pages. The
    /// default tenant cannot be deregistered.
    pub fn deregister_tenant(
        &self,
        tenant: TenantId,
        reason: DepartureReason,
    ) -> Result<TenantTeardown, DataPlaneError> {
        if tenant == TenantId::DEFAULT {
            return Err(DataPlaneError::BadArguments("the default tenant cannot depart"));
        }
        // Remove from the map first: new calls fail with UnknownTenant from
        // here on; only calls already holding the state Arc can still race.
        let ts = self.tenants.write().remove(&tenant).ok_or(DataPlaneError::UnknownTenant)?;
        let (segments, final_epoch, refs_revoked) = {
            let mut t = ts.lock();
            let refs_revoked = t.refs.live_count();
            let record = AuditRecord::Departure { ts_ms: self.now_ms(), reason };
            if let Some(seg) = t.audit.append(record) {
                t.segments.push(seg);
            }
            if let Some(seg) = t.audit.flush() {
                t.segments.push(seg);
            }
            (std::mem::take(&mut t.segments), t.keys.epoch, refs_revoked)
        };
        let torn = {
            let mut alloc = self.alloc.lock();
            // Seal before sweeping: an in-flight invocation that raced past
            // the tenant-map removal can no longer charge new arrays to the
            // departed owner — it fails its quota check and unpublishes its
            // own store entries and pages (commits are published before they
            // charge, so anything this sweep finds charged is in the store).
            alloc.allocator.set_owner_quota(tenant.owner_tag(), 0);
            let torn = alloc.allocator.release_owner(tenant.owner_tag());
            for (id, _) in &torn.arrays {
                alloc.committed.remove(id);
            }
            torn
        };
        if !torn.arrays.is_empty() {
            let mut store = self.store.write();
            for (id, bytes) in &torn.arrays {
                store.remove(id);
                self.pager.release_pages(bytes / PAGE_SIZE);
            }
        }
        // Purge the tenant's observability state along with its namespace:
        // histogram rows, the checkpoint gauge, and the flight-recorder ring
        // all key on the tenant id, which deployments recycle.
        self.telemetry.deregister_tenant(tenant.0);
        Ok(TenantTeardown {
            tenant,
            reason,
            final_epoch,
            segments,
            reclaimed_bytes: torn.reclaimed_bytes,
            refs_revoked,
        })
    }

    // ----- crash recovery: checkpoint / restore / epoch retirement -------

    /// Seal a checkpoint of one tenant's streaming state.
    ///
    /// The control plane supplies a [`CheckpointManifest`] captured at a
    /// quiescent point (no window mid-fire, no ingest in flight for this
    /// tenant); the data plane materializes every referenced partition,
    /// serializes the `SBTC` plaintext, chains its hash into the signed
    /// trail as an [`AuditRecord::Checkpoint`] record (flushed as its own
    /// segment, so the recorded audit cursor is exactly where a restored
    /// log resumes), and seals it under keys derived per
    /// `(tenant, epoch, ckpt_seq)`. Only the sealed container leaves the
    /// enclave.
    pub fn checkpoint_tenant(
        &self,
        tenant: TenantId,
        manifest: &CheckpointManifest,
    ) -> Result<SealedSnapshot, DataPlaneError> {
        WorldTracker::assert_secure("DataPlane::checkpoint");
        let span_start = self.telemetry.tracer().start();
        let ts = self.tenant_state(tenant)?;
        // Materialize the windowed state before taking the tenant lock
        // (`lookup` takes it per reference). The quiescent-point contract
        // means nothing mutates these windows concurrently.
        let mut windows = Vec::with_capacity(manifest.windows.len());
        for w in &manifest.windows {
            let mut sides: [Vec<Vec<Event>>; 2] = [Vec::new(), Vec::new()];
            for (side, refs) in sides.iter_mut().zip([&w.left, &w.right]) {
                for r in refs {
                    let (_, data) = self.lookup(&ts, *r)?;
                    side.push(data.as_events()?.to_vec());
                }
            }
            let [left, right] = sides;
            windows.push(SnapshotWindow { win_no: w.win_no, left, right });
        }
        let next_uarray_id = self.alloc.lock().next_id.0;
        let plain = {
            let mut t = ts.lock();
            // Flush whatever is pending so the checkpoint record becomes a
            // segment of its own: the cursor names the segment right after
            // it, which is where the resumed log continues.
            if let Some(seg) = t.audit.flush() {
                t.segments.push(seg);
            }
            SnapshotPlaintext {
                tenant: tenant.0,
                ckpt_seq: t.next_ckpt_seq,
                epoch: t.keys.epoch,
                retired_before: t.retired_before,
                audit_cursor: t.audit.next_seq() + 1,
                egress_seq: t.egress_seq,
                events_ingested: t.events_ingested,
                bytes_ingested: t.bytes_ingested,
                left_watermark_ms: manifest.left_watermark_ms,
                right_watermark_ms: manifest.right_watermark_ms,
                next_unexecuted: manifest.next_unexecuted,
                next_uarray_id,
                windows,
            }
        };
        // The seal runs with the tenant unlocked: its lanes join by helping,
        // and a helping thread may pick up any queued task.
        let pool = self.ingest_pool.read().clone();
        let (sealed, hash) =
            seal_snapshot(&self.config.master, &plain, &self.sealer, pool.as_deref());
        {
            let mut t = ts.lock();
            // The quiescent-point contract, checked: had anything of this
            // tenant's run during the seal, the snapshot would no longer be
            // the cut its cursor and counters describe.
            if t.audit.pending_len() != 0
                || t.audit.next_seq() + 1 != plain.audit_cursor
                || t.next_ckpt_seq != plain.ckpt_seq
                || t.keys.epoch != plain.epoch
                || t.egress_seq != plain.egress_seq
                || t.events_ingested != plain.events_ingested
            {
                return Err(DataPlaneError::BadArguments(
                    "tenant was not quiescent during its checkpoint",
                ));
            }
            let record = AuditRecord::Checkpoint {
                ts_ms: self.now_ms(),
                seq: plain.ckpt_seq,
                resumed: false,
                hash,
            };
            self.stats.record_audit(1);
            if let Some(seg) = t.audit.append(record) {
                t.segments.push(seg);
            }
            if let Some(seg) = t.audit.flush() {
                t.segments.push(seg);
            }
            t.next_ckpt_seq = plain.ckpt_seq + 1;
            t.last_ckpt_epoch = Some(plain.epoch);
        }
        self.telemetry.note_checkpoint(tenant.0);
        self.telemetry.tracer().record(
            SpanKind::Checkpoint,
            tenant.0,
            span_start,
            sealed.len() as u64,
        );
        Ok(sealed)
    }

    /// Restore a tenant from a sealed checkpoint into this (fresh) plane.
    ///
    /// Fails closed: the snapshot must authenticate, parse, belong to
    /// `tenant`, and be sealed under an epoch at or above both `min_epoch`
    /// (the caller's retirement floor, e.g. from vault metadata) and the
    /// horizon recorded in the snapshot itself. The tenant's audit log
    /// resumes at the recorded cursor, opening with the matching
    /// `resumed` checkpoint record so the cloud can stitch the suffix onto
    /// its retained prefix and detect rollback; every restored partition is
    /// re-committed to secure memory and re-announced to the trail as an
    /// ordinary ingress + windowing pair.
    ///
    /// A failed restore can leave the tenant partially registered (e.g. on
    /// quota rejection mid-recommit); callers must treat any error as fatal
    /// for this plane instance and discard it.
    pub fn restore_tenant(
        &self,
        tenant: TenantId,
        quota_bytes: Option<u64>,
        sealed: &SealedSnapshot,
        min_epoch: u32,
    ) -> Result<RestoredTenant, DataPlaneError> {
        WorldTracker::assert_secure("DataPlane::restore");
        let span_start = self.telemetry.tracer().start();
        if sealed.tenant != tenant.0 {
            return Err(DataPlaneError::SnapshotRejected("snapshot belongs to another tenant"));
        }
        let (plain, hash) = unseal_snapshot(&self.config.master, sealed)?;
        let horizon = min_epoch.max(plain.retired_before);
        if plain.epoch < horizon {
            return Err(DataPlaneError::RetiredEpoch { epoch: plain.epoch, horizon });
        }
        {
            let mut tenants = self.tenants.write();
            if tenants.contains_key(&tenant) {
                return Err(DataPlaneError::BadArguments("tenant already registered"));
            }
            let seed = self
                .config
                .ref_seed
                .wrapping_add((tenant.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let keys = self.config.master.tenant_keys(tenant.0, plain.epoch);
            let audit = AuditLog::resume(
                keys.signing.clone(),
                self.config.audit_flush_threshold,
                tenant,
                plain.epoch,
                plain.audit_cursor,
            );
            tenants.insert(
                tenant,
                Arc::new(Mutex::new(TenantState {
                    refs: RefTable::new(seed),
                    audit,
                    keys,
                    segments: Vec::new(),
                    egress_seq: plain.egress_seq,
                    events_ingested: plain.events_ingested,
                    bytes_ingested: plain.bytes_ingested,
                    next_ckpt_seq: plain.ckpt_seq + 1,
                    last_ckpt_epoch: Some(plain.epoch),
                    retired_before: horizon,
                })),
            );
        }
        if let Some(quota) = quota_bytes {
            self.alloc.lock().allocator.set_owner_quota(tenant.owner_tag(), quota);
        }
        self.telemetry.register_tenant(tenant.0);
        {
            // A fresh plane mints ids from zero; lift the floor past every
            // id the trail prefix can reference so the suffix never reuses
            // one in replay.
            let mut alloc = self.alloc.lock();
            if alloc.next_id.0 < plain.next_uarray_id {
                alloc.next_id = UArrayId(plain.next_uarray_id);
            }
        }
        let ts = self.tenant_state(tenant)?;
        // The resumed trail opens with the resumed-checkpoint record: same
        // sequence and hash as the sealed record the cloud already holds.
        self.append_audit(
            &ts,
            AuditRecord::Checkpoint {
                ts_ms: self.now_ms(),
                seq: plain.ckpt_seq,
                resumed: true,
                hash,
            },
        );
        // Re-commit every partition and re-announce it: the state re-enters
        // the TEE and is re-windowed, so replay sees an ordinary ingress +
        // windowing pair per array and rebuilds its lineage from there.
        let mut windows = Vec::with_capacity(plain.windows.len());
        let mut events_restored = 0u64;
        for w in &plain.windows {
            let mut restored =
                RestoredWindow { win_no: w.win_no, left: Vec::new(), right: Vec::new() };
            for (events_side, refs_side) in
                [(&w.left, &mut restored.left), (&w.right, &mut restored.right)]
            {
                for events in events_side.iter() {
                    events_restored += events.len() as u64;
                    let pre_id = self.next_id();
                    let data = StoredData::from_events(self.next_id(), events, &self.pager)?;
                    let (rid, opaque, _) = self.register_output(
                        tenant,
                        &ts,
                        data,
                        PrimitiveKind::Segment.code() as u64,
                        None,
                    )?;
                    self.append_audit(
                        &ts,
                        AuditRecord::Ingress {
                            ts_ms: self.now_ms(),
                            data: DataRef::UArray(UArrayRef(pre_id.0 as u32)),
                        },
                    );
                    self.append_audit(
                        &ts,
                        AuditRecord::Windowing {
                            ts_ms: self.now_ms(),
                            input: UArrayRef(pre_id.0 as u32),
                            win_no: w.win_no as u16,
                            output: UArrayRef(rid.0 as u32),
                        },
                    );
                    refs_side.push(opaque);
                }
            }
            windows.push(restored);
        }
        self.telemetry.note_checkpoint(tenant.0);
        self.telemetry.tracer().record(SpanKind::Restore, tenant.0, span_start, events_restored);
        Ok(RestoredTenant {
            tenant,
            ckpt_seq: plain.ckpt_seq,
            epoch: plain.epoch,
            left_watermark_ms: plain.left_watermark_ms,
            right_watermark_ms: plain.right_watermark_ms,
            next_unexecuted: plain.next_unexecuted,
            windows,
            events_restored,
        })
    }

    /// Retire a tenant's key epochs below `horizon` (forward secrecy):
    /// retired epochs disappear from [`DataPlane::verifier_keys`] and
    /// snapshots sealed under them are refused at restore. The horizon can
    /// only advance, never past the epoch of the latest sealed checkpoint
    /// (retiring it would make the tenant unrecoverable) and never past the
    /// current epoch. Returns the number of epochs newly retired.
    pub fn retire_epochs_before(
        &self,
        tenant: TenantId,
        horizon: u32,
    ) -> Result<usize, DataPlaneError> {
        let ts = self.tenant_state(tenant)?;
        let mut t = ts.lock();
        let ckpt_epoch =
            t.last_ckpt_epoch.ok_or(DataPlaneError::BadArguments("no checkpoint sealed yet"))?;
        if horizon > ckpt_epoch || horizon > t.keys.epoch {
            return Err(DataPlaneError::BadArguments("horizon beyond the checkpoint epoch"));
        }
        let newly = horizon.saturating_sub(t.retired_before);
        t.retired_before = t.retired_before.max(horizon);
        Ok(newly as usize)
    }

    /// A tenant's epoch-retirement horizon (0 = nothing retired).
    pub fn tenant_retired_before(&self, tenant: TenantId) -> Result<u32, DataPlaneError> {
        Ok(self.tenant_state(tenant)?.lock().retired_before)
    }

    /// The registered tenants, in ascending id order.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self.tenants.read().keys().copied().collect();
        ids.sort();
        ids
    }

    fn tenant_state(&self, tenant: TenantId) -> Result<Arc<Mutex<TenantState>>, DataPlaneError> {
        self.tenants.read().get(&tenant).cloned().ok_or(DataPlaneError::UnknownTenant)
    }

    /// Data-plane timestamp (milliseconds since initialization), as stamped
    /// on audit records.
    fn now_ms(&self) -> u32 {
        self.start.elapsed().as_millis() as u32
    }

    /// The platform this data plane runs on.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &DataPlaneStats {
        &self.stats
    }

    /// The unified metrics registry (tracer, histograms, counter sources,
    /// flight recorder). One per data plane; enable with
    /// [`MetricsRegistry::set_enabled`] to start recording.
    pub fn telemetry(&self) -> &Arc<MetricsRegistry> {
        &self.telemetry
    }

    /// Current memory report from the allocator.
    pub fn memory_report(&self) -> MemoryReport {
        self.alloc.lock().allocator.report()
    }

    /// Memory accounting of one tenant: bytes charged and quota.
    pub fn tenant_memory(&self, tenant: TenantId) -> Result<TenantMemory, DataPlaneError> {
        self.tenant_state(tenant)?;
        let alloc = self.alloc.lock();
        Ok(TenantMemory {
            used_bytes: alloc.allocator.owner_used(tenant.owner_tag()),
            quota_bytes: alloc.allocator.owner_quota(tenant.owner_tag()),
        })
    }

    /// One tenant's ingest counters: `(events, plaintext bytes)`.
    pub fn tenant_ingest(&self, tenant: TenantId) -> Result<(u64, u64), DataPlaneError> {
        let ts = self.tenant_state(tenant)?;
        let t = ts.lock();
        Ok((t.events_ingested, t.bytes_ingested))
    }

    /// Roll back a tenant's ingest counters for a batch the control plane
    /// dropped after ingress (its windowing was rejected, e.g. by the
    /// tenant's quota): the events never reached windowed state, so they do
    /// not count as ingested. Platform-wide throughput stats are untouched
    /// (the decryption work really happened).
    pub fn uncount_ingest_for(&self, tenant: TenantId, events: u64, bytes: u64) {
        if let Ok(ts) = self.tenant_state(tenant) {
            let mut t = ts.lock();
            t.events_ingested = t.events_ingested.saturating_sub(events);
            t.bytes_ingested = t.bytes_ingested.saturating_sub(bytes);
        }
    }

    /// Whether the engine should apply backpressure to sources (platform-wide
    /// secure-memory pressure).
    pub fn under_memory_pressure(&self) -> bool {
        self.pager.under_pressure()
    }

    /// Whether one tenant's sources should slow down: near its own quota,
    /// independent of the other tenants.
    pub fn tenant_under_pressure(&self, tenant: TenantId) -> bool {
        self.tenant_memory(tenant).map(|m| m.under_pressure()).unwrap_or(false)
    }

    /// Number of live opaque references of the default tenant.
    pub fn live_refs(&self) -> usize {
        self.live_refs_for(TenantId::DEFAULT)
    }

    /// Number of live opaque references of one tenant.
    pub fn live_refs_for(&self, tenant: TenantId) -> usize {
        self.tenant_state(tenant).map(|t| t.lock().refs.live_count()).unwrap_or(0)
    }

    /// Drain the default tenant's audit segments (the engine uploads them).
    pub fn drain_audit_segments(&self) -> Vec<LogSegment> {
        self.drain_audit_segments_for(TenantId::DEFAULT).unwrap_or_default()
    }

    /// Drain one tenant's flushed audit segments.
    pub fn drain_audit_segments_for(
        &self,
        tenant: TenantId,
    ) -> Result<Vec<LogSegment>, DataPlaneError> {
        let ts = self.tenant_state(tenant)?;
        let mut t = ts.lock();
        let mut flushed = std::mem::take(&mut t.segments);
        if let Some(seg) = t.audit.flush() {
            flushed.push(seg);
        }
        Ok(flushed)
    }

    /// Compression statistics of the default tenant's audit log:
    /// (raw bytes, compressed bytes).
    pub fn audit_bytes(&self) -> (u64, u64) {
        let ts = match self.tenant_state(TenantId::DEFAULT) {
            Ok(ts) => ts,
            Err(_) => return (0, 0),
        };
        let t = ts.lock();
        (t.audit.total_raw_bytes(), t.audit.total_compressed_bytes())
    }

    // ----- internal helpers ---------------------------------------------

    /// Append one audit record to the tenant's log. This sits on every
    /// tenant's every-event path: the record's ports live inline
    /// (`PortList`) and `AuditLog::append` streams the fields straight into
    /// the segment's pre-laid-out column buffers, so the steady-state append
    /// performs no heap allocation and holds the tenant lock only for the
    /// column pushes (plus, once per threshold, the cheap seal-and-sign).
    fn append_audit(&self, ts: &Mutex<TenantState>, record: AuditRecord) {
        self.stats.record_audit(1);
        let mut t = ts.lock();
        if let Some(segment) = t.audit.append(record) {
            t.segments.push(segment);
        }
    }

    /// Place, quota-charge and commit `produced` under one allocator critical
    /// section (all-or-nothing with respect to the tenant's quota), then
    /// publish the arrays to the store. Returns per-output
    /// `(id, len, window, paging_nanos)`; references are minted by the
    /// caller. On quota rejection every produced array's pages are released
    /// and nothing is published.
    #[allow(clippy::type_complexity)]
    fn commit_outputs(
        &self,
        tenant: TenantId,
        producer: u64,
        produced: Vec<(StoredData, Option<WindowId>)>,
        hints: &HintSet,
    ) -> Result<Vec<(UArrayId, usize, Option<WindowId>, u64)>, DataPlaneError> {
        let owner = tenant.owner_tag();
        let total: u64 = produced.iter().map(|(d, _)| d.committed_bytes()).sum();
        // Publish to the store *before* charging: the owner-teardown sweep
        // in `deregister_tenant` discovers a tenant's arrays through their
        // quota charges, so any array it can see charged is already in the
        // store and gets removed by the sweep's store pass. A commit that
        // instead hits the post-teardown sealed quota (or a plain quota
        // rejection) unpublishes its own entries below. Either way no store
        // entry can outlive both passes.
        let mut out = Vec::with_capacity(produced.len());
        let mut metas = Vec::with_capacity(produced.len());
        {
            let mut store = self.store.write();
            for (data, window) in produced {
                out.push((data.id(), data.len(), window, data.paging_nanos()));
                metas.push((data.id(), data.committed_bytes()));
                store.insert(data.id(), Arc::new(data));
            }
        }
        let rejected = {
            let mut alloc = self.alloc.lock();
            if alloc.allocator.owner_would_exceed(owner, total) {
                true
            } else {
                for (i, (id, bytes)) in metas.iter().enumerate() {
                    alloc.allocator.place(*id, producer, hints.get(i));
                    alloc.allocator.update(*id, UArrayState::Produced, *bytes);
                    alloc
                        .allocator
                        .charge_owner(owner, *id, *bytes)
                        .expect("quota checked under the same allocator lock");
                    alloc.committed.insert(*id, *bytes);
                }
                false
            }
        };
        if rejected {
            let mut store = self.store.write();
            for (id, bytes) in &metas {
                store.remove(id);
                self.pager.release_pages(bytes / PAGE_SIZE);
            }
            return Err(DataPlaneError::QuotaExceeded);
        }
        Ok(out)
    }

    /// Convenience wrapper for single-output boundary paths (ingress).
    fn register_output(
        &self,
        tenant: TenantId,
        ts: &Mutex<TenantState>,
        data: StoredData,
        producer: u64,
        hint: Option<ConsumptionHint>,
    ) -> Result<(UArrayId, OpaqueRef, usize), DataPlaneError> {
        let mut hints = HintSet::none();
        hints.push(hint);
        let committed = self.commit_outputs(tenant, producer, vec![(data, None)], &hints)?;
        let (id, len, _, _) = committed[0];
        let opaque = ts.lock().refs.mint(id);
        Ok((id, opaque, len))
    }

    fn next_id(&self) -> UArrayId {
        let mut alloc = self.alloc.lock();
        let id = alloc.next_id;
        alloc.next_id = id.next();
        id
    }

    fn lookup(
        &self,
        ts: &Mutex<TenantState>,
        r: OpaqueRef,
    ) -> Result<(UArrayId, Arc<StoredData>), DataPlaneError> {
        let id = ts.lock().refs.resolve(r)?;
        let store = self.store.read();
        let data = store.get(&id).cloned().ok_or(DataPlaneError::InvalidReference)?;
        Ok((id, data))
    }

    // ----- ingress -------------------------------------------------------

    /// Ingest a batch on the default tenant.
    pub fn ingress(
        &self,
        payload: &[u8],
        encrypted: bool,
        is_power: bool,
        keystream_block: u32,
    ) -> Result<InvokeOutput, DataPlaneError> {
        self.ingress_for(TenantId::DEFAULT, payload, encrypted, is_power, keystream_block)
    }

    /// Ingest a batch of events whose bytes have arrived in the secure world
    /// (through trusted IO or copied in via the OS — that cost is charged by
    /// the engine through `sbt_tz::IoChannel`).
    ///
    /// `encrypted` payloads are decrypted with the source key; `is_power`
    /// selects the 16-byte power-event layout, which is projected onto the
    /// generic layout for the shared primitives.
    ///
    /// `keystream_block` is the CTR block offset at which this payload was
    /// encrypted by the source (the source advances it per batch).
    pub fn ingress_for(
        &self,
        tenant: TenantId,
        payload: &[u8],
        encrypted: bool,
        is_power: bool,
        keystream_block: u32,
    ) -> Result<InvokeOutput, DataPlaneError> {
        WorldTracker::assert_secure("DataPlane::ingress");
        let ingest_start = self.telemetry.tracer().start();
        let ts = self.tenant_state(tenant)?;
        // Wire-format check first: the payload either is whole events or the
        // batch is rejected before any secure memory moves.
        let record_bytes =
            if is_power { sbt_types::POWER_EVENT_BYTES } else { sbt_types::EVENT_BYTES };
        if !payload.len().is_multiple_of(record_bytes) {
            return Err(DataPlaneError::BadIngress(if is_power {
                "power payload not a whole event"
            } else {
                "payload not a whole event"
            }));
        }
        let n_events = payload.len() / record_bytes;
        // Cheap early quota check before decrypting and parsing: the batch
        // will commit its page-rounded destination size.
        let estimate = TeePager::pages_for((n_events * sbt_types::EVENT_BYTES) as u64) * PAGE_SIZE;
        if self.alloc.lock().allocator.owner_would_exceed(tenant.owner_tag(), estimate) {
            return Err(DataPlaneError::QuotaExceeded);
        }
        // Decrypt under the calling tenant's current-epoch source key: a
        // batch encrypted under another tenant's key (or a stale epoch)
        // decrypts to garbage values — the wire format is position-based, so
        // garbage still parses, just never into meaningful records.
        let ctr = if encrypted {
            let t = ts.lock();
            Some(AesCtr::new(&t.keys.source_key, &t.keys.source_nonce))
        } else {
            None
        };

        // Zero-copy ingest: the destination uArray is reserved first (pages
        // committed up front, all-or-nothing), then ciphertext is decrypted
        // through a fixed stack window directly into it. No staging heap
        // allocation of the payload on either path.
        //
        // WIRE_CHUNK (see `parallel`) is a multiple of both event layouts
        // (lcm(12,16) = 48) and of the AES block size, so every window holds
        // whole events and starts on a CTR block boundary.
        let decrypt_start = Instant::now();
        let id = self.next_id();
        let data = StoredData::events_exact(id, n_events, &self.pager, |dst| {
            let mut window = [0u8; WIRE_CHUNK];
            for (i, chunk) in payload.chunks(WIRE_CHUNK).enumerate() {
                let cleartext: &[u8] = match &ctr {
                    Some(ctr) => {
                        let block = keystream_block.wrapping_add((i * (WIRE_CHUNK / 16)) as u32);
                        ctr.apply_keystream_into(chunk, &mut window[..chunk.len()], block);
                        &window[..chunk.len()]
                    }
                    None => chunk,
                };
                if is_power {
                    for rec in cleartext.chunks_exact(sbt_types::POWER_EVENT_BYTES) {
                        // from_bytes only fails on short input; rec is whole.
                        dst.push(PowerEvent::from_bytes(rec).unwrap().to_generic());
                    }
                } else {
                    for rec in cleartext.chunks_exact(sbt_types::EVENT_BYTES) {
                        dst.push(Event::from_bytes(rec).unwrap());
                    }
                }
            }
        })?;
        let decrypt_nanos = if encrypted { decrypt_start.elapsed().as_nanos() as u64 } else { 0 };
        let (id, opaque, len) =
            self.register_output(tenant, &ts, data, PrimitiveKind::Ingress.code() as u64, None)?;
        // Counters move only after the batch has actually been admitted
        // (registration can still fail on the tenant's quota).
        self.stats.record_ingress(n_events as u64, payload.len() as u64, decrypt_nanos);
        {
            let mut t = ts.lock();
            t.events_ingested += n_events as u64;
            t.bytes_ingested += payload.len() as u64;
        }
        self.append_audit(
            &ts,
            AuditRecord::Ingress {
                ts_ms: self.now_ms(),
                data: DataRef::UArray(UArrayRef(id.0 as u32)),
            },
        );
        // Ingest-to-store latency (call entry to registered output) plus a
        // decrypt span carrying the measured decrypt time. Both are relaxed
        // no-ops while telemetry is disabled.
        self.telemetry.record_latency(
            tenant.0,
            LatencyKind::IngestToStore,
            self.telemetry.tracer().elapsed_since(ingest_start),
        );
        if encrypted {
            // One sub-batch: the span carries the batch tag and its event
            // count in the same packed payload the parallel lanes use, so
            // span consumers sum decrypt time uniformly across both paths.
            self.telemetry.tracer().record_at(
                SpanKind::Decrypt,
                tenant.0,
                ingest_start,
                decrypt_nanos,
                decrypt_span_payload(id.0, n_events as u64),
            );
        }
        Ok(InvokeOutput { opaque, len, window: None })
    }

    /// Install the worker pool that parallel ingest, egress sealing and
    /// checkpoint sealing fan lane tasks onto (normally the engine's
    /// executor, lent when the engine is assembled).
    pub fn set_ingest_pool(&self, pool: Arc<dyn LanePool>) {
        *self.ingest_pool.write() = Some(pool);
    }

    /// Ingest a batch whose payload arrived as a shared buffer, decrypting
    /// and parsing its sub-ranges in parallel on the installed
    /// [`LanePool`].
    ///
    /// Semantically identical to [`ingress_for`](DataPlane::ingress_for) —
    /// same checks, same all-or-nothing reservation, same audit record and
    /// counters, and the stored events are byte-identical (lane boundaries
    /// are multiples of the serial path's decrypt window, so the window
    /// sequence is unchanged). The split happens strictly *inside* the one
    /// ingress invocation: sub-batching adds no boundary crossings. Falls
    /// back to the serial path when no pool is installed or the batch is too
    /// small to split.
    pub fn ingress_arc_for(
        &self,
        tenant: TenantId,
        payload: Arc<Vec<u8>>,
        encrypted: bool,
        is_power: bool,
        keystream_block: u32,
    ) -> Result<InvokeOutput, DataPlaneError> {
        let pool = self.ingest_pool.read().clone();
        let lanes = match &pool {
            Some(pool) => lane_plan(payload.len(), pool.workers(), min_lane_chunks()),
            None => Vec::new(),
        };
        if lanes.len() < 2 {
            return self.ingress_for(tenant, &payload, encrypted, is_power, keystream_block);
        }
        self.ingress_parallel(
            tenant,
            payload,
            encrypted,
            is_power,
            keystream_block,
            pool.expect("a multi-lane plan implies a pool").as_ref(),
            &lanes,
        )
    }

    /// The parallel body of [`ingress_arc_for`](DataPlane::ingress_arc_for):
    /// one lane task per sub-range, each stream-decrypting through its own
    /// fixed stack window into its own pooled buffer of the
    /// [`DisjointWriter`], stitched into the single reserved extent inside
    /// `produce_exact`'s fill.
    #[allow(clippy::too_many_arguments)]
    fn ingress_parallel(
        &self,
        tenant: TenantId,
        payload: Arc<Vec<u8>>,
        encrypted: bool,
        is_power: bool,
        keystream_block: u32,
        pool: &dyn LanePool,
        lanes: &[(usize, usize)],
    ) -> Result<InvokeOutput, DataPlaneError> {
        WorldTracker::assert_secure("DataPlane::ingress");
        let ingest_start = self.telemetry.tracer().start();
        let ts = self.tenant_state(tenant)?;
        let record_bytes =
            if is_power { sbt_types::POWER_EVENT_BYTES } else { sbt_types::EVENT_BYTES };
        if !payload.len().is_multiple_of(record_bytes) {
            return Err(DataPlaneError::BadIngress(if is_power {
                "power payload not a whole event"
            } else {
                "payload not a whole event"
            }));
        }
        let n_events = payload.len() / record_bytes;
        let estimate = TeePager::pages_for((n_events * sbt_types::EVENT_BYTES) as u64) * PAGE_SIZE;
        if self.alloc.lock().allocator.owner_would_exceed(tenant.owner_tag(), estimate) {
            return Err(DataPlaneError::QuotaExceeded);
        }
        // Key material is copied out (128-bit arrays) so the `'static` lane
        // tasks never borrow tenant state; each lane builds its own cipher
        // and seeks the keystream to its byte offset.
        let key_material = if encrypted {
            let t = ts.lock();
            Some((t.keys.source_key, t.keys.source_nonce))
        } else {
            None
        };

        let counts: Vec<usize> = lanes.iter().map(|&(_, len)| len / record_bytes).collect();
        let recycled = std::mem::take(&mut *self.lane_buffers.lock());
        let writer = Arc::new(DisjointWriter::new(recycled, &counts));
        let decrypt_total = Arc::new(AtomicU64::new(0));
        let tracer = self.telemetry.tracer();
        let id = self.next_id();
        let tasks: Vec<LaneTask> = lanes
            .iter()
            .enumerate()
            .map(|(ix, &(off, len))| {
                let payload = Arc::clone(&payload);
                let writer = Arc::clone(&writer);
                let decrypt_total = Arc::clone(&decrypt_total);
                let tracer = Arc::clone(tracer);
                let lane_block = AesCtr::block_at(keystream_block, off);
                let lane_events = (len / record_bytes) as u64;
                let tenant_raw = tenant.0;
                let batch_tag = id.0;
                Box::new(move || {
                    let lane_start = tracer.start();
                    let t0 = Instant::now();
                    writer.fill(ix, |buf| {
                        let mut window = [0u8; WIRE_CHUNK];
                        let ctr = key_material.map(|(key, nonce)| AesCtr::new(&key, &nonce));
                        let mut cursor = ctr.as_ref().map(|c| c.seek_to_block(lane_block));
                        for chunk in payload[off..off + len].chunks(WIRE_CHUNK) {
                            let cleartext: &[u8] = match &mut cursor {
                                Some(cur) => {
                                    cur.apply_into(chunk, &mut window[..chunk.len()]);
                                    &window[..chunk.len()]
                                }
                                None => chunk,
                            };
                            if is_power {
                                for rec in cleartext.chunks_exact(sbt_types::POWER_EVENT_BYTES) {
                                    buf.push(PowerEvent::from_bytes(rec).unwrap().to_generic());
                                }
                            } else {
                                for rec in cleartext.chunks_exact(sbt_types::EVENT_BYTES) {
                                    buf.push(Event::from_bytes(rec).unwrap());
                                }
                            }
                        }
                    });
                    if encrypted {
                        // Decrypt accounting is the *sum* of lane CPU time
                        // (not the batch's wall time), and every lane gets
                        // its own span tagged with the parent batch, so
                        // breakdowns stay correct under parallel ingest.
                        let lane_nanos = t0.elapsed().as_nanos() as u64;
                        decrypt_total.fetch_add(lane_nanos, Ordering::Relaxed);
                        tracer.record_at(
                            SpanKind::Decrypt,
                            tenant_raw,
                            lane_start,
                            lane_nanos,
                            decrypt_span_payload(batch_tag, lane_events),
                        );
                    }
                }) as LaneTask
            })
            .collect();

        // Pages for the whole batch commit first (all-or-nothing, exactly as
        // the serial path); only then do the lanes run and stitch. On a
        // failed reservation the fill never runs: no decrypt work is done
        // and no lane buffer is filled.
        let result = StoredData::events_exact(id, n_events, &self.pager, |dst| {
            pool.run(tasks);
            writer.stitch_into(dst);
        });
        // Return the lane buffers to the pool on both outcomes.
        *self.lane_buffers.lock() = writer.reclaim();
        let data = result?;
        let decrypt_nanos = decrypt_total.load(Ordering::Relaxed);
        let (id, opaque, len) =
            self.register_output(tenant, &ts, data, PrimitiveKind::Ingress.code() as u64, None)?;
        self.stats.record_ingress(n_events as u64, payload.len() as u64, decrypt_nanos);
        {
            let mut t = ts.lock();
            t.events_ingested += n_events as u64;
            t.bytes_ingested += payload.len() as u64;
        }
        self.append_audit(
            &ts,
            AuditRecord::Ingress {
                ts_ms: self.now_ms(),
                data: DataRef::UArray(UArrayRef(id.0 as u32)),
            },
        );
        self.telemetry.record_latency(
            tenant.0,
            LatencyKind::IngestToStore,
            self.telemetry.tracer().elapsed_since(ingest_start),
        );
        Ok(InvokeOutput { opaque, len, window: None })
    }

    /// Ingest a watermark on the default tenant.
    pub fn ingress_watermark(&self, wm: Watermark) {
        let _ = self.ingress_watermark_for(TenantId::DEFAULT, wm);
    }

    /// Ingest a watermark (watermarks are control metadata, not protected
    /// data, but they are audited because freshness attestation depends on
    /// them).
    pub fn ingress_watermark_for(
        &self,
        tenant: TenantId,
        wm: Watermark,
    ) -> Result<(), DataPlaneError> {
        WorldTracker::assert_secure("DataPlane::ingress_watermark");
        let ts = self.tenant_state(tenant)?;
        self.append_audit(
            &ts,
            AuditRecord::Ingress {
                ts_ms: self.now_ms(),
                data: DataRef::Watermark(wm.event_time.as_millis() as u32),
            },
        );
        Ok(())
    }

    // ----- the shared primitive entry point ------------------------------

    /// Invoke a primitive on the default tenant.
    pub fn invoke(
        &self,
        op: PrimitiveKind,
        inputs: &[OpaqueRef],
        params: PrimitiveParams,
        hints: &HintSet,
    ) -> Result<Vec<InvokeOutput>, DataPlaneError> {
        self.invoke_for(TenantId::DEFAULT, op, inputs, params, hints)
    }

    /// Execute a trusted primitive over opaque inputs, producing opaque
    /// outputs (the single entry function shared by all 23 primitives).
    /// Inputs resolve only in the calling tenant's reference namespace;
    /// outputs are charged against the tenant's memory quota.
    pub fn invoke_for(
        &self,
        tenant: TenantId,
        op: PrimitiveKind,
        inputs: &[OpaqueRef],
        params: PrimitiveParams,
        hints: &HintSet,
    ) -> Result<Vec<InvokeOutput>, DataPlaneError> {
        WorldTracker::assert_secure("DataPlane::invoke");
        let ts = self.tenant_state(tenant)?;
        // Validate all references before doing any work.
        let mut resolved = Vec::with_capacity(inputs.len());
        for r in inputs {
            resolved.push(self.lookup(&ts, *r)?);
        }
        let input_ids: Vec<UArrayId> = resolved.iter().map(|(id, _)| *id).collect();

        // What the tenant may still commit: the outputs draw on it page by
        // page as they are produced, so an invocation that would overrun the
        // quota stops mid-production with its pages released. (The charge in
        // `commit_outputs` stays the authority: a concurrent invocation of
        // the same tenant may have used the headroom meanwhile.)
        let budget =
            CommitBudget::new(self.alloc.lock().allocator.owner_headroom(tenant.owner_tag()));
        let compute_start = Instant::now();
        let produced = self.execute(op, &resolved, &params, &budget)?;
        let compute_nanos = compute_start.elapsed().as_nanos() as u64;

        // Register outputs: allocator placement (guided by hints) with quota
        // charging, reference minting, audit records. The producer tag
        // identifies the primitive *type*: the Figure 10 baseline policy
        // treats all outputs of the same primitive as one generation and
        // co-locates them.
        let producer_tag = op.code() as u64;
        let committed = self.commit_outputs(tenant, producer_tag, produced, hints)?;
        let mut outputs = Vec::with_capacity(committed.len());
        let mut output_ids = Vec::with_capacity(committed.len());
        let mut memory_nanos = 0;
        for (id, len, window, paging_nanos) in committed {
            memory_nanos += paging_nanos;
            let opaque = ts.lock().refs.mint(id);
            output_ids.push(id);
            outputs.push(InvokeOutput { opaque, len, window });
            if let Some(w) = window {
                self.append_audit(
                    &ts,
                    AuditRecord::Windowing {
                        ts_ms: self.now_ms(),
                        input: UArrayRef(input_ids[0].0 as u32),
                        win_no: w.0 as u16,
                        output: UArrayRef(id.0 as u32),
                    },
                );
            }
        }
        // Windowing is fully described by its Windowing records; everything
        // else gets an Execution record.
        if op != PrimitiveKind::Segment {
            self.append_audit(
                &ts,
                AuditRecord::Execution {
                    ts_ms: self.now_ms(),
                    op,
                    inputs: input_ids.iter().map(|i| UArrayRef(i.0 as u32)).collect(),
                    outputs: output_ids.iter().map(|i| UArrayRef(i.0 as u32)).collect(),
                    hints: hints.iter().map(|h| h.encode()).collect(),
                },
            );
        }
        self.stats.record_invocation(InvocationBreakdown { compute_nanos, memory_nanos });
        Ok(outputs)
    }

    /// Produce one output in place: open a writer reserved for `items`
    /// records, let `fill` run a primitive kernel with the writer as its
    /// sink, then seal it under a freshly minted id. If `fill` fails — the
    /// tenant's budget or the carve-out ran out mid-production — the writer
    /// is dropped unsealed and every page it committed is released.
    fn produce<'a, T: Copy>(
        &'a self,
        budget: &'a CommitBudget,
        items: usize,
        layout: fn(UArray<T>) -> StoredData,
        fill: impl FnOnce(&mut Output<'a, T>) -> Result<(), UArrayError>,
    ) -> Result<StoredData, DataPlaneError> {
        let mut output = Output(UArrayWriter::reserve(items, &self.pager, budget));
        fill(&mut output)?;
        Ok(layout(output.0.seal(self.next_id())))
    }

    /// The primitive dispatch table. Every arm runs its primitive's kernel
    /// with an open uArray writer as the record sink (see
    /// [`produce`](DataPlane::produce)), reserved for the output's exact
    /// size where the inputs determine it and for an upper bound otherwise.
    /// Returns the produced arrays, each with an optional window assignment
    /// (only `Segment` assigns windows).
    fn execute(
        &self,
        op: PrimitiveKind,
        inputs: &[(UArrayId, Arc<StoredData>)],
        params: &PrimitiveParams,
        budget: &CommitBudget,
    ) -> Result<Vec<(StoredData, Option<WindowId>)>, DataPlaneError> {
        let one_events = |n: usize| -> Result<&[Event], DataPlaneError> {
            inputs.get(n).ok_or(DataPlaneError::BadArguments("missing input"))?.1.as_events()
        };
        let all_events = || (0..inputs.len()).map(one_events).collect::<Result<Vec<_>, _>>();
        let events_of = |items, fill: &dyn Fn(&mut Output<Event>) -> Result<(), UArrayError>| {
            self.produce(budget, items, StoredData::Events, fill)
        };
        let scalars_of = |scalars: &[u64]| {
            self.produce(budget, scalars.len(), StoredData::Scalars, |w| {
                w.extend_from_slice(scalars)
            })
        };
        let output = match op {
            PrimitiveKind::Ingress | PrimitiveKind::Egress => {
                return Err(DataPlaneError::BadArguments(
                    "boundary operations are not invokable primitives",
                ))
            }
            PrimitiveKind::Segment => {
                let spec = match params {
                    PrimitiveParams::Window(spec) => *spec,
                    _ => return Err(DataPlaneError::BadArguments("Segment needs a window spec")),
                };
                // The spec's fields come straight from the control plane: a
                // zero size or slide would mean a window per microsecond or
                // an unbounded replication loop inside the TEE.
                if !spec.is_well_formed() {
                    return Err(DataPlaneError::BadArguments("malformed window spec"));
                }
                // Ids are minted once every window is produced, in window
                // order, whatever order the batch's events met them in.
                let mut open = Vec::new();
                prim::segment_into(one_events(0)?, &spec, &mut open, |at_most| {
                    Output(UArrayWriter::reserve(at_most, &self.pager, budget))
                })?;
                return Ok(open
                    .into_iter()
                    .map(|(win, w)| (StoredData::Events(w.0.seal(self.next_id())), Some(win)))
                    .collect());
            }
            PrimitiveKind::Sort => {
                let events = one_events(0)?;
                events_of(events.len(), &|w| prim::sort_events_into(events, |e| e.key, w))?
            }
            PrimitiveKind::SortByValue => {
                let events = one_events(0)?;
                events_of(events.len(), &|w| prim::sort_events_into(events, |e| e.value, w))?
            }
            PrimitiveKind::SortByTime => {
                let events = one_events(0)?;
                events_of(events.len(), &|w| prim::sort_events_into(events, |e| e.ts_ms, w))?
            }
            PrimitiveKind::Merge | PrimitiveKind::Union => {
                let (a, b) = (one_events(0)?, one_events(1)?);
                events_of(a.len() + b.len(), &|w| prim::merge_sorted_by_key_into(a, b, w))?
            }
            PrimitiveKind::MergeK => {
                one_events(0)?;
                let runs = all_events()?;
                let total = runs.iter().map(|r| r.len()).sum();
                events_of(total, &|w| prim::merge_runs_by_key_into(&runs, w))?
            }
            PrimitiveKind::Concat => {
                let parts = all_events()?;
                let total = parts.iter().map(|p| p.len()).sum();
                events_of(total, &|w| prim::concat_events_into(&parts, w))?
            }
            PrimitiveKind::SumCnt | PrimitiveKind::AveragePerKey => {
                let events = one_events(0)?;
                self.produce(budget, prim::key_runs(events), StoredData::Aggs, |w| {
                    prim::sum_count_per_key_into(events, w)
                })?
            }
            PrimitiveKind::CountPerKey => {
                let events = one_events(0)?;
                self.produce(budget, prim::key_runs(events), StoredData::Pairs, |w| {
                    prim::count_per_key_into(events, w)
                })?
            }
            PrimitiveKind::MedianPerKey => {
                let events = one_events(0)?;
                self.produce(budget, prim::key_runs(events), StoredData::Pairs, |w| {
                    prim::median_per_key_into(events, w)
                })?
            }
            PrimitiveKind::Unique => {
                let events = one_events(0)?;
                self.produce(budget, prim::key_runs(events), StoredData::Scalars, |w| {
                    prim::unique_keys_into(events, w)
                })?
            }
            PrimitiveKind::Sum => scalars_of(&[prim::sum(one_events(0)?)])?,
            PrimitiveKind::Count => scalars_of(&[prim::count(one_events(0)?)])?,
            PrimitiveKind::Average => scalars_of(&[prim::average(one_events(0)?)])?,
            PrimitiveKind::Median => {
                scalars_of(&[prim::median(one_events(0)?).unwrap_or(0) as u64])?
            }
            PrimitiveKind::MinMax => {
                let (lo, hi) = prim::min_max(one_events(0)?).unwrap_or((0, 0));
                scalars_of(&[lo as u64, hi as u64])?
            }
            PrimitiveKind::TopK => {
                let k = match params {
                    PrimitiveParams::K(k) => *k,
                    _ => return Err(DataPlaneError::BadArguments("TopK needs K")),
                };
                let events = one_events(0)?;
                self.produce(budget, events.len().min(k), StoredData::Scalars, |w| {
                    prim::top_k_by_value_into(events, k, w)
                })?
            }
            PrimitiveKind::TopKPerKey => {
                let k = match params {
                    PrimitiveParams::K(k) => *k,
                    _ => return Err(DataPlaneError::BadArguments("TopKPerKey needs K")),
                };
                let events = one_events(0)?;
                self.produce(budget, prim::top_k_per_key_len(events, k), StoredData::Pairs, |w| {
                    prim::top_k_per_key_into(events, k, w)
                })?
            }
            PrimitiveKind::FilterBand => {
                let (lo, hi) = match params {
                    PrimitiveParams::Band { lo, hi } => (*lo, *hi),
                    _ => return Err(DataPlaneError::BadArguments("FilterBand needs a band")),
                };
                let events = one_events(0)?;
                let mut kept = RecordCount::default();
                infallible(prim::filter_band_into(events, lo, hi, &mut kept));
                events_of(kept.0, &|w| prim::filter_band_into(events, lo, hi, w))?
            }
            PrimitiveKind::FilterTime => {
                let (start, end) = match params {
                    PrimitiveParams::TimeRange { start, end } => (*start, *end),
                    _ => return Err(DataPlaneError::BadArguments("FilterTime needs a range")),
                };
                let events = one_events(0)?;
                let mut kept = RecordCount::default();
                infallible(prim::filter_time_into(events, start, end, &mut kept));
                events_of(kept.0, &|w| prim::filter_time_into(events, start, end, w))?
            }
            PrimitiveKind::Project => {
                let events = one_events(0)?;
                self.produce(budget, events.len(), StoredData::Scalars, |w| {
                    prim::project_keys_into(events, w)
                })?
            }
            PrimitiveKind::Sample => {
                let every = match params {
                    PrimitiveParams::Every(n) => *n,
                    _ => return Err(DataPlaneError::BadArguments("Sample needs a period")),
                };
                let events = one_events(0)?;
                events_of(events.len().div_ceil(every.max(1)), &|w| {
                    prim::sample_every_into(events, every, w)
                })?
            }
            PrimitiveKind::Join => {
                let (left, right) = (one_events(0)?, one_events(1)?);
                // Counted first: the result can be many times its inputs and
                // must be reserved exactly so it never relocates.
                self.produce(budget, prim::join_len(left, right), StoredData::Pairs, |w| {
                    prim::join_by_key_into(left, right, w)
                })?
            }
        };
        Ok(vec![(output, None)])
    }

    // ----- egress and retirement -----------------------------------------

    /// Externalize a result of the default tenant.
    pub fn egress(&self, r: OpaqueRef) -> Result<EgressMessage, DataPlaneError> {
        self.egress_for(TenantId::DEFAULT, r)
    }

    /// Externalize a result: encrypt, sign, audit, flush the audit log. The
    /// reference must belong to the calling tenant; egress sequence numbers
    /// are per tenant, so each tenant's result stream is independently
    /// replay-protected.
    pub fn egress_for(
        &self,
        tenant: TenantId,
        r: OpaqueRef,
    ) -> Result<EgressMessage, DataPlaneError> {
        WorldTracker::assert_secure("DataPlane::egress");
        let ts = self.tenant_state(tenant)?;
        // A forged or cross-tenant reference fails here, before a sequence
        // number is spent or any seal task exists.
        let (id, data) = self.lookup(&ts, r)?;
        let (seq, keys) = {
            let mut t = ts.lock();
            let s = t.egress_seq;
            t.egress_seq += 1;
            (s, t.keys.clone())
        };
        let pool = self.ingest_pool.read().clone();
        let msg = self.sealer.seal_egress(
            seq,
            data,
            &keys,
            pool.as_deref(),
            self.telemetry.tracer(),
            tenant.0,
        );
        self.stats.record_egress();
        self.append_audit(
            &ts,
            AuditRecord::Egress { ts_ms: self.now_ms(), data: UArrayRef(id.0 as u32) },
        );
        // Flush audit records on externalization, as the paper requires.
        let mut t = ts.lock();
        if let Some(segment) = t.audit.flush() {
            t.segments.push(segment);
        }
        Ok(msg)
    }

    /// Retire a reference of the default tenant.
    pub fn retire(&self, r: OpaqueRef) -> Result<(), DataPlaneError> {
        self.retire_for(TenantId::DEFAULT, r)
    }

    /// Retire a reference: the control plane will not consume it again. The
    /// uArray becomes reclaimable; memory is released in uGroup order and
    /// un-charged from the tenant's quota.
    pub fn retire_for(&self, tenant: TenantId, r: OpaqueRef) -> Result<(), DataPlaneError> {
        WorldTracker::assert_secure("DataPlane::retire");
        let ts = self.tenant_state(tenant)?;
        let id = ts.lock().refs.revoke(r)?;
        let reclaimed: Vec<(UArrayId, u64)> = {
            let mut alloc = self.alloc.lock();
            let committed = alloc.committed.get(&id).copied().unwrap_or(0);
            alloc.allocator.update(id, UArrayState::Retired, committed);
            let ids = alloc.allocator.reclaim();
            ids.into_iter()
                .map(|rid| {
                    let bytes = alloc.committed.remove(&rid).unwrap_or(0);
                    (rid, bytes)
                })
                .collect()
        };
        if !reclaimed.is_empty() {
            let mut store = self.store.write();
            for (rid, bytes) in reclaimed {
                store.remove(&rid);
                self.pager.release_pages(bytes / PAGE_SIZE);
            }
        }
        Ok(())
    }

    /// The default tenant's current cloud-side keys (what the cloud consumer
    /// of a single-pipeline deployment holds). Multi-tenant consumers use
    /// [`verifier_keys`](DataPlane::verifier_keys) instead.
    pub fn cloud_keys(&self) -> (Key128, Nonce, SigningKey) {
        let ts = self.tenant_state(TenantId::DEFAULT).expect("default tenant always registered");
        let t = ts.lock();
        (t.keys.cloud_key, t.keys.cloud_nonce, t.keys.signing.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::WindowManifest;
    use sbt_types::Duration;
    use sbt_types::WindowSpec;
    use sbt_tz::World;
    use sbt_tz::WorldGuard;

    fn plane() -> Arc<DataPlane> {
        DataPlane::new(Platform::hikey(), DataPlaneConfig::default())
    }

    /// Run a closure "in the secure world" as the SMC layer would.
    fn in_tee<R>(f: impl FnOnce() -> R) -> R {
        let _g = WorldGuard::enter(World::Secure);
        f()
    }

    fn ingest_events(dp: &DataPlane, events: &[Event]) -> InvokeOutput {
        let bytes = Event::slice_to_bytes(events);
        in_tee(|| dp.ingress(&bytes, false, false, 0)).unwrap()
    }

    fn ingest_events_for(dp: &DataPlane, tenant: TenantId, events: &[Event]) -> InvokeOutput {
        let bytes = Event::slice_to_bytes(events);
        in_tee(|| dp.ingress_for(tenant, &bytes, false, false, 0)).unwrap()
    }

    #[test]
    fn ingress_creates_opaque_reference() {
        let dp = plane();
        let events: Vec<Event> = (0..100).map(|i| Event::new(i, i * 2, i * 10)).collect();
        let out = ingest_events(&dp, &events);
        assert_eq!(out.len, 100);
        assert_eq!(dp.live_refs(), 1);
        assert_eq!(dp.stats().snapshot().events_ingested, 100);
        assert!(dp.memory_report().committed_bytes > 0);
    }

    #[test]
    fn encrypted_ingress_decrypts_with_source_key() {
        let dp = plane();
        let events: Vec<Event> = (0..50).map(|i| Event::new(i, i, i)).collect();
        let mut payload = Event::slice_to_bytes(&events);
        // The source provisions the default tenant's epoch-0 derived keys.
        let ks = MasterSecret::demo().tenant_keys(TenantId::DEFAULT.0, 0);
        AesCtr::new(&ks.source_key, &ks.source_nonce).apply_keystream_at(&mut payload, 0);
        let out = in_tee(|| dp.ingress(&payload, true, false, 0)).unwrap();
        assert_eq!(out.len, 50);
        // Sorting the ingested array gives back the events (proves the
        // decryption produced real data, not garbage).
        let sorted = in_tee(|| {
            dp.invoke(PrimitiveKind::Sort, &[out.opaque], PrimitiveParams::None, &HintSet::none())
        })
        .unwrap();
        assert_eq!(sorted[0].len, 50);
        assert!(dp.stats().snapshot().decrypt_nanos > 0);
    }

    #[test]
    fn power_ingress_projects_to_generic_layout() {
        let dp = plane();
        let events: Vec<PowerEvent> =
            (0..10).map(|i| PowerEvent::new(100 + i, i, i / 2, i * 5)).collect();
        let bytes = PowerEvent::slice_to_bytes(&events);
        let out = in_tee(|| dp.ingress(&bytes, false, true, 0)).unwrap();
        assert_eq!(out.len, 10);
    }

    #[test]
    fn malformed_ingress_is_rejected() {
        let dp = plane();
        let err = in_tee(|| dp.ingress(&[1, 2, 3], false, false, 0)).unwrap_err();
        assert_eq!(err, DataPlaneError::BadIngress("payload not a whole event"));
    }

    #[test]
    fn fabricated_reference_is_rejected() {
        let dp = plane();
        let err = in_tee(|| {
            dp.invoke(
                PrimitiveKind::Sort,
                &[OpaqueRef(0xBAD)],
                PrimitiveParams::None,
                &HintSet::none(),
            )
        })
        .unwrap_err();
        assert_eq!(err, DataPlaneError::InvalidReference);
        assert!(in_tee(|| dp.egress(OpaqueRef(0xBAD))).is_err());
        assert!(in_tee(|| dp.retire(OpaqueRef(0xBAD))).is_err());
    }

    #[test]
    #[should_panic(expected = "secure-world code reached")]
    fn normal_world_cannot_call_the_data_plane_directly() {
        let dp = plane();
        // No WorldGuard: this models a control-plane thread trying to call
        // into data-plane code without going through the SMC interface.
        let _ = dp.ingress(&[], false, false, 0);
    }

    #[test]
    fn groupby_chain_computes_correct_aggregates() {
        let dp = plane();
        let events = vec![
            Event::new(2, 10, 100),
            Event::new(1, 5, 200),
            Event::new(2, 20, 300),
            Event::new(1, 15, 400),
        ];
        let ingested = ingest_events(&dp, &events);
        let sorted = in_tee(|| {
            dp.invoke(
                PrimitiveKind::Sort,
                &[ingested.opaque],
                PrimitiveParams::None,
                &HintSet::none(),
            )
        })
        .unwrap();
        let aggs = in_tee(|| {
            dp.invoke(
                PrimitiveKind::SumCnt,
                &[sorted[0].opaque],
                PrimitiveParams::None,
                &HintSet::none(),
            )
        })
        .unwrap();
        assert_eq!(aggs[0].len, 2);
        // Egress and decrypt on the "cloud side" to check the values.
        let msg = in_tee(|| dp.egress(aggs[0].opaque)).unwrap();
        let (key, nonce, signing) = dp.cloud_keys();
        let plain = msg.open(&key, &nonce, &signing).unwrap();
        // KeyAgg wire layout: key(4) sum(8) count(8) per record.
        assert_eq!(plain.len(), 2 * 20);
        let key1 = u32::from_le_bytes(plain[0..4].try_into().unwrap());
        let sum1 = u64::from_le_bytes(plain[4..12].try_into().unwrap());
        assert_eq!(key1, 1);
        assert_eq!(sum1, 20);
    }

    #[test]
    fn segment_assigns_windows_and_emits_windowing_records() {
        let dp = plane();
        let events = vec![Event::new(1, 1, 100), Event::new(2, 2, 1100), Event::new(3, 3, 2100)];
        let ingested = ingest_events(&dp, &events);
        let spec = WindowSpec::fixed(Duration::from_secs(1));
        let outs = in_tee(|| {
            dp.invoke(
                PrimitiveKind::Segment,
                &[ingested.opaque],
                PrimitiveParams::Window(spec),
                &HintSet::none(),
            )
        })
        .unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].window, Some(WindowId(0)));
        assert_eq!(outs[2].window, Some(WindowId(2)));
        // Audit log contains ingress + 3 windowing records.
        let segments = dp.drain_audit_segments();
        let records: Vec<AuditRecord> = segments
            .iter()
            .flat_map(|s| sbt_attest::decompress_records(&s.compressed).unwrap())
            .collect();
        let windowing =
            records.iter().filter(|r| matches!(r, AuditRecord::Windowing { .. })).count();
        assert_eq!(windowing, 3);
    }

    #[test]
    fn retire_reclaims_memory() {
        let dp = plane();
        let events: Vec<Event> = (0..50_000).map(|i| Event::new(i, i, i % 1000)).collect();
        let ingested = ingest_events(&dp, &events);
        let before = dp.memory_report().committed_bytes;
        assert!(before > 0);
        in_tee(|| dp.retire(ingested.opaque)).unwrap();
        let after = dp.memory_report().committed_bytes;
        assert_eq!(after, 0);
        assert_eq!(dp.live_refs(), 0);
        // The reference is dead: further use is rejected.
        assert!(in_tee(|| dp.egress(ingested.opaque)).is_err());
    }

    #[test]
    fn wrong_arity_or_params_are_rejected() {
        let dp = plane();
        let ingested = ingest_events(&dp, &[Event::new(1, 1, 1)]);
        // Merge needs two inputs.
        assert!(matches!(
            in_tee(|| dp.invoke(
                PrimitiveKind::Merge,
                &[ingested.opaque],
                PrimitiveParams::None,
                &HintSet::none()
            )),
            Err(DataPlaneError::BadArguments(_))
        ));
        // TopK needs K.
        assert!(matches!(
            in_tee(|| dp.invoke(
                PrimitiveKind::TopK,
                &[ingested.opaque],
                PrimitiveParams::None,
                &HintSet::none()
            )),
            Err(DataPlaneError::BadArguments(_))
        ));
        // Boundary ops are not invokable.
        assert!(matches!(
            in_tee(|| dp.invoke(
                PrimitiveKind::Ingress,
                &[ingested.opaque],
                PrimitiveParams::None,
                &HintSet::none()
            )),
            Err(DataPlaneError::BadArguments(_))
        ));
    }

    #[test]
    fn hints_guide_allocator_placement() {
        let dp = plane();
        let a = ingest_events(&dp, &(0..100).map(|i| Event::new(i, i, 0)).collect::<Vec<_>>());
        // Sort with a consumed-in-parallel hint: output goes to its own group.
        let groups_before = dp.memory_report().live_groups;
        let _sorted = in_tee(|| {
            dp.invoke(
                PrimitiveKind::Sort,
                &[a.opaque],
                PrimitiveParams::None,
                &HintSet::consumed_in_parallel(1),
            )
        })
        .unwrap();
        assert!(dp.memory_report().live_groups > groups_before);
    }

    #[test]
    fn audit_stream_verifies_for_a_full_pipeline_run() {
        use sbt_attest::{PipelineSpec, Verifier};
        let dp = plane();
        // window 0 events then a watermark at 1s.
        let events: Vec<Event> = (0..1000).map(|i| Event::new(i % 7, i, i % 1000)).collect();
        let ingested = ingest_events(&dp, &events);
        let spec = WindowSpec::fixed(Duration::from_secs(1));
        let windows = in_tee(|| {
            dp.invoke(
                PrimitiveKind::Segment,
                &[ingested.opaque],
                PrimitiveParams::Window(spec),
                &HintSet::none(),
            )
        })
        .unwrap();
        in_tee(|| dp.ingress_watermark(Watermark::from_secs(1)));
        let sorted = in_tee(|| {
            dp.invoke(
                PrimitiveKind::Sort,
                &[windows[0].opaque],
                PrimitiveParams::None,
                &HintSet::none(),
            )
        })
        .unwrap();
        let aggs = in_tee(|| {
            dp.invoke(
                PrimitiveKind::SumCnt,
                &[sorted[0].opaque],
                PrimitiveParams::None,
                &HintSet::none(),
            )
        })
        .unwrap();
        in_tee(|| dp.egress(aggs[0].opaque)).unwrap();

        let records: Vec<AuditRecord> = dp
            .drain_audit_segments()
            .iter()
            .flat_map(|s| sbt_attest::decompress_records(&s.compressed).unwrap())
            .collect();
        let verifier = Verifier::new(PipelineSpec::new(
            "groupby-sum",
            vec![PrimitiveKind::Sort, PrimitiveKind::SumCnt],
            10_000,
        ));
        let report = verifier.replay(&records);
        assert!(report.is_correct(), "violations: {:?}", report.violations);
        assert_eq!(report.egressed, 1);
    }

    #[test]
    fn concurrent_invocations_from_many_threads() {
        let dp = plane();
        let refs: Vec<OpaqueRef> = (0..8)
            .map(|t| {
                ingest_events(
                    &dp,
                    &(0..5_000).map(|i| Event::new(i % 100, i + t, 0)).collect::<Vec<_>>(),
                )
                .opaque
            })
            .collect();
        let mut handles = Vec::new();
        for r in refs {
            let dp = dp.clone();
            handles.push(std::thread::spawn(move || {
                let sorted = in_tee(|| {
                    dp.invoke(PrimitiveKind::Sort, &[r], PrimitiveParams::None, &HintSet::none())
                })
                .unwrap();
                let aggs = in_tee(|| {
                    dp.invoke(
                        PrimitiveKind::SumCnt,
                        &[sorted[0].opaque],
                        PrimitiveParams::None,
                        &HintSet::none(),
                    )
                })
                .unwrap();
                aggs[0].len
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 100);
        }
        assert_eq!(dp.stats().snapshot().invocations, 16);
    }

    // ----- multi-tenant behaviour ----------------------------------------

    #[test]
    fn tenants_register_once_and_list_in_order() {
        let dp = plane();
        dp.register_tenant(TenantId(2), Some(1 << 20)).unwrap();
        dp.register_tenant(TenantId(1), None).unwrap();
        assert_eq!(dp.tenants(), vec![TenantId::DEFAULT, TenantId(1), TenantId(2)]);
        assert!(dp.register_tenant(TenantId(1), None).is_err());
        let mem = dp.tenant_memory(TenantId(2)).unwrap();
        assert_eq!(mem.quota_bytes, Some(1 << 20));
        assert_eq!(mem.used_bytes, 0);
    }

    #[test]
    fn unknown_tenants_are_rejected() {
        let dp = plane();
        let err = in_tee(|| dp.ingress_for(TenantId(9), &[], false, false, 0)).unwrap_err();
        assert_eq!(err, DataPlaneError::UnknownTenant);
        assert_eq!(dp.tenant_memory(TenantId(9)), Err(DataPlaneError::UnknownTenant));
        assert!(dp.drain_audit_segments_for(TenantId(9)).is_err());
    }

    #[test]
    fn cross_tenant_references_do_not_resolve() {
        let dp = plane();
        dp.register_tenant(TenantId(1), None).unwrap();
        dp.register_tenant(TenantId(2), None).unwrap();
        let events: Vec<Event> = (0..10).map(|i| Event::new(i, i, 0)).collect();
        let a = ingest_events_for(&dp, TenantId(1), &events);
        // Tenant 2 cannot invoke, egress or retire tenant 1's reference,
        // even knowing its exact value.
        let err = in_tee(|| {
            dp.invoke_for(
                TenantId(2),
                PrimitiveKind::Sort,
                &[a.opaque],
                PrimitiveParams::None,
                &HintSet::none(),
            )
        })
        .unwrap_err();
        assert_eq!(err, DataPlaneError::InvalidReference);
        assert!(in_tee(|| dp.egress_for(TenantId(2), a.opaque)).is_err());
        assert!(in_tee(|| dp.retire_for(TenantId(2), a.opaque)).is_err());
        // The rightful owner still can.
        assert!(in_tee(|| dp.egress_for(TenantId(1), a.opaque)).is_ok());
    }

    #[test]
    fn tenant_audit_trails_are_separate_and_tagged() {
        let dp = plane();
        dp.register_tenant(TenantId(1), None).unwrap();
        dp.register_tenant(TenantId(2), None).unwrap();
        let events: Vec<Event> = (0..5).map(|i| Event::new(i, i, 0)).collect();
        let a = ingest_events_for(&dp, TenantId(1), &events);
        in_tee(|| dp.egress_for(TenantId(1), a.opaque)).unwrap();
        let b = ingest_events_for(&dp, TenantId(2), &events);
        in_tee(|| dp.egress_for(TenantId(2), b.opaque)).unwrap();

        let keys1 = dp.verifier_keys(TenantId(1)).unwrap();
        let keys2 = dp.verifier_keys(TenantId(2)).unwrap();
        let seg1 = dp.drain_audit_segments_for(TenantId(1)).unwrap();
        let seg2 = dp.drain_audit_segments_for(TenantId(2)).unwrap();
        assert!(seg1.iter().all(|s| s.tenant == TenantId(1)));
        assert!(seg2.iter().all(|s| s.tenant == TenantId(2)));
        let r1 = sbt_attest::verify_tenant_trail(&seg1, TenantId(1), &keys1).unwrap();
        let r2 = sbt_attest::verify_tenant_trail(&seg2, TenantId(2), &keys2).unwrap();
        // Each trail holds exactly its own tenant's ingress + egress.
        assert_eq!(r1.len(), 2);
        assert_eq!(r2.len(), 2);
        // A trail cannot be passed off as the other tenant's: the other
        // tenant's keychain never vouches for it.
        assert!(sbt_attest::verify_tenant_trail(&seg1, TenantId(2), &keys2).is_err());
    }

    #[test]
    fn quota_rejects_the_exceeding_tenant_only() {
        let dp = plane();
        // Tenant 1 gets a 16 KiB quota; tenant 2 is unconstrained.
        dp.register_tenant(TenantId(1), Some(16 * 1024)).unwrap();
        dp.register_tenant(TenantId(2), None).unwrap();
        let big: Vec<Event> = (0..2_000).map(|i| Event::new(i, i, 0)).collect(); // ~24 KB
        let small: Vec<Event> = (0..100).map(|i| Event::new(i, i, 0)).collect();
        let bytes = Event::slice_to_bytes(&big);
        let err = in_tee(|| dp.ingress_for(TenantId(1), &bytes, false, false, 0)).unwrap_err();
        assert_eq!(err, DataPlaneError::QuotaExceeded);
        // The rejected batch is not counted as ingested.
        assert_eq!(dp.tenant_ingest(TenantId(1)).unwrap(), (0, 0));
        // Tenant 1 can still ingest within its quota...
        let a = ingest_events_for(&dp, TenantId(1), &small);
        // ...and tenant 2 is completely unaffected.
        let b = ingest_events_for(&dp, TenantId(2), &big);
        assert_eq!(a.len, 100);
        assert_eq!(b.len, 2_000);
        let m1 = dp.tenant_memory(TenantId(1)).unwrap();
        assert!(m1.used_bytes > 0 && m1.used_bytes <= 16 * 1024);
        // Retiring releases the quota.
        in_tee(|| dp.retire_for(TenantId(1), a.opaque)).unwrap();
        assert_eq!(dp.tenant_memory(TenantId(1)).unwrap().used_bytes, 0);
    }

    /// What a failed invocation must leave exactly as it found it.
    fn footprint(dp: &DataPlane, tenant: TenantId) -> (u64, u64, usize, u64) {
        (
            dp.platform().secure_mem().in_use(),
            dp.tenant_memory(tenant).unwrap().used_bytes,
            dp.live_refs_for(tenant),
            dp.stats().snapshot().audit_records,
        )
    }

    #[test]
    fn quota_rejection_of_invoke_outputs_releases_pages() {
        let dp = plane();
        // Quota fits the ingested array but not a sorted copy of it.
        dp.register_tenant(TenantId(1), Some(8 * 4096)).unwrap();
        let events: Vec<Event> = (0..2_000).map(|i| Event::new(i % 50, i, 0)).collect();
        let a = ingest_events_for(&dp, TenantId(1), &events); // ~6 pages
        let before = footprint(&dp, TenantId(1));
        dp.platform().secure_mem().reset_high_water();
        let err = in_tee(|| {
            dp.invoke_for(
                TenantId(1),
                PrimitiveKind::Sort,
                &[a.opaque],
                PrimitiveParams::None,
                &HintSet::none(),
            )
        })
        .unwrap_err();
        assert_eq!(err, DataPlaneError::QuotaExceeded);
        // The limit fell inside the output: production stopped at the page
        // that crossed it (two pages of headroom, not the six the sorted
        // copy needs), and the transiently committed pages were released.
        assert_eq!(dp.platform().secure_mem().high_water(), before.0 + 2 * 4096);
        assert_eq!(footprint(&dp, TenantId(1)), before);
        // The input is still usable.
        assert!(in_tee(|| dp.egress_for(TenantId(1), a.opaque)).is_ok());
    }

    #[test]
    fn a_quota_trip_inside_a_multi_window_segment_releases_every_window() {
        let dp = plane();
        // 3 000 events over three windows: the batch takes 9 pages, its
        // three per-window copies 3 pages each. 15 pages of quota leave
        // room for two of the three.
        dp.register_tenant(TenantId(1), Some(15 * 4096)).unwrap();
        let events: Vec<Event> = (0..3_000).map(|i| Event::new(i, i, i)).collect();
        let a = ingest_events_for(&dp, TenantId(1), &events);
        let before = footprint(&dp, TenantId(1));
        dp.platform().secure_mem().reset_high_water();
        let err = in_tee(|| {
            dp.invoke_for(
                TenantId(1),
                PrimitiveKind::Segment,
                &[a.opaque],
                PrimitiveParams::one_second_windows(),
                &HintSet::none(),
            )
        })
        .unwrap_err();
        assert_eq!(err, DataPlaneError::QuotaExceeded);
        // Two windows were fully produced and the third begun when the
        // budget ran out; all of them went back.
        assert_eq!(dp.platform().secure_mem().high_water(), before.0 + 6 * 4096);
        assert_eq!(footprint(&dp, TenantId(1)), before);
        // With room for all three the same call succeeds.
        dp.set_tenant_quota(TenantId(1), Some(18 * 4096)).unwrap();
        let outs = in_tee(|| {
            dp.invoke_for(
                TenantId(1),
                PrimitiveKind::Segment,
                &[a.opaque],
                PrimitiveParams::one_second_windows(),
                &HintSet::none(),
            )
        })
        .unwrap();
        assert_eq!(outs.iter().map(|o| o.len).collect::<Vec<_>>(), vec![1_000; 3]);
    }

    #[test]
    fn a_quota_trip_inside_a_join_result_releases_it() {
        let dp = plane();
        dp.register_tenant(TenantId(1), Some(16 * 4096)).unwrap();
        // One key on both sides: 200 x 200 = 40 000 joined rows (157 pages)
        // from two one-page inputs.
        let side: Vec<Event> = (0..200).map(|i| Event::new(7, i, 0)).collect();
        let l = ingest_events_for(&dp, TenantId(1), &side);
        let r = ingest_events_for(&dp, TenantId(1), &side);
        let before = footprint(&dp, TenantId(1));
        dp.platform().secure_mem().reset_high_water();
        let err = in_tee(|| {
            dp.invoke_for(
                TenantId(1),
                PrimitiveKind::Join,
                &[l.opaque, r.opaque],
                PrimitiveParams::None,
                &HintSet::none(),
            )
        })
        .unwrap_err();
        assert_eq!(err, DataPlaneError::QuotaExceeded);
        // 14 pages of headroom were produced into, then handed back.
        assert_eq!(dp.platform().secure_mem().high_water(), before.0 + 14 * 4096);
        assert_eq!(footprint(&dp, TenantId(1)), before);
        assert!(in_tee(|| dp.egress_for(TenantId(1), l.opaque)).is_ok());
    }

    #[test]
    fn secure_memory_exhaustion_mid_production_is_fail_closed() {
        // No tenant quota at all: the carve-out itself (16 pages) runs out
        // inside the second window of a segment.
        let platform = Platform::new(sbt_tz::PlatformConfig {
            secure_mem_bytes: 16 * 4096,
            ..sbt_tz::PlatformConfig::default()
        });
        let dp = DataPlane::new(platform, DataPlaneConfig::default());
        let events: Vec<Event> = (0..3_000).map(|i| Event::new(i, i, i)).collect();
        let a = ingest_events(&dp, &events); // 9 pages
        let before = footprint(&dp, TenantId::DEFAULT);
        let err = in_tee(|| {
            dp.invoke(
                PrimitiveKind::Segment,
                &[a.opaque],
                PrimitiveParams::one_second_windows(),
                &HintSet::none(),
            )
        })
        .unwrap_err();
        assert_eq!(err, DataPlaneError::OutOfSecureMemory);
        assert_eq!(footprint(&dp, TenantId::DEFAULT), before);
    }

    #[test]
    fn hostile_window_specs_are_rejected_before_any_work() {
        let dp = plane();
        dp.register_tenant(TenantId(1), None).unwrap();
        let events: Vec<Event> = (0..100).map(|i| Event::new(i, i, 1_000 + i)).collect();
        let a = ingest_events_for(&dp, TenantId(1), &events);
        let before = footprint(&dp, TenantId(1));
        let us = Duration::from_micros;
        for spec in [
            // One window (and one page-rounded uArray) per microsecond.
            WindowSpec::Fixed { size: us(0) },
            // `size - 1` underflow; in release, a million windows per event.
            WindowSpec::Sliding { size: us(0), slide: us(1) },
            WindowSpec::Sliding { size: us(1_000), slide: us(0) },
            WindowSpec::Sliding { size: us(1_000), slide: us(1_001) },
        ] {
            let err = in_tee(|| {
                dp.invoke_for(
                    TenantId(1),
                    PrimitiveKind::Segment,
                    &[a.opaque],
                    PrimitiveParams::Window(spec),
                    &HintSet::none(),
                )
            })
            .unwrap_err();
            assert_eq!(err, DataPlaneError::BadArguments("malformed window spec"), "{spec:?}");
            assert_eq!(footprint(&dp, TenantId(1)), before, "{spec:?}");
        }
        // The batch itself was fine.
        let outs = in_tee(|| {
            dp.invoke_for(
                TenantId(1),
                PrimitiveKind::Segment,
                &[a.opaque],
                PrimitiveParams::Window(WindowSpec::sliding(us(2_000_000), us(1_000_000))),
                &HintSet::none(),
            )
        })
        .unwrap();
        assert_eq!(outs.iter().map(|o| o.window.unwrap().0).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn tenant_egress_seals_under_its_own_derived_keys() {
        let dp = plane();
        dp.register_tenant(TenantId(1), None).unwrap();
        dp.register_tenant(TenantId(2), None).unwrap();
        let events: Vec<Event> = (0..4).map(|i| Event::new(i, i, 0)).collect();
        let a = ingest_events_for(&dp, TenantId(1), &events);
        let msg = in_tee(|| dp.egress_for(TenantId(1), a.opaque)).unwrap();
        // Opens under tenant 1's keychain, not under tenant 2's or the
        // platform default tenant's keys.
        let k1 = dp.verifier_keys(TenantId(1)).unwrap();
        let k2 = dp.verifier_keys(TenantId(2)).unwrap();
        assert_eq!(msg.open_with(k1.latest()).unwrap(), Event::slice_to_bytes(&events));
        assert!(msg.open_with(k2.latest()).is_none());
        let (key, nonce, signing) = dp.cloud_keys();
        assert!(msg.open(&key, &nonce, &signing).is_none());
        // Trial decryption over the keychain finds the right epoch.
        assert!(msg.open_any(&k1).is_some());
    }

    #[test]
    fn rekey_rotates_only_the_target_tenant() {
        let dp = plane();
        dp.register_tenant(TenantId(1), None).unwrap();
        dp.register_tenant(TenantId(2), None).unwrap();
        let events: Vec<Event> = (0..4).map(|i| Event::new(i, i, 0)).collect();
        let a0 = ingest_events_for(&dp, TenantId(1), &events);
        let m0 = in_tee(|| dp.egress_for(TenantId(1), a0.opaque)).unwrap();
        assert_eq!(dp.rekey_tenant(TenantId(1)).unwrap(), 1);
        assert_eq!(dp.tenant_epoch(TenantId(1)).unwrap(), 1);
        assert_eq!(dp.tenant_epoch(TenantId(2)).unwrap(), 0, "neighbour undisturbed");
        let a1 = ingest_events_for(&dp, TenantId(1), &events);
        let m1 = in_tee(|| dp.egress_for(TenantId(1), a1.opaque)).unwrap();

        let chain = dp.verifier_keys(TenantId(1)).unwrap();
        assert_eq!(chain.epoch_count(), 2);
        // Pre-rekey result opens under epoch 0, post-rekey under epoch 1.
        assert!(m0.open_with(chain.epoch(0).unwrap()).is_some());
        assert!(m0.open_with(chain.epoch(1).unwrap()).is_none());
        assert!(m1.open_with(chain.epoch(1).unwrap()).is_some());
        assert!(m1.open_with(chain.epoch(0).unwrap()).is_none());

        // The trail spans both epochs, carries the rekey record, and
        // verifies only under the full keychain.
        let segs = dp.drain_audit_segments_for(TenantId(1)).unwrap();
        assert!(segs.iter().any(|s| s.epoch == 0) && segs.iter().any(|s| s.epoch == 1));
        let records = sbt_attest::verify_tenant_trail(&segs, TenantId(1), &chain).unwrap();
        assert!(records.iter().any(|r| matches!(r, AuditRecord::Rekey { epoch: 1, .. })));
        let epoch0_only = DataPlaneConfig::default().master.keychain(1, 0);
        assert!(sbt_attest::verify_tenant_trail(&segs, TenantId(1), &epoch0_only).is_err());
    }

    #[test]
    fn rekeyed_tenant_decrypts_only_current_epoch_ingress() {
        let dp = plane();
        dp.register_tenant(TenantId(1), None).unwrap();
        dp.rekey_tenant(TenantId(1)).unwrap();
        let events: Vec<Event> = (0..16).map(|i| Event::new(i, i, 0)).collect();
        let master = MasterSecret::demo();
        // Encrypted under the stale epoch-0 key: decrypts to garbage and is
        // rejected as unparseable (16 events x 12 B misaligns to nothing,
        // but values would be garbage regardless — use a length that stays
        // aligned to prove rejection isn't just a length check).
        let stale = master.tenant_keys(1, 0);
        let mut payload = Event::slice_to_bytes(&events);
        AesCtr::new(&stale.source_key, &stale.source_nonce).apply_keystream_at(&mut payload, 0);
        let out = in_tee(|| dp.ingress_for(TenantId(1), &payload, true, false, 0)).unwrap();
        let sorted = in_tee(|| {
            dp.invoke_for(
                TenantId(1),
                PrimitiveKind::Sort,
                &[out.opaque],
                PrimitiveParams::None,
                &HintSet::none(),
            )
        })
        .unwrap();
        // Garbage in, garbage out: the decrypted events do not match.
        let msg = in_tee(|| dp.egress_for(TenantId(1), sorted[0].opaque)).unwrap();
        let chain = dp.verifier_keys(TenantId(1)).unwrap();
        let plain = msg.open_with(chain.latest()).unwrap();
        assert_ne!(Event::slice_from_bytes(&plain), {
            let mut sorted_events = events.clone();
            sorted_events.sort_by_key(|e| e.key);
            sorted_events
        });
        // Under the fresh epoch-1 key the same batch round-trips cleanly.
        let fresh = master.tenant_keys(1, 1);
        let mut payload = Event::slice_to_bytes(&events);
        AesCtr::new(&fresh.source_key, &fresh.source_nonce).apply_keystream_at(&mut payload, 0);
        let ok = in_tee(|| dp.ingress_for(TenantId(1), &payload, true, false, 0)).unwrap();
        assert_eq!(ok.len, 16);
    }

    #[test]
    fn deregister_revokes_refs_frees_memory_and_emits_departure() {
        let dp = plane();
        dp.register_tenant(TenantId(1), Some(1 << 20)).unwrap();
        dp.register_tenant(TenantId(2), None).unwrap();
        let events: Vec<Event> = (0..2_000).map(|i| Event::new(i, i, 0)).collect();
        let doomed = ingest_events_for(&dp, TenantId(1), &events);
        let survivor = ingest_events_for(&dp, TenantId(2), &events);
        let used = dp.tenant_memory(TenantId(1)).unwrap().used_bytes;
        assert!(used > 0);
        let in_use_before = dp.platform().secure_mem().in_use();

        let chain = dp.verifier_keys(TenantId(1)).unwrap();
        let mut trail = dp.drain_audit_segments_for(TenantId(1)).unwrap();
        let teardown = dp.deregister_tenant(TenantId(1), DepartureReason::Evicted).unwrap();
        assert_eq!(teardown.reclaimed_bytes, used);
        assert_eq!(teardown.refs_revoked, 1);
        assert_eq!(teardown.final_epoch, 0);

        // The tenant is gone: its references and every entry point reject.
        assert!(in_tee(|| dp.egress_for(TenantId(1), doomed.opaque)).is_err());
        assert_eq!(
            in_tee(|| dp.ingress_for(TenantId(1), &[], false, false, 0)).unwrap_err(),
            DataPlaneError::UnknownTenant
        );
        assert_eq!(dp.tenant_memory(TenantId(1)), Err(DataPlaneError::UnknownTenant));
        assert!(dp.deregister_tenant(TenantId(1), DepartureReason::Evicted).is_err());
        // Its secure memory came back; the survivor is untouched.
        assert_eq!(dp.platform().secure_mem().in_use(), in_use_before - used);
        assert!(in_tee(|| dp.egress_for(TenantId(2), survivor.opaque)).is_ok());

        // The final trail verifies and ends with the departure record.
        trail.extend(teardown.segments);
        let records = sbt_attest::verify_tenant_trail(&trail, TenantId(1), &chain).unwrap();
        assert!(matches!(
            records.last(),
            Some(AuditRecord::Departure { reason: DepartureReason::Evicted, .. })
        ));
    }

    #[test]
    fn default_tenant_cannot_be_deregistered() {
        let dp = plane();
        assert!(dp.deregister_tenant(TenantId::DEFAULT, DepartureReason::Drained).is_err());
    }

    #[test]
    fn quota_resize_applies_immediately() {
        let dp = plane();
        dp.register_tenant(TenantId(1), Some(4 * 4096)).unwrap();
        let big: Vec<Event> = (0..2_000).map(|i| Event::new(i, i, 0)).collect();
        let bytes = Event::slice_to_bytes(&big);
        assert_eq!(
            in_tee(|| dp.ingress_for(TenantId(1), &bytes, false, false, 0)).unwrap_err(),
            DataPlaneError::QuotaExceeded
        );
        dp.set_tenant_quota(TenantId(1), Some(64 * 4096)).unwrap();
        assert!(in_tee(|| dp.ingress_for(TenantId(1), &bytes, false, false, 0)).is_ok());
        assert!(dp.set_tenant_quota(TenantId(9), Some(1)).is_err());
    }

    #[test]
    fn tenant_pressure_tracks_quota_usage() {
        let dp = plane();
        dp.register_tenant(TenantId(1), Some(10 * 4096)).unwrap();
        assert!(!dp.tenant_under_pressure(TenantId(1)));
        let events: Vec<Event> = (0..3_000).map(|i| Event::new(i, i, 0)).collect(); // 9 pages
        let _ = ingest_events_for(&dp, TenantId(1), &events);
        assert!(dp.tenant_under_pressure(TenantId(1)));
        // The default (unconstrained) tenant never reports quota pressure.
        assert!(!dp.tenant_under_pressure(TenantId::DEFAULT));
    }

    #[test]
    fn checkpoint_restore_round_trips_state_and_stitched_trail_verifies() {
        let dp = plane();
        dp.register_tenant(TenantId(1), None).unwrap();
        let events: Vec<Event> = (0..500).map(|i| Event::new(i % 7, i, i * 3)).collect();
        let a = ingest_events_for(&dp, TenantId(1), &events);
        let manifest = CheckpointManifest {
            left_watermark_ms: 1_500,
            right_watermark_ms: 0,
            next_unexecuted: 0,
            windows: vec![WindowManifest { win_no: 0, left: vec![a.opaque], right: Vec::new() }],
        };
        let sealed = in_tee(|| dp.checkpoint_tenant(TenantId(1), &manifest)).unwrap();
        assert_eq!((sealed.tenant, sealed.ckpt_seq, sealed.epoch), (1, 0, 0));
        assert!(dp.telemetry().last_checkpoint_age_nanos(1).is_some());
        let prefix = dp.drain_audit_segments_for(TenantId(1)).unwrap();

        // Crash: a fresh plane restores the tenant from the container as it
        // came back from untrusted storage.
        let dp2 = plane();
        let stored = SealedSnapshot::from_bytes(&sealed.to_bytes()).unwrap();
        let restored = in_tee(|| dp2.restore_tenant(TenantId(1), None, &stored, 0)).unwrap();
        assert_eq!(restored.ckpt_seq, 0);
        assert_eq!(restored.left_watermark_ms, 1_500);
        assert_eq!(restored.windows.len(), 1);
        assert_eq!(restored.events_restored, 500);
        // The restored partition holds exactly the original events.
        let chain = dp2.verifier_keys(TenantId(1)).unwrap();
        let msg = in_tee(|| dp2.egress_for(TenantId(1), restored.windows[0].left[0])).unwrap();
        assert_eq!(msg.open_with(chain.latest()).unwrap(), Event::slice_to_bytes(&events));
        // Prefix + post-restore suffix stitch into one verifiable trail
        // whose resume record matches the sealed checkpoint.
        let mut trail = prefix;
        trail.extend(dp2.drain_audit_segments_for(TenantId(1)).unwrap());
        let records = sbt_attest::verify_tenant_trail(&trail, TenantId(1), &chain).unwrap();
        assert!(records
            .iter()
            .any(|r| matches!(r, AuditRecord::Checkpoint { resumed: true, seq: 0, .. })));
        // Restoring over a live tenant is refused.
        assert!(in_tee(|| dp2.restore_tenant(TenantId(1), None, &stored, 0)).is_err());
    }

    #[test]
    fn a_snapshot_sealed_on_either_crypto_back_end_restores_on_the_other() {
        // Seal a multi-chunk snapshot on the active back-end (AES-NI / SHA-NI
        // where the CPU has them), then rebuild the same container from the
        // portable kernels alone — key derivation, keystream and MAC all
        // composed from `sbt_crypto::soft`. The two must be the same bytes:
        // what a portable-path build seals restores under the hardware path
        // and the other way round.
        use sbt_crypto::{soft, Aes128, Signature};
        let dp = plane();
        dp.register_tenant(TenantId(1), None).unwrap();
        let events: Vec<Event> = (0..12_000).map(|i| Event::new(i % 97, i * 7, i)).collect();
        let a = ingest_events_for(&dp, TenantId(1), &events);
        let manifest = CheckpointManifest {
            left_watermark_ms: 900,
            right_watermark_ms: 0,
            next_unexecuted: 0,
            windows: vec![WindowManifest { win_no: 0, left: vec![a.opaque], right: Vec::new() }],
        };
        let sealed = in_tee(|| dp.checkpoint_tenant(TenantId(1), &manifest)).unwrap();
        assert!(sealed.ciphertext.len() > 2 * crate::egress::SEAL_CHUNK);

        // HKDF (RFC 5869) on the portable HMAC: extract, then two blocks of
        // expand, under the derivation `MasterSecret::sealing_keys` documents.
        let prk = soft::hmac_sha256(
            b"streambox-tz/key-hierarchy/v1",
            &[b"streambox-tz-demo-master-secret"],
        );
        let header = [
            &sealed.tenant.to_le_bytes()[..],
            &sealed.ckpt_seq.to_le_bytes(),
            &sealed.epoch.to_le_bytes(),
        ];
        let info = [&b"sbt-seal/"[..], header[0], header[2], header[1]].concat();
        let t1 = soft::hmac_sha256(&prk, &[&info, &[1]]);
        let t2 = soft::hmac_sha256(&prk, &[&t1, &info, &[2]]);
        let (key, nonce): ([u8; 16], [u8; 16]) =
            (t1[..16].try_into().unwrap(), t1[16..].try_into().unwrap());

        // The portable path opens what the active path sealed …
        let mac = soft::hmac_sha256(&t2, &[header[0], header[1], header[2], &sealed.ciphertext]);
        assert_eq!(mac, sealed.mac.0, "the portable MAC verifies the sealed container");
        let mut plain = vec![0u8; sealed.ciphertext.len()];
        soft::ctr_xor(&Aes128::new(&key), &nonce, 0, Some(&sealed.ciphertext), &mut plain);
        assert_eq!(&plain[..4], b"SBTC");
        // … and seals the same bytes itself.
        let mut composed =
            SealedSnapshot { ciphertext: plain, mac: Signature(mac), ..sealed.clone() };
        soft::ctr_xor(&Aes128::new(&key), &nonce, 0, None, &mut composed.ciphertext);
        assert!(composed.to_bytes() == sealed.to_bytes(), "the two back-ends seal different bytes");

        // The portable-composed container restores on the active path.
        let dp2 = plane();
        let stored = SealedSnapshot::from_bytes(&composed.to_bytes()).unwrap();
        let restored = in_tee(|| dp2.restore_tenant(TenantId(1), None, &stored, 0)).unwrap();
        assert_eq!(restored.events_restored, events.len() as u64);
    }

    #[test]
    fn restore_from_a_stale_checkpoint_is_detected_by_both_verifiers() {
        let dp = plane();
        dp.register_tenant(TenantId(1), None).unwrap();
        let events: Vec<Event> = (0..64).map(|i| Event::new(i, i, i)).collect();
        let a = ingest_events_for(&dp, TenantId(1), &events);
        let manifest = CheckpointManifest {
            windows: vec![WindowManifest { win_no: 0, left: vec![a.opaque], right: Vec::new() }],
            ..CheckpointManifest::default()
        };
        let stale = in_tee(|| dp.checkpoint_tenant(TenantId(1), &manifest)).unwrap();
        let _ = ingest_events_for(&dp, TenantId(1), &events);
        let fresh = in_tee(|| dp.checkpoint_tenant(TenantId(1), &manifest)).unwrap();
        assert_eq!((stale.ckpt_seq, fresh.ckpt_seq), (0, 1));
        let prefix = dp.drain_audit_segments_for(TenantId(1)).unwrap();

        // Restart from the *stale* snapshot: its suffix forks the sealed
        // history, so stitching the cloud's full prefix with the resumed
        // suffix cannot produce one verifiable trail.
        let dp2 = plane();
        in_tee(|| dp2.restore_tenant(TenantId(1), None, &stale, 0)).unwrap();
        let mut trail = prefix;
        trail.extend(dp2.drain_audit_segments_for(TenantId(1)).unwrap());
        let chain = dp2.verifier_keys(TenantId(1)).unwrap();
        let err = sbt_attest::verify_tenant_trail(&trail, TenantId(1), &chain).unwrap_err();
        // The parallel verifier reports the identical failure.
        struct Inline;
        impl LanePool for Inline {
            fn workers(&self) -> usize {
                4
            }
            fn run(&self, tasks: Vec<LaneTask>) {
                for t in tasks {
                    t();
                }
            }
        }
        let arc = Arc::new(trail);
        let perr = sbt_attest::verify_tenant_trail_parallel_min_shard(
            &arc,
            TenantId(1),
            &chain,
            &Inline,
            0,
        )
        .unwrap_err();
        assert_eq!(perr, err);
    }

    #[test]
    fn retired_epochs_vanish_from_verifier_keys_and_refuse_old_snapshots() {
        let dp = plane();
        dp.register_tenant(TenantId(1), None).unwrap();
        let manifest = CheckpointManifest::default();
        let old = in_tee(|| dp.checkpoint_tenant(TenantId(1), &manifest)).unwrap();
        assert_eq!(old.epoch, 0);
        // The horizon can never pass the newest checkpoint's epoch: that
        // would make the tenant unrecoverable.
        assert!(dp.retire_epochs_before(TenantId(1), 1).is_err());
        dp.rekey_tenant(TenantId(1)).unwrap();
        let fresh = in_tee(|| dp.checkpoint_tenant(TenantId(1), &manifest)).unwrap();
        assert_eq!(fresh.epoch, 1);
        assert_eq!(dp.retire_epochs_before(TenantId(1), 1).unwrap(), 1);
        assert_eq!(dp.tenant_retired_before(TenantId(1)).unwrap(), 1);
        // Epoch 0's key material is gone from the verifier keychain.
        assert_eq!(dp.verifier_keys(TenantId(1)).unwrap().oldest_epoch(), 1);
        // A fresh enclave refuses the retired snapshot and takes the new one.
        let dp2 = plane();
        assert_eq!(
            in_tee(|| dp2.restore_tenant(TenantId(1), None, &old, 1)).unwrap_err(),
            DataPlaneError::RetiredEpoch { epoch: 0, horizon: 1 }
        );
        let restored = in_tee(|| dp2.restore_tenant(TenantId(1), None, &fresh, 1)).unwrap();
        assert_eq!(restored.epoch, 1);
        assert_eq!(dp2.tenant_retired_before(TenantId(1)).unwrap(), 1);
        // A snapshot sealed *after* retirement carries the horizon itself,
        // so even a caller with no vault metadata re-adopts it.
        let carried = in_tee(|| dp.checkpoint_tenant(TenantId(1), &manifest)).unwrap();
        let dp3 = plane();
        in_tee(|| dp3.restore_tenant(TenantId(1), None, &carried, 0)).unwrap();
        assert_eq!(dp3.tenant_retired_before(TenantId(1)).unwrap(), 1);
    }

    #[test]
    fn short_lanes_match_serial_whatever_floor_the_back_end_sets() {
        // The lane floor follows the active back-end (`min_lane_chunks`:
        // 106 windows on AES-NI), so the integration suite's small batches
        // stay serial on a hardware runner. This drives the parallel body
        // directly with four-window lanes — the portable floor — so short,
        // uneven and counter-wrapping lanes are compared against the serial
        // path on every runner.
        struct Threads(usize);
        impl LanePool for Threads {
            fn workers(&self) -> usize {
                self.0
            }
            fn run(&self, tasks: Vec<LaneTask>) {
                std::thread::scope(|s| {
                    for task in tasks {
                        s.spawn(task);
                    }
                });
            }
        }
        let ks = MasterSecret::demo().tenant_keys(TenantId::DEFAULT.0, 0);
        for (events, width, block) in
            [(3_400usize, 2usize, 0u32), (20_000, 3, 12_345), (20_000, 8, u32::MAX - 100)]
        {
            let plain: Vec<Event> =
                (0..events as u32).map(|i| Event::new(i.wrapping_mul(0x9E37_79B9), i, i)).collect();
            let mut payload = Event::slice_to_bytes(&plain);
            AesCtr::new(&ks.source_key, &ks.source_nonce).apply_keystream_at(&mut payload, block);
            let lanes = lane_plan(payload.len(), width, 4);
            assert_eq!(lanes.len(), width, "{events} events split {width} ways");

            let (serial, parallel) = (plane(), plane());
            let a = in_tee(|| serial.ingress_for(TenantId::DEFAULT, &payload, true, false, block))
                .unwrap();
            let b = in_tee(|| {
                parallel.ingress_parallel(
                    TenantId::DEFAULT,
                    Arc::new(payload.clone()),
                    true,
                    false,
                    block,
                    &Threads(width),
                    &lanes,
                )
            })
            .unwrap();
            assert_eq!((a.len, b.len), (events, events));
            // Identical call sequences on fresh planes mint identical ids and
            // sequence numbers, so equal stores seal to equal messages.
            let sealed_a = in_tee(|| serial.egress(a.opaque)).unwrap();
            let sealed_b = in_tee(|| parallel.egress(b.opaque)).unwrap();
            assert!(sealed_a.ciphertext == sealed_b.ciphertext, "{events} events, {width} lanes");
            assert_eq!(sealed_a.signature, sealed_b.signature);
            let (key, nonce, signing) = parallel.cloud_keys();
            let opened = sealed_b.open(&key, &nonce, &signing).expect("opens");
            assert!(opened == Event::slice_to_bytes(&plain), "the lanes decrypted the batch");
        }
    }

    #[test]
    fn deregister_purges_telemetry_rows_with_the_tenant() {
        let dp = plane();
        dp.telemetry().set_enabled(true);
        dp.register_tenant(TenantId(1), None).unwrap();
        let events: Vec<Event> = (0..16).map(|i| Event::new(i, i, 0)).collect();
        let _ = ingest_events_for(&dp, TenantId(1), &events);
        in_tee(|| dp.checkpoint_tenant(TenantId(1), &CheckpointManifest::default())).unwrap();
        assert!(dp.telemetry().last_checkpoint_age_nanos(1).is_some());
        dp.deregister_tenant(TenantId(1), DepartureReason::Drained).unwrap();
        // Gauge, latency rows and flight ring all went with the tenant.
        assert!(dp.telemetry().last_checkpoint_age_nanos(1).is_none());
        let snap = dp.telemetry().snapshot();
        assert!(!snap.counters.iter().any(|c| c.name.starts_with("checkpoint.t1.")));
        assert!(snap.latencies.iter().all(|row| row.tenant != 1));
    }
}
