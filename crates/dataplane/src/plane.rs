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
//! * a per-tenant **memory quota** enforced by the uArray allocator, whose
//!   ledger charges every array to its owner — a tenant that fills its
//!   quota is rejected without disturbing the others' committed memory;
//! * a per-tenant **window map**: one open array per (window, stream side,
//!   ingest lane), grown in place by every batch that lane routes to the
//!   window, until a consumer (the window's fire) seals it and takes it
//!   out. The map is what a checkpoint snapshots.
//!
//! Every entry point names the tenant it acts for. Single-pipeline
//! deployments (the paper's setting) pass [`TenantId::DEFAULT`], which is
//! registered unconstrained at load time.
//!
//! # Layout
//!
//! This module holds the plane's state, its construction, tenancy and keys,
//! and the helpers every entry point shares (`lookup`, `take`,
//! `commit_output`, `free`, `append_audit`). The entry
//! points live in child modules, one per concern: `ingress` (batches and
//! watermarks), `invoke` (the primitive dispatch table), `egress` (sealed
//! results and retirement), `checkpoint` (seal, restore, epoch retirement)
//! and `call` (command lists: many of these calls inside one crossing,
//! committed or unwound as one). Each entry point is a one-command list
//! through `call`; its body, which stages what it would publish, is
//! reached only from there.

use self::call::Staged;
use self::invoke::Input;
use crate::egress::Sealer;
use crate::error::DataPlaneError;
use crate::opaque::{OpaqueRef, RefTable};
use crate::params::InvokeOutput;
use crate::stats::DataPlaneStats;
use crate::store::StoredData;
use parking_lot::{Mutex, RwLock};
use sbt_attest::{AuditLog, AuditRecord, DepartureReason, LogSegment};
use sbt_crypto::{Key128, KeySet, MasterSecret, Nonce, SigningKey, TenantKeychain};
use sbt_telemetry::MetricsRegistry;
use sbt_types::{Event, LanePool, TenantId, WindowId};
use sbt_tz::Platform;
use sbt_uarray::{
    Allocator, AllocatorConfig, HintSet, MemoryReport, TeePager, UArray, UArrayId, PAGE_SIZE,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

mod call;
mod checkpoint;
mod egress;
mod ingress;
mod invoke;
#[cfg(test)]
mod tests;

/// Records per audit segment: every tenant's audit log seals a segment
/// every this many records (and at every egress). Figure binaries and
/// benches that model the data plane's segments seal at the same size.
pub const AUDIT_SEGMENT_RECORDS: usize = 256;

/// Seed of the opaque-reference RNG; each tenant's stream is derived from
/// it and the tenant id.
const REF_SEED: u64 = 0x5b7_57a7e;

/// Configuration of a data plane instance.
///
/// No raw key material appears here: every tenant's source, cloud and
/// signing keys are derived on demand from the platform's [`MasterSecret`]
/// per `(tenant, epoch)`, so a leaked configuration exposes only what the
/// master secret protects, and per-tenant keys never need to be plumbed.
/// The audit segment size and the reference seed are constants
/// ([`AUDIT_SEGMENT_RECORDS`]), not configuration.
#[derive(Clone)]
pub struct DataPlaneConfig {
    /// The platform master secret every per-tenant key set is derived from.
    pub master: MasterSecret,
    /// Allocator configuration (placement policy, reservation size).
    pub allocator: AllocatorConfig,
}

impl Default for DataPlaneConfig {
    fn default() -> Self {
        DataPlaneConfig { master: MasterSecret::demo(), allocator: AllocatorConfig::default() }
    }
}

/// The opaque-reference RNG seed of `tenant`: distinct per-tenant streams
/// for the reference namespaces.
fn reference_seed(tenant: TenantId) -> u64 {
    REF_SEED.wrapping_add((tenant.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Mutable bookkeeping guarded by one mutex: the allocator, the one ledger
/// of live uArrays, and id minting. These are all short, metadata-only
/// operations.
struct AllocState {
    allocator: Allocator,
    next_id: UArrayId,
}

/// A window array's place in its tenant's window map: the window, the
/// stream side and the ingest lane that append to it.
type WindowKey = (WindowId, u8, u32);

/// A window array of a tenant's window map.
struct WindowSlot {
    id: UArrayId,
    /// The reference minted when it opened; every batch appended to it
    /// replies with it.
    opaque: OpaqueRef,
    /// The open array; `None` while a command list holds it to append.
    array: Option<UArray<Event>>,
}

/// The per-tenant namespace inside the TEE.
struct TenantState {
    /// The tenant's private opaque-reference table.
    refs: RefTable,
    /// The tenant's window arrays.
    windows: BTreeMap<WindowKey, WindowSlot>,
    /// Arrays a running command list took out of the window map or the
    /// store for its output to take over: closed to every other list until
    /// that list retires them.
    consuming: Vec<UArrayId>,
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
    /// Set, under this state's lock, when the tenant departs: a command
    /// list still running for it then commits nothing.
    departed: bool,
}

impl TenantState {
    /// Resolve `r` for a reader: refused while a command list is consuming
    /// its array.
    fn resolve(&self, r: OpaqueRef) -> Result<UArrayId, DataPlaneError> {
        let id = self.refs.resolve(r)?;
        if self.consuming.contains(&id) {
            return Err(DataPlaneError::BadArguments("a command list is consuming this array"));
        }
        Ok(id)
    }

    /// Take window array `id` out of the map for its consumer, sealed: no
    /// batch can append to it from here on. `None` when `id` is no window
    /// array; refused while a command list is appending to it.
    fn take_window(&mut self, id: UArrayId) -> Result<Option<UArray<Event>>, DataPlaneError> {
        let Some((&key, slot)) = self.windows.iter().find(|(_, w)| w.id == id) else {
            return Ok(None);
        };
        if slot.array.is_none() {
            return Err(DataPlaneError::BadArguments("a command list is appending to this array"));
        }
        let mut array = self.windows.remove(&key).and_then(|w| w.array).expect("checked open");
        array.seal();
        Ok(Some(array))
    }

    /// A fresh namespace for `tenant`: no references, counters at zero,
    /// its trail in `audit`.
    fn new(tenant: TenantId, keys: KeySet, audit: AuditLog) -> Self {
        TenantState {
            refs: RefTable::new(reference_seed(tenant)),
            windows: BTreeMap::new(),
            consuming: Vec::new(),
            keys,
            audit,
            segments: Vec::new(),
            egress_seq: 0,
            events_ingested: 0,
            bytes_ingested: 0,
            next_ckpt_seq: 0,
            last_ckpt_epoch: None,
            retired_before: 0,
            departed: false,
        }
    }
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
    /// Whether the tenant is near its quota (at least
    /// [`BACKPRESSURE_PERCENT`](sbt_tz::BACKPRESSURE_PERCENT) of it, the
    /// threshold the platform's secure memory uses too): its sources should
    /// slow down.
    pub fn under_pressure(&self) -> bool {
        self.quota_bytes.is_some_and(|quota| sbt_tz::under_pressure(self.used_bytes, quota))
    }

    /// Bytes the tenant may still commit before its quota refuses them
    /// (`u64::MAX` when unconstrained).
    pub fn headroom_bytes(&self) -> u64 {
        self.quota_bytes.map_or(u64::MAX, |quota| quota.saturating_sub(self.used_bytes))
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
    /// Worker pool lent by the control plane for the encrypt lanes of egress
    /// and checkpoint seals. `None` keeps both serial.
    lane_pool: RwLock<Option<Arc<dyn LanePool>>>,
    /// The streaming encrypt-then-MAC pipeline egress and checkpoints seal
    /// through (owns the recycled staging buffers).
    sealer: Sealer,
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
            }),
            stats,
            telemetry,
            lane_pool: RwLock::new(None),
            sealer: Sealer::new(),
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
        let keys = self.config.master.tenant_keys(tenant.0, 0);
        let audit = AuditLog::for_tenant(keys.signing.clone(), AUDIT_SEGMENT_RECORDS, tenant);
        self.install_tenant(tenant, TenantState::new(tenant, keys, audit), quota_bytes)?;
        Ok(())
    }

    /// Publish `state` as `tenant`'s namespace under `quota_bytes`. Fails
    /// if the tenant already exists.
    fn install_tenant(
        &self,
        tenant: TenantId,
        state: TenantState,
        quota_bytes: Option<u64>,
    ) -> Result<Arc<Mutex<TenantState>>, DataPlaneError> {
        let ts = Arc::new(Mutex::new(state));
        {
            let mut tenants = self.tenants.write();
            if tenants.contains_key(&tenant) {
                return Err(DataPlaneError::BadArguments("tenant already registered"));
            }
            tenants.insert(tenant, ts.clone());
        }
        self.alloc.lock().allocator.set_owner_quota(tenant.owner_tag(), quota_bytes);
        // Pre-create the tenant's latency histograms so the ingest hot
        // path never takes the registry's write lock.
        self.telemetry.register_tenant(tenant.0);
        Ok(ts)
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
        self.alloc.lock().allocator.set_owner_quota(tenant.owner_tag(), quota_bytes);
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
        // here on. A list already holding the state Arc sees the departure
        // mark at its commit and publishes nothing.
        let ts = self.tenants.write().remove(&tenant).ok_or(DataPlaneError::UnknownTenant)?;
        let (segments, final_epoch, refs_revoked) = {
            let mut t = ts.lock();
            t.departed = true;
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
        let reclaimed_bytes = self.sweep_tenant(tenant);
        Ok(TenantTeardown { tenant, reason, final_epoch, segments, reclaimed_bytes, refs_revoked })
    }

    /// Free everything a tenant removed from the map still owns: every
    /// uArray charged to it in one allocator pass, their store entries and
    /// pages (with any other tenant's retired arrays the pass exposed at a
    /// group's front), and its observability state. Returns the bytes of
    /// the tenant's own arrays reclaimed.
    fn sweep_tenant(&self, tenant: TenantId) -> u64 {
        let torn = {
            let mut alloc = self.alloc.lock();
            // Seal before sweeping: an in-flight invocation that raced past
            // the tenant-map removal can no longer admit new arrays for the
            // departed owner — it fails its quota check and unpublishes its
            // own store entries and pages (commits are published before they
            // are admitted, so anything this sweep finds is in the store).
            alloc.allocator.set_owner_quota(tenant.owner_tag(), Some(0));
            alloc.allocator.release_owner(tenant.owner_tag())
        };
        self.free(&torn.arrays);
        // Purge the tenant's observability state along with its namespace:
        // histogram rows, the checkpoint gauge, and the flight-recorder ring
        // all key on the tenant id, which deployments recycle.
        self.telemetry.deregister_tenant(tenant.0);
        torn.reclaimed_bytes
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

    /// Install the worker pool that egress and checkpoint seals fan their
    /// encrypt lanes onto (normally the engine's executor, lent when the
    /// engine is assembled).
    pub fn set_lane_pool(&self, pool: Arc<dyn LanePool>) {
        *self.lane_pool.write() = Some(pool);
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

    /// Number of live opaque references of one tenant.
    pub fn live_refs(&self, tenant: TenantId) -> usize {
        self.tenant_state(tenant).map(|t| t.lock().refs.live_count()).unwrap_or(0)
    }

    /// Drain one tenant's flushed audit segments.
    pub fn drain_audit_segments(
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

    /// Append one audit record to the tenant's log at once, outside any
    /// list's held-back records (restore's own records).
    fn append_audit(&self, ts: &Mutex<TenantState>, record: AuditRecord) {
        self.stats.record_audit(1);
        let mut t = ts.lock();
        if let Some(segment) = t.audit.append(record) {
            t.segments.push(segment);
        }
    }

    /// Publish `data` to the store, admit it to the allocator (all or
    /// nothing with respect to the quota of `list`'s tenant) and mint its
    /// reference.
    /// Returns its id and what the caller is told of it. On quota rejection
    /// it is freed and nothing stays published.
    ///
    /// `from` names the consumed input — its id and committed bytes — whose
    /// pages the output took over: the allocator moves the input's bytes to
    /// the output in the same call. Those pages are not the output's to
    /// give back on a rejection: they stay with the input's ledger entry
    /// until its retire, or went with its owner's teardown.
    fn commit_output(
        &self,
        list: &Staged<'_>,
        producer: u64,
        data: StoredData,
        hints: &HintSet,
        from: Option<(UArrayId, u64)>,
    ) -> Result<(UArrayId, InvokeOutput), DataPlaneError> {
        // Publish to the store *before* admitting: the owner-teardown sweep
        // in `deregister_tenant` discovers a tenant's arrays in the
        // allocator's ledger, so any array it can see is already in the
        // store and gets removed by the sweep's store pass. A commit that
        // instead hits the post-teardown sealed quota (or a plain quota
        // rejection) unpublishes its own entry below. Either way no store
        // entry can outlive both passes.
        let (id, len) = (data.id(), data.len());
        let mut meta = (id, data.committed_bytes());
        self.store.write().insert(id, Arc::new(data));
        let owner = list.tenant.owner_tag();
        let admitted = {
            let allocator = &mut self.alloc.lock().allocator;
            match from {
                Some((input, _)) => allocator.hand_over(owner, producer, input, meta, hints),
                None => allocator.admit(owner, producer, &[meta], hints),
            }
        };
        if admitted.is_err() {
            if let Some((_, moved)) = from {
                meta.1 -= moved;
            }
            self.free(&[meta]);
            return Err(DataPlaneError::QuotaExceeded);
        }
        let opaque = list.ts.lock().refs.mint(id);
        Ok((id, InvokeOutput { opaque, len, window: None }))
    }

    /// Drop arrays the allocator no longer holds from the store and hand
    /// their pages back: retired, swept with a tenant, or refused admission.
    fn free(&self, arrays: &[(UArrayId, u64)]) {
        if arrays.is_empty() {
            return;
        }
        let mut store = self.store.write();
        for (id, bytes) in arrays {
            store.remove(id);
            self.pager.release_pages(bytes / PAGE_SIZE);
        }
    }

    fn next_id(&self) -> UArrayId {
        let mut alloc = self.alloc.lock();
        let id = alloc.next_id;
        alloc.next_id = id.next();
        id
    }

    /// Resolve a reference to its array. An open window array is consumed
    /// here: sealed, out of the window map and into the store.
    fn lookup(
        &self,
        ts: &Mutex<TenantState>,
        r: OpaqueRef,
    ) -> Result<(UArrayId, Arc<StoredData>), DataPlaneError> {
        let (id, window) = {
            let mut t = ts.lock();
            let id = t.resolve(r)?;
            (id, t.take_window(id)?)
        };
        if let Some(array) = window {
            let data = Arc::new(StoredData::Events(array));
            self.store.write().insert(id, data.clone());
            return Ok((id, data));
        }
        let store = self.store.read();
        let data = store.get(&id).cloned().ok_or(DataPlaneError::InvalidReference)?;
        Ok((id, data))
    }

    /// Resolve a reference that `list` consumes (see
    /// [`command::consumes`](crate::command)) for its output to take over:
    /// the array itself when the data plane holds its only handle — a
    /// window array, sealed and out of the window map, or a store entry
    /// whose `Arc` no one else holds. The array is then closed to every
    /// other list until `list` retires it. Otherwise the shared handle
    /// [`lookup`](DataPlane::lookup) gives.
    fn take(
        &self,
        list: &mut Staged<'_>,
        r: OpaqueRef,
    ) -> Result<(UArrayId, Input), DataPlaneError> {
        let mut t = list.ts.lock();
        let id = t.resolve(r)?;
        let owned = match t.take_window(id)? {
            Some(array) => StoredData::Events(array),
            None => {
                let mut store = self.store.write();
                let data = store.remove(&id).ok_or(DataPlaneError::InvalidReference)?;
                match Arc::try_unwrap(data) {
                    Ok(data) => data,
                    Err(shared) => {
                        store.insert(id, shared.clone());
                        return Ok((id, Input::Shared(shared)));
                    }
                }
            }
        };
        t.consuming.push(id);
        list.taken.push(id);
        Ok((id, Input::Owned(owned)))
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
