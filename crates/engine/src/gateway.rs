//! The control plane's gateway into the TEE.
//!
//! Every data-plane call the control plane makes goes through here: the
//! gateway owns an SMC session (charging the world-switch cost per
//! invocation), the IO channel of the configured ingress path (charging a
//! boundary copy for via-OS ingestion), and the `Arc<DataPlane>` handle. The
//! rest of the engine never touches the data plane directly, which keeps the
//! boundary in one auditable place.
//!
//! A gateway is scoped to one **tenant**: every call it forwards executes in
//! that tenant's namespace (reference table, audit log, memory quota). The
//! multi-tenant server opens one gateway per admitted tenant over the one
//! shared data plane; single-pipeline deployments use the default tenant.

use crate::metrics::CycleCost;
use sbt_attest::LogSegment;
use sbt_dataplane::{
    CheckpointManifest, DataPlane, DataPlaneError, EgressMessage, InvokeOutput, OpaqueRef,
    PrimitiveParams, RestoredTenant, SealedSnapshot,
};
use sbt_telemetry::SpanKind;
use sbt_types::{PrimitiveKind, TenantId, Watermark};
use sbt_tz::{EntryFunction, IngressPath, IoChannel, SmcSession};
use sbt_uarray::HintSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-gateway (per-tenant) TEE-boundary event counts.
///
/// The platform's [`sbt_tz::TzStats`] counts crossings globally; the
/// gateway additionally meters the crossings *this tenant's* calls caused,
/// so multi-tenant harnesses can report switches-per-event and copied
/// bytes-per-event per tenant. Secure-page commits stay platform-wide (the
/// pager is shared); they are not broken out here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayBoundary {
    /// World switches this gateway's calls made (one per invocation, plus
    /// one per via-OS delivery).
    pub switches: u64,
    /// Bytes copied across the boundary on this gateway's behalf (via-OS
    /// deliveries only; trusted IO copies nothing).
    pub copied_bytes: u64,
    /// SMC invocations issued.
    pub invocations: u64,
}

/// The gateway: SMC session + IO channel + data plane handle, scoped to one
/// tenant.
pub struct TeeGateway {
    dp: Arc<DataPlane>,
    tenant: TenantId,
    session: SmcSession,
    io: IoChannel,
    /// Estimated cycle cost ([`CycleCost`]) of the calls serviced through
    /// this gateway since the last drain — the scheduler's per-tenant
    /// accounting signal.
    cost: AtomicU64,
    /// Boundary events this gateway's calls caused (see [`GatewayBoundary`]).
    switches: AtomicU64,
    copied_bytes: AtomicU64,
    invocations: AtomicU64,
}

impl TeeGateway {
    /// Open a gateway to a data plane for the default tenant: opens an SMC
    /// session and runs the `Initialize` entry function.
    pub fn open(dp: Arc<DataPlane>) -> Self {
        Self::open_for(dp, TenantId::DEFAULT)
    }

    /// Open a gateway scoped to `tenant` (which must already be registered
    /// with the data plane).
    pub fn open_for(dp: Arc<DataPlane>, tenant: TenantId) -> Self {
        let session = dp.platform().smc().open_session();
        session
            .invoke(EntryFunction::Initialize, || {})
            .expect("initializing the data plane cannot fail");
        let io = dp.platform().io_channel();
        TeeGateway {
            io,
            session,
            tenant,
            dp,
            cost: AtomicU64::new(0),
            switches: AtomicU64::new(0),
            copied_bytes: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
        }
    }

    /// Enter the TEE for one invocation, metering the boundary crossing.
    fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        self.switches.fetch_add(1, Ordering::Relaxed);
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.session
            .invoke(EntryFunction::InvokePrimitive, f)
            .expect("session is open and initialized")
    }

    /// The boundary events this gateway's calls have caused so far.
    pub fn boundary_events(&self) -> GatewayBoundary {
        GatewayBoundary {
            switches: self.switches.load(Ordering::Relaxed),
            copied_bytes: self.copied_bytes.load(Ordering::Relaxed),
            invocations: self.invocations.load(Ordering::Relaxed),
        }
    }

    /// The underlying data plane (read-only introspection: stats, memory).
    pub fn data_plane(&self) -> &Arc<DataPlane> {
        &self.dp
    }

    /// The tenant this gateway is scoped to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Whether this tenant's sources should slow down: platform-wide secure
    /// memory pressure, or the tenant nearing its own quota.
    pub fn under_pressure(&self) -> bool {
        self.dp.under_memory_pressure() || self.dp.tenant_under_pressure(self.tenant)
    }

    /// Ingest a batch of event bytes. Charges the ingress-path cost for the
    /// delivery and one TEE entry for the ingress call.
    pub fn ingress(
        &self,
        payload: &[u8],
        encrypted: bool,
        is_power: bool,
        keystream_block: u32,
    ) -> Result<InvokeOutput, DataPlaneError> {
        let span_start = self.dp.telemetry().tracer().start();
        let via_os = self.io.path() == IngressPath::ViaOs;
        if via_os {
            // The OS-mediated delivery crosses the boundary once more and
            // copies the payload across it.
            self.switches.fetch_add(1, Ordering::Relaxed);
            self.copied_bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
        }
        self.io.deliver(payload.len());
        let out = self
            .enter(|| self.dp.ingress(self.tenant, payload, encrypted, is_power, keystream_block));
        if let Ok(ingested) = &out {
            // Charge the *measured* batch cost: compute plus the boundary
            // toll this batch actually paid under the platform's cost model
            // (the scheduler's deficit currency).
            self.cost.fetch_add(
                CycleCost::batch_measured(
                    self.dp.platform().cost(),
                    payload.len() as u64,
                    ingested.len as u64,
                    via_os,
                ),
                Ordering::Relaxed,
            );
            self.dp.telemetry().tracer().record(
                SpanKind::IngestBatch,
                self.tenant.0,
                span_start,
                ingested.len as u64,
            );
        }
        out
    }

    /// [`ingress`](TeeGateway::ingress) of a batch held in a shared buffer.
    pub fn ingress_shared(
        &self,
        payload: &Arc<Vec<u8>>,
        encrypted: bool,
        is_power: bool,
        keystream_block: u32,
    ) -> Result<InvokeOutput, DataPlaneError> {
        self.ingress(payload, encrypted, is_power, keystream_block)
    }

    /// Ingest a watermark.
    pub fn ingress_watermark(&self, wm: Watermark) {
        self.enter(|| {
            let _ = self.dp.ingress_watermark(self.tenant, wm);
        });
    }

    /// Invoke a trusted primitive.
    pub fn invoke(
        &self,
        op: PrimitiveKind,
        inputs: &[OpaqueRef],
        params: PrimitiveParams,
        hints: &HintSet,
    ) -> Result<Vec<InvokeOutput>, DataPlaneError> {
        let out = self.enter(|| self.dp.invoke(self.tenant, op, inputs, params, hints));
        if let Ok(outputs) = &out {
            let records: u64 = outputs.iter().map(|o| o.len as u64).sum();
            self.cost.fetch_add(records * CycleCost::PROCESS_RECORD, Ordering::Relaxed);
        }
        out
    }

    /// Externalize a result.
    pub fn egress(&self, r: OpaqueRef) -> Result<EgressMessage, DataPlaneError> {
        let span_start = self.dp.telemetry().tracer().start();
        let out = self.enter(|| self.dp.egress(self.tenant, r));
        if let Ok(msg) = &out {
            self.cost.fetch_add(
                msg.ciphertext.len() as u64 * CycleCost::ENCRYPT_BYTE,
                Ordering::Relaxed,
            );
            self.dp.telemetry().tracer().record(
                SpanKind::EgressSeal,
                self.tenant.0,
                span_start,
                msg.ciphertext.len() as u64,
            );
        }
        out
    }

    /// Retire a reference the control plane will no longer consume.
    pub fn retire(&self, r: OpaqueRef) -> Result<(), DataPlaneError> {
        self.enter(|| self.dp.retire(self.tenant, r))
    }

    /// Roll back the tenant's ingest counters after the control plane
    /// dropped a batch it had already ingressed (e.g. windowing tripped the
    /// tenant's quota): the events never reached windowed state, so they do
    /// not count as ingested.
    pub fn uncount_ingest(&self, events: u64, bytes: u64) {
        self.enter(|| self.dp.uncount_ingest(self.tenant, events, bytes));
    }

    /// Drain the estimated cycle cost serviced through this gateway since
    /// the last drain (resets the meter). The deficit round-robin scheduler
    /// charges this against the tenant's deficit.
    pub fn drain_cost(&self) -> u64 {
        self.cost.swap(0, Ordering::Relaxed)
    }

    /// Drain this tenant's flushed audit segments (for upload).
    pub fn drain_audit_segments(&self) -> Vec<LogSegment> {
        self.dp.drain_audit_segments(self.tenant).unwrap_or_default()
    }

    /// Seal a checkpoint snapshot of this tenant's windowed state (one TEE
    /// entry; only the sealed container crosses back).
    pub fn checkpoint(
        &self,
        manifest: &CheckpointManifest,
    ) -> Result<SealedSnapshot, DataPlaneError> {
        self.enter(|| self.dp.checkpoint_tenant(self.tenant, manifest))
    }

    /// Restore this gateway's tenant from a sealed checkpoint (one TEE
    /// entry). `min_epoch` is the caller's epoch-retirement floor.
    pub fn restore(
        &self,
        quota_bytes: Option<u64>,
        sealed: &SealedSnapshot,
        min_epoch: u32,
    ) -> Result<RestoredTenant, DataPlaneError> {
        self.enter(|| self.dp.restore_tenant(self.tenant, quota_bytes, sealed, min_epoch))
    }
}

impl sbt_telemetry::CounterSource for TeeGateway {
    fn section(&self) -> String {
        format!("gateway.t{}", self.tenant.0)
    }

    fn collect(&self, emit: &mut dyn FnMut(&str, i64)) {
        let b = self.boundary_events();
        emit("switches", b.switches as i64);
        emit("copied_bytes", b.copied_bytes as i64);
        emit("invocations", b.invocations as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbt_dataplane::DataPlaneConfig;
    use sbt_types::Event;
    use sbt_tz::Platform;

    fn gateway() -> TeeGateway {
        let dp = DataPlane::new(Platform::hikey(), DataPlaneConfig::default());
        TeeGateway::open(dp)
    }

    #[test]
    fn ingress_and_invoke_from_the_normal_world() {
        // The whole point of the gateway: the calling thread stays in the
        // normal world and still gets work done inside the TEE.
        let gw = gateway();
        assert!(!sbt_tz::WorldTracker::in_secure_world());
        let events: Vec<Event> = (0..100).map(|i| Event::new(i % 5, i, 0)).collect();
        let bytes = Event::slice_to_bytes(&events);
        let ingested = gw.ingress(&bytes, false, false, 0).unwrap();
        let sorted = gw
            .invoke(
                PrimitiveKind::Sort,
                &[ingested.opaque],
                PrimitiveParams::None,
                &HintSet::none(),
            )
            .unwrap();
        assert_eq!(sorted[0].len, 100);
        assert!(!sbt_tz::WorldTracker::in_secure_world());
        // Costs were charged: at least 3 world switches (open + 2 invokes)
        // and the ingress bytes went through trusted IO.
        let stats = gw.data_plane().platform().stats().snapshot();
        assert!(stats.world_switches >= 3);
        assert_eq!(stats.trusted_io_bytes, bytes.len() as u64);
    }

    #[test]
    fn egress_and_retire_round_trip() {
        let gw = gateway();
        let events: Vec<Event> = (0..10).map(|i| Event::new(i, i, 0)).collect();
        let ingested = gw.ingress(&Event::slice_to_bytes(&events), false, false, 0).unwrap();
        let msg = gw.egress(ingested.opaque).unwrap();
        assert!(!msg.ciphertext.is_empty());
        gw.retire(ingested.opaque).unwrap();
        assert!(gw.egress(ingested.opaque).is_err());
    }

    #[test]
    fn watermarks_are_forwarded() {
        let gw = gateway();
        gw.ingress_watermark(Watermark::from_secs(1));
        let segments = gw.data_plane().drain_audit_segments(TenantId::DEFAULT).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].record_count, 1);
    }

    #[test]
    fn tenant_scoped_gateways_are_isolated() {
        let dp = DataPlane::new(Platform::hikey(), DataPlaneConfig::default());
        dp.register_tenant(TenantId(1), None).unwrap();
        dp.register_tenant(TenantId(2), None).unwrap();
        let gw1 = TeeGateway::open_for(dp.clone(), TenantId(1));
        let gw2 = TeeGateway::open_for(dp.clone(), TenantId(2));
        assert_eq!(gw1.tenant(), TenantId(1));
        let events: Vec<Event> = (0..10).map(|i| Event::new(i, i, 0)).collect();
        let a = gw1.ingress(&Event::slice_to_bytes(&events), false, false, 0).unwrap();
        // Tenant 2's gateway cannot touch tenant 1's reference.
        assert_eq!(gw2.egress(a.opaque).unwrap_err(), DataPlaneError::InvalidReference);
        // Audit segments drain per tenant and carry the tenant tag.
        let segs = gw1.drain_audit_segments();
        assert!(segs.iter().all(|s| s.tenant == TenantId(1)));
        assert!(gw2.drain_audit_segments().is_empty());
    }
}
