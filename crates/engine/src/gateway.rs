//! The control plane's gateway into the TEE.
//!
//! Every data-plane call the control plane makes goes through here: the
//! gateway owns an SMC session (charging the world-switch cost per
//! invocation), the IO channel of the configured ingress path (charging a
//! boundary copy for via-OS ingestion), and the `Arc<DataPlane>` handle. The
//! rest of the engine never touches the data plane directly, which keeps the
//! boundary in one auditable place.
//!
//! # One crossing per command list
//!
//! The gateway has one way in: [`TeeGateway::call`] takes a list of
//! [`Command`]s — ingress (windowed or raw), watermark, invoke, egress,
//! retire, checkpoint, restore — and runs the whole list inside **one** SMC
//! invocation, metered as one world switch at the platform's unchanged
//! price. Commands are data, not closures (the untrusted side never hands
//! the secure world code), and a command may name an output of an earlier
//! command of the same list ([`sbt_dataplane::Arg::Out`]), so the engine
//! pays the boundary once per step of work rather than once per primitive:
//!
//! * a group of n batches is one `WindowedIngress` per batch, each
//!   decrypted and appended straight to its windows' arrays — a lone batch
//!   is a group of one; a server lane sends a window's batches as one
//!   group;
//! * a fire's arrays (one per window, side and ingest lane) run in at most
//!   W lists, each `[Invoke(op, r), Retire(r)]` for each transform and, for
//!   a keyed reduce, its Sort, of each of its arrays;
//! * a window's tail is one list from the gather (`MergeK` or `Concat` over
//!   the arrays; an unkeyed reduce reads them directly) through the
//!   reduce, the egress and the final retire;
//! * the `Watermark` of the watermark that completed a window heads the
//!   fire's first list (its first partition list, or its tail when the
//!   chain is empty); a watermark no fire carries is a list of its own.
//!
//! A list succeeds or fails as a whole. A failed list returns only its
//! error: the data plane has already released its outputs and retired
//! every held reference it names in a `Retire`, and nothing of it reached
//! the trail or the ingest counters, so the engine has nothing to clean up.
//! The single-call methods ([`ingress`](TeeGateway::ingress),
//! [`invoke`](TeeGateway::invoke), [`egress`](TeeGateway::egress),
//! [`retire`](TeeGateway::retire), …) are one-command lists through the
//! same path, so there is one metering path and no fork.
//!
//! A gateway is scoped to one **tenant**: every call it forwards executes in
//! that tenant's namespace (reference table, audit log, memory quota). The
//! multi-tenant server opens one gateway per admitted tenant over the one
//! shared data plane; single-pipeline deployments use the default tenant.

use crate::metrics::CycleCost;
use sbt_attest::LogSegment;
use sbt_dataplane::{
    Arg, CheckpointManifest, Command, DataPlane, DataPlaneError, EgressMessage, InvokeOutput,
    OpaqueRef, PrimitiveParams, Reply, RestoredTenant, SealedSnapshot,
};
use sbt_types::{PrimitiveKind, TenantId};
use sbt_tz::{EntryFunction, IngressPath, IoChannel, SmcSession};
use sbt_uarray::HintSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

sbt_telemetry::counters! {
    /// The boundary events this gateway's calls caused (registry section
    /// `gateway.t{tenant}`).
    struct GatewayMeter {
        /// World switches this gateway's calls made (one per command list,
        /// plus one per via-OS delivery).
        switches,
        /// Bytes copied across the boundary on this gateway's behalf (via-OS
        /// deliveries only; trusted IO copies nothing).
        copied_bytes,
        /// SMC invocations issued: crossings, not commands (one per list).
        invocations,
    }
    /// Per-gateway (per-tenant) TEE-boundary event counts.
    ///
    /// The platform's [`sbt_tz::TzStats`] counts crossings globally; the
    /// gateway additionally meters the crossings *this tenant's* calls
    /// caused, so multi-tenant harnesses can report switches-per-event and
    /// copied bytes-per-event per tenant. Secure-page commits stay
    /// platform-wide (the pager is shared); they are not broken out here.
    pub struct GatewayBoundary;
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
    meter: GatewayMeter,
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
        TeeGateway { io, session, tenant, dp, cost: AtomicU64::new(0), meter: GatewayMeter::new() }
    }

    /// Enter the TEE for one invocation, metering the boundary crossing.
    /// [`call`](TeeGateway::call) is the only caller: every crossing is
    /// metered here, once.
    fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        self.meter.switches.fetch_add(1, Ordering::Relaxed);
        self.meter.invocations.fetch_add(1, Ordering::Relaxed);
        self.session
            .invoke(EntryFunction::InvokePrimitive, f)
            .expect("session is open and initialized")
    }

    /// The boundary events this gateway's calls have caused so far.
    pub fn boundary_events(&self) -> GatewayBoundary {
        self.meter.snapshot()
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

    /// Run a command list in one TEE entry: one SMC invocation and one
    /// metered world switch, however many commands the list holds. Each
    /// ingress in the list is delivered over the IO channel first (a
    /// via-OS delivery adds its own switch and copy). A list that succeeds
    /// is charged to this gateway's cost meter — its batches as one
    /// [`CycleCost::ingest_list`], its primitives and egress per record and
    /// byte, a windowed batch's window arrays per record as the `Segment`
    /// that made them once was; a failed list charges nothing.
    pub fn call(&self, cmds: &[Command<'_>]) -> Result<Vec<Reply>, DataPlaneError> {
        let via_os = self.via_os();
        for cmd in cmds {
            if let Command::Ingress { payload, .. } | Command::WindowedIngress { payload, .. } = cmd
            {
                if via_os {
                    // The OS-mediated delivery crosses the boundary once
                    // more and copies the payload across it.
                    self.meter.switches.fetch_add(1, Ordering::Relaxed);
                    self.meter.copied_bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
                }
                self.io.deliver(payload.len());
            }
        }
        let replies = self.enter(|| self.dp.call(self.tenant, cmds))?;
        let mut batches = cmds
            .iter()
            .zip(&replies)
            .filter_map(|(cmd, reply)| match (cmd, reply) {
                (Command::Ingress { payload, .. }, Reply::Ingress(ingested)) => {
                    Some((payload.len() as u64, ingested.len as u64))
                }
                (
                    Command::WindowedIngress { payload, .. },
                    Reply::WindowedIngress { events, .. },
                ) => Some((payload.len() as u64, *events as u64)),
                _ => None,
            })
            .peekable();
        let ingest = if batches.peek().is_some() { self.ingest_cost(batches) } else { 0 };
        let work: u64 = replies
            .iter()
            .map(|reply| match reply {
                Reply::Invoke(_) | Reply::WindowedIngress { .. } => {
                    reply.outputs().iter().map(|o| o.len as u64).sum::<u64>()
                        * CycleCost::PROCESS_RECORD
                }
                Reply::Egress(msg) => msg.ciphertext.len() as u64 * CycleCost::ENCRYPT_BYTE,
                _ => 0,
            })
            .sum();
        self.cost.fetch_add(ingest + work, Ordering::Relaxed);
        Ok(replies)
    }

    /// Whether this gateway's ingress path runs through the untrusted OS:
    /// read off its IO channel, the one place the path is configured.
    fn via_os(&self) -> bool {
        self.io.path() == IngressPath::ViaOs
    }

    /// The *measured* cost of one ingest list carrying `batches` (payload
    /// bytes, events) through this gateway: [`CycleCost::ingest_list`]
    /// under the platform's cost model and this gateway's ingress path.
    /// The scheduler's dispatch estimate and the metered charge of
    /// [`call`](TeeGateway::call) are both this function.
    pub(crate) fn ingest_cost(&self, batches: impl IntoIterator<Item = (u64, u64)>) -> u64 {
        CycleCost::ingest_list(self.dp.platform().cost(), batches, self.via_os())
    }

    /// Run a one-command list and return its one reply.
    fn call_one(&self, cmd: Command<'_>) -> Result<Reply, DataPlaneError> {
        let mut replies = self.call(std::slice::from_ref(&cmd))?;
        Ok(replies.pop().expect("a list that succeeded replied to its command"))
    }

    /// Ingest a batch of event bytes (a one-command list).
    pub fn ingress(
        &self,
        payload: &[u8],
        encrypted: bool,
        is_power: bool,
        keystream_block: u32,
    ) -> Result<InvokeOutput, DataPlaneError> {
        match self.call_one(Command::Ingress { payload, encrypted, is_power, keystream_block })? {
            Reply::Ingress(ingested) => Ok(ingested),
            other => unreachable!("ingress replied {other:?}"),
        }
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

    /// Invoke a trusted primitive (a one-command list).
    pub fn invoke(
        &self,
        op: PrimitiveKind,
        inputs: &[OpaqueRef],
        params: PrimitiveParams,
        hints: &HintSet,
    ) -> Result<Vec<InvokeOutput>, DataPlaneError> {
        let inputs = inputs.iter().map(|r| Arg::Ref(*r)).collect();
        match self.call_one(Command::Invoke { op, inputs, params, hints: hints.clone() })? {
            Reply::Invoke(output) => Ok(vec![output]),
            other => unreachable!("invoke replied {other:?}"),
        }
    }

    /// Externalize a result (a one-command list).
    pub fn egress(&self, r: OpaqueRef) -> Result<EgressMessage, DataPlaneError> {
        match self.call_one(Command::Egress(Arg::Ref(r)))? {
            Reply::Egress(msg) => Ok(msg),
            other => unreachable!("egress replied {other:?}"),
        }
    }

    /// Retire a reference the control plane will no longer consume (a
    /// one-command list).
    pub fn retire(&self, r: OpaqueRef) -> Result<(), DataPlaneError> {
        self.call_one(Command::Retire(Arg::Ref(r))).map(drop)
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

    /// Seal a checkpoint snapshot of this tenant's window arrays and the
    /// control plane's cursor (a one-command list; only the sealed
    /// container crosses back).
    pub fn checkpoint(
        &self,
        manifest: &CheckpointManifest,
    ) -> Result<SealedSnapshot, DataPlaneError> {
        match self.call_one(Command::Checkpoint(manifest))? {
            Reply::Checkpoint(sealed) => Ok(sealed),
            other => unreachable!("checkpoint replied {other:?}"),
        }
    }

    /// Restore this gateway's tenant from a sealed checkpoint (a
    /// one-command list). `min_epoch` is the caller's epoch-retirement
    /// floor.
    pub fn restore(
        &self,
        quota_bytes: Option<u64>,
        sealed: &SealedSnapshot,
        min_epoch: u32,
    ) -> Result<RestoredTenant, DataPlaneError> {
        match self.call_one(Command::Restore { quota_bytes, sealed, min_epoch })? {
            Reply::Restore(restored) => Ok(restored),
            other => unreachable!("restore replied {other:?}"),
        }
    }
}

impl sbt_telemetry::CounterSource for TeeGateway {
    fn section(&self) -> String {
        format!("gateway.t{}", self.tenant.0)
    }

    fn collect(&self, emit: &mut dyn FnMut(&str, i64)) {
        self.meter.export(emit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbt_dataplane::DataPlaneConfig;
    use sbt_types::{Event, Watermark};
    use sbt_tz::Platform;

    fn gateway() -> TeeGateway {
        let dp = DataPlane::new(Platform::hikey(), DataPlaneConfig::default());
        TeeGateway::open(dp)
    }

    #[test]
    fn a_list_of_batches_is_charged_its_ingest_cost() {
        // The metered charge of an ingest list is the same function the
        // scheduler estimates with: one switch for the list, not one per
        // batch.
        let gw = gateway();
        let _ = gw.drain_cost();
        let payloads: Vec<Vec<u8>> = (0..4u32)
            .map(|b| {
                let events: Vec<Event> = (0..100).map(|i| Event::new(i % 5, i + b, 0)).collect();
                Event::slice_to_bytes(&events)
            })
            .collect();
        let cmds: Vec<Command<'_>> = payloads
            .iter()
            .map(|payload| Command::Ingress {
                payload,
                encrypted: false,
                is_power: false,
                keystream_block: 0,
            })
            .collect();
        let replies = gw.call(&cmds).unwrap();
        let expected = gw.ingest_cost(payloads.iter().map(|p| (p.len() as u64, 100)));
        assert_eq!(gw.drain_cost(), expected);
        let one_switch = CycleCost::ingest_list(gw.data_plane().platform().cost(), [], false);
        assert_eq!(expected, 4 * CycleCost::batch(1_200, 100) + one_switch);
        for reply in replies {
            let Reply::Ingress(out) = reply else { panic!("an ingress reply") };
            gw.retire(out.opaque).unwrap();
        }
    }

    #[test]
    fn a_windowed_batch_is_charged_what_its_segmented_batch_was() {
        // A windowed ingress is charged what `[Ingress, Segment, Retire]`
        // of the same batch was: the batch's ingest share, and each record
        // of its window arrays once, so deficit round-robin charges the
        // same.
        let events: Vec<Event> = (0..1_000).map(|i| Event::new(i % 5, i, i * 2)).collect();
        let payload = Event::slice_to_bytes(&events);
        let spec = sbt_types::WindowSpec::fixed(sbt_types::Duration::from_millis(700));
        let windowed = gateway();
        let _ = windowed.drain_cost();
        let replies = windowed
            .call(&[Command::WindowedIngress {
                payload: &payload,
                encrypted: false,
                is_power: false,
                keystream_block: 0,
                spec,
                side: 0,
                lane: 0,
            }])
            .unwrap();
        assert_eq!(replies[0].outputs().len(), 3, "the batch spans three windows");
        assert_eq!(
            windowed.drain_cost(),
            windowed.ingest_cost([(payload.len() as u64, 1_000)])
                + 1_000 * CycleCost::PROCESS_RECORD
        );
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
        gw.call(&[Command::Watermark(Watermark::from_secs(1))]).unwrap();
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
