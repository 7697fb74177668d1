//! Egress and retirement: results leave sealed, and retired references
//! release their memory.

use super::call::Staged;
use super::{DataPlane, TenantState};
use crate::command::{Arg, Command, Reply};
use crate::egress::EgressMessage;
use crate::error::DataPlaneError;
use crate::opaque::OpaqueRef;
use parking_lot::Mutex;
use sbt_attest::{AuditRecord, UArrayRef};
use sbt_types::TenantId;

impl DataPlane {
    /// Externalize a result: encrypt, sign, audit, flush the audit log. The
    /// reference must belong to the calling tenant; egress sequence numbers
    /// are per tenant, so each tenant's result stream is independently
    /// replay-protected. A one-command list.
    pub fn egress(&self, tenant: TenantId, r: OpaqueRef) -> Result<EgressMessage, DataPlaneError> {
        match self.call_one(tenant, Command::Egress(Arg::Ref(r)))? {
            Reply::Egress(msg) => Ok(msg),
            other => unreachable!("egress replied {other:?}"),
        }
    }

    /// The body of an `Egress` command: the result is sealed under the
    /// next sequence number, its record staged in `list` (the commit
    /// flushes the log after it).
    pub(super) fn run_egress(
        &self,
        list: &mut Staged<'_>,
        r: OpaqueRef,
    ) -> Result<EgressMessage, DataPlaneError> {
        let (tenant, ts) = (list.tenant, list.ts);
        // A forged or cross-tenant reference fails here, before a sequence
        // number is spent or any seal task exists.
        let (id, data) = self.lookup(ts, r)?;
        let (seq, keys) = {
            let mut t = ts.lock();
            let s = t.egress_seq;
            t.egress_seq += 1;
            (s, t.keys.clone())
        };
        let pool = self.lane_pool.read().clone();
        let msg = self.sealer.seal_egress(
            seq,
            data,
            &keys,
            pool.as_deref(),
            self.telemetry.tracer(),
            tenant.0,
        );
        list.egresses += 1;
        list.records
            .push(AuditRecord::Egress { ts_ms: self.now_ms(), data: UArrayRef(id.0 as u32) });
        Ok(msg)
    }

    /// Retire a reference: the control plane will not consume it again. The
    /// uArray becomes reclaimable; memory is released in uGroup order and
    /// un-charged from the tenant's quota. A one-command list.
    pub fn retire(&self, tenant: TenantId, r: OpaqueRef) -> Result<(), DataPlaneError> {
        self.call_one(tenant, Command::Retire(Arg::Ref(r))).map(drop)
    }

    /// The body of a `Retire` command, and of a failed list's unwinding:
    /// retirement publishes nothing, so it is never held back.
    pub(super) fn run_retire(
        &self,
        ts: &Mutex<TenantState>,
        r: OpaqueRef,
    ) -> Result<(), DataPlaneError> {
        let id = ts.lock().refs.revoke(r)?;
        let freed = self.alloc.lock().allocator.retire(id);
        self.free(&freed);
        Ok(())
    }
}
