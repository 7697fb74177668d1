//! Egress and retirement: results leave sealed, and retired references
//! release their memory.

use super::DataPlane;
use crate::egress::EgressMessage;
use crate::error::DataPlaneError;
use crate::opaque::OpaqueRef;
use sbt_attest::{AuditRecord, UArrayRef};
use sbt_types::TenantId;
use sbt_tz::WorldTracker;
use sbt_uarray::{UArrayId, UArrayState, PAGE_SIZE};

impl DataPlane {
    /// Externalize a result: encrypt, sign, audit, flush the audit log. The
    /// reference must belong to the calling tenant; egress sequence numbers
    /// are per tenant, so each tenant's result stream is independently
    /// replay-protected.
    pub fn egress(&self, tenant: TenantId, r: OpaqueRef) -> Result<EgressMessage, DataPlaneError> {
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
        let pool = self.lane_pool.read().clone();
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

    /// Retire a reference: the control plane will not consume it again. The
    /// uArray becomes reclaimable; memory is released in uGroup order and
    /// un-charged from the tenant's quota.
    pub fn retire(&self, tenant: TenantId, r: OpaqueRef) -> Result<(), DataPlaneError> {
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
}
