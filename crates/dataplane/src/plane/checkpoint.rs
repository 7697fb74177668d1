//! Crash recovery: sealed checkpoints, restore and epoch retirement.

use super::{DataPlane, TenantState, WindowSlot, AUDIT_SEGMENT_RECORDS};
use crate::command::{Command, Reply};
use crate::error::DataPlaneError;
use crate::snapshot::{
    seal_snapshot, unseal_snapshot, CheckpointManifest, RestoredTenant, SealedSnapshot,
    SnapshotArray, SnapshotPlaintext, WindowArray,
};
use parking_lot::Mutex;
use sbt_attest::{AuditLog, AuditRecord, DataRef, UArrayRef};
use sbt_telemetry::SpanKind;
use sbt_types::{PrimitiveKind, TenantId, WindowId};
use sbt_uarray::{HintSet, UArray, UArrayId};

impl DataPlane {
    /// Seal a checkpoint of one tenant's streaming state.
    ///
    /// The control plane supplies its cursor ([`CheckpointManifest`]) at a
    /// quiescent point (no window mid-fire, no ingest in flight for this
    /// tenant); the data plane copies every array of the tenant's window
    /// map — the cut is its own — serializes the `SBTC` plaintext, chains its hash into the signed
    /// trail as an [`AuditRecord::Checkpoint`] record (flushed as its own
    /// segment, so the recorded audit cursor is exactly where a restored
    /// log resumes), and seals it under keys derived per
    /// `(tenant, epoch, ckpt_seq)`. Only the sealed container leaves the
    /// enclave. A one-command list.
    pub fn checkpoint_tenant(
        &self,
        tenant: TenantId,
        manifest: &CheckpointManifest,
    ) -> Result<SealedSnapshot, DataPlaneError> {
        match self.call_one(tenant, Command::Checkpoint(manifest))? {
            Reply::Checkpoint(sealed) => Ok(sealed),
            other => unreachable!("checkpoint replied {other:?}"),
        }
    }

    /// The body of a `Checkpoint` command, which runs alone: its record is
    /// appended and flushed here, not held back.
    pub(super) fn run_checkpoint(
        &self,
        tenant: TenantId,
        manifest: &CheckpointManifest,
    ) -> Result<SealedSnapshot, DataPlaneError> {
        let span_start = self.telemetry.tracer().start();
        let ts = self.tenant_state(tenant)?;
        let next_uarray_id = self.alloc.lock().next_id.0;
        let plain = {
            let mut t = ts.lock();
            let mut arrays = Vec::with_capacity(t.windows.len());
            for (&(win, side, lane), slot) in &t.windows {
                let array = slot.array.as_ref().ok_or(DataPlaneError::BadArguments(
                    "tenant was not quiescent during its checkpoint",
                ))?;
                let events = array.as_slice().to_vec();
                arrays.push(SnapshotArray { win_no: win.0 as u32, side, lane, events });
            }
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
                batches: manifest.batches,
                next_uarray_id,
                arrays,
            }
        };
        // The seal runs with the tenant unlocked: its lanes join by helping,
        // and a helping thread may pick up any queued task.
        let pool = self.lane_pool.read().clone();
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
    /// its retained prefix and detect rollback; every restored window array
    /// is re-committed to secure memory, re-entered into the window map
    /// (its lane's next batch appends to it) and re-announced to the trail
    /// as an ordinary ingress + windowing pair.
    ///
    /// A restore that fails after registering the tenant (a quota rejection
    /// mid-recommit, say) unregisters it again and frees what it
    /// re-committed, so the restore can be retried. A one-command list.
    pub fn restore_tenant(
        &self,
        tenant: TenantId,
        quota_bytes: Option<u64>,
        sealed: &SealedSnapshot,
        min_epoch: u32,
    ) -> Result<RestoredTenant, DataPlaneError> {
        match self.call_one(tenant, Command::Restore { quota_bytes, sealed, min_epoch })? {
            Reply::Restore(restored) => Ok(restored),
            other => unreachable!("restore replied {other:?}"),
        }
    }

    /// The body of a `Restore` command, which runs alone: it registers the
    /// tenant, and appends its records itself.
    pub(super) fn run_restore(
        &self,
        tenant: TenantId,
        quota_bytes: Option<u64>,
        sealed: &SealedSnapshot,
        min_epoch: u32,
    ) -> Result<RestoredTenant, DataPlaneError> {
        let span_start = self.telemetry.tracer().start();
        if sealed.tenant != tenant.0 {
            return Err(DataPlaneError::SnapshotRejected("snapshot belongs to another tenant"));
        }
        let (plain, hash) = unseal_snapshot(&self.config.master, sealed)?;
        let horizon = min_epoch.max(plain.retired_before);
        if plain.epoch < horizon {
            return Err(DataPlaneError::RetiredEpoch { epoch: plain.epoch, horizon });
        }
        let keys = self.config.master.tenant_keys(tenant.0, plain.epoch);
        let audit = AuditLog::resume(
            keys.signing.clone(),
            AUDIT_SEGMENT_RECORDS,
            tenant,
            plain.epoch,
            plain.audit_cursor,
        );
        let state = TenantState {
            egress_seq: plain.egress_seq,
            events_ingested: plain.events_ingested,
            bytes_ingested: plain.bytes_ingested,
            next_ckpt_seq: plain.ckpt_seq + 1,
            last_ckpt_epoch: Some(plain.epoch),
            retired_before: horizon,
            ..TenantState::new(tenant, keys, audit)
        };
        let ts = self.install_tenant(tenant, state, quota_bytes)?;
        {
            // A fresh plane mints ids from zero; lift the floor past every
            // id the trail prefix can reference so the suffix never reuses
            // one in replay.
            let mut alloc = self.alloc.lock();
            if alloc.next_id.0 < plain.next_uarray_id {
                alloc.next_id = UArrayId(plain.next_uarray_id);
            }
        }
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
        let (windows, events_restored) = match self.recommit_windows(tenant, &ts, plain.arrays) {
            Ok(recommitted) => recommitted,
            Err(e) => {
                // Unwind the registration: the tenant never resumed, so it
                // leaves nothing behind, not even a departure record.
                self.tenants.write().remove(&tenant);
                ts.lock().departed = true;
                self.sweep_tenant(tenant);
                return Err(e);
            }
        };
        self.telemetry.note_checkpoint(tenant.0);
        self.telemetry.tracer().record(SpanKind::Restore, tenant.0, span_start, events_restored);
        Ok(RestoredTenant {
            tenant,
            ckpt_seq: plain.ckpt_seq,
            epoch: plain.epoch,
            left_watermark_ms: plain.left_watermark_ms,
            right_watermark_ms: plain.right_watermark_ms,
            next_unexecuted: plain.next_unexecuted,
            batches: plain.batches,
            windows,
            events_restored,
        })
    }

    /// Re-commit every window array of a restored tenant, re-enter it into
    /// the window map and re-announce it: replay sees an ordinary ingress +
    /// windowing pair per array and rebuilds its lineage from there.
    /// Returns the arrays with fresh references and the events
    /// re-committed.
    fn recommit_windows(
        &self,
        tenant: TenantId,
        ts: &Mutex<TenantState>,
        snapshot: Vec<SnapshotArray>,
    ) -> Result<(Vec<WindowArray>, u64), DataPlaneError> {
        let mut windows = Vec::with_capacity(snapshot.len());
        let mut events_restored = 0u64;
        for a in snapshot {
            events_restored += a.events.len() as u64;
            let (pre_id, id) = (self.next_id(), self.next_id());
            let mut array = UArray::with_reservation(id, a.events.len());
            array.extend_from_slice(&a.events, &self.pager)?;
            let producer = PrimitiveKind::Segment.code() as u64;
            let charge = [(id, array.committed_bytes())];
            let admitted = self.alloc.lock().allocator.admit(
                tenant.owner_tag(),
                producer,
                &charge,
                &HintSet::none(),
            );
            if admitted.is_err() {
                array.reclaim(&self.pager);
                return Err(DataPlaneError::QuotaExceeded);
            }
            let window = WindowId(a.win_no as u64);
            let opaque = {
                let mut t = ts.lock();
                let opaque = t.refs.mint(id);
                t.windows.insert(
                    (window, a.side, a.lane),
                    WindowSlot { id, opaque, array: Some(array) },
                );
                opaque
            };
            let (ts_ms, input) = (self.now_ms(), UArrayRef(pre_id.0 as u32));
            self.append_audit(ts, AuditRecord::Ingress { ts_ms, data: DataRef::UArray(input) });
            let output = UArrayRef(id.0 as u32);
            self.append_audit(
                ts,
                AuditRecord::Windowing { ts_ms, input, win_no: a.win_no as u16, output },
            );
            windows.push(WindowArray { window, side: a.side, lane: a.lane, opaque });
        }
        Ok((windows, events_restored))
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
}
