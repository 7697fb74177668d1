//! The command-list entry point: one world switch, many calls, one outcome.
//!
//! Every way into the data plane is a command list; the single-call methods
//! (`ingress`, `invoke`, `egress`, `retire`, …) are one-command lists. A
//! list runs its commands in order, each through its own body, and holds
//! back what it would publish — its audit records, its ingest, egress and
//! audit counts, and its egress messages — until its last command
//! succeeds. It then commits them under one tenant lock, unless the tenant
//! departed meanwhile.
//!
//! A list that fails publishes nothing. `call` returns the error alone,
//! releases every output the list produced, cuts every window array it
//! appended to back to its length before the list (an array the list
//! opened goes), and retires every held reference the list names in a
//! `Retire`, whether or not that command ran. An egress sequence number
//! the list took is given back if no other list took one since. Retires
//! themselves are not deferred: a window's tail list frees each input as
//! soon as it is consumed.
//!
//! A consumed input's pages pass to its consumer. When a list retires an
//! input that no other command of it reads (`command::consumes`: what
//! `Steps::consume` emits for every chain step), and the data plane holds
//! the input's only handle — a window array, or a store entry nobody else
//! holds — a `Sort` rewrites the input in its own pages: its output is the
//! input's records and pages under a new id, and the allocator moves the
//! input's ledger bytes to the output in one call. From then until the
//! list retires it, the input is closed to every other list, whose reads
//! and retires of it fail. Otherwise — the input read again, shared, or
//! not retired, as in every one-command `invoke` — the output is a fresh
//! array holding a copy of the input, sorted by the same kernel. Records,
//! ids and hints are the same either way; only pages move. If the list
//! then fails, the output is released without the pages it took over, and
//! the input's retire gives those back.

use super::ingress::{Batch, Held};
use super::{DataPlane, TenantState, WindowSlot};
use crate::command::{self, Arg, Command, Reply};
use crate::error::DataPlaneError;
use parking_lot::Mutex;
use sbt_attest::AuditRecord;
use sbt_telemetry::SpanKind;
use sbt_types::TenantId;
use sbt_tz::WorldTracker;
use sbt_uarray::{UArrayId, PAGE_SIZE};

/// A command list in flight: the tenant it runs for, and what it would
/// publish, held back until its last command succeeds.
pub(super) struct Staged<'a> {
    pub(super) tenant: TenantId,
    pub(super) ts: &'a Mutex<TenantState>,
    /// Audit records, in list order.
    pub(super) records: Vec<AuditRecord>,
    /// Events the list ingested.
    pub(super) events: u64,
    /// Plaintext bytes the list ingested.
    pub(super) bytes: u64,
    /// Results the list egressed.
    pub(super) egresses: u64,
    /// The window arrays the list appends to, out of the tenant's window
    /// map until the list commits or unwinds.
    pub(super) held: Vec<Held>,
    /// The consumed inputs the list took over (the tenant's `consuming`
    /// entries that are this list's to retire).
    pub(super) taken: Vec<UArrayId>,
}

impl DataPlane {
    /// Run a command list for `tenant` inside one crossing, all or nothing:
    /// on success the replies, one per command in list order, and the audit
    /// records of the calls made one by one; on failure only the error of
    /// the command that failed, with the list unwound (see the module
    /// docs). A list naming an output that no earlier command produces, or
    /// putting `Checkpoint` or `Restore` beside another command, is refused
    /// before any command runs, and unwound like any other failed list.
    pub fn call(
        &self,
        tenant: TenantId,
        cmds: &[Command<'_>],
    ) -> Result<Vec<Reply>, DataPlaneError> {
        WorldTracker::assert_secure("DataPlane::call");
        // Checkpoint and Restore run alone and append and flush their own
        // records; Restore creates the tenant it runs for.
        match cmds {
            [Command::Checkpoint(manifest)] => {
                return Ok(vec![Reply::Checkpoint(self.run_checkpoint(tenant, manifest)?)]);
            }
            [Command::Restore { quota_bytes, sealed, min_epoch }] => {
                let restored = self.run_restore(tenant, *quota_bytes, sealed, *min_epoch)?;
                return Ok(vec![Reply::Restore(restored)]);
            }
            _ => {}
        }
        let ts = self.tenant_state(tenant)?;
        let mut list = Staged {
            tenant,
            ts: &ts,
            records: Vec::new(),
            events: 0,
            bytes: 0,
            egresses: 0,
            held: Vec::new(),
            taken: Vec::new(),
        };
        let mut done = Vec::with_capacity(cmds.len());
        let ran = command::check(cmds).and_then(|()| {
            (0..cmds.len()).try_for_each(|at| {
                let reply = self.run_command(&mut list, cmds, at, &done)?;
                done.push(reply);
                Ok(())
            })
        });
        match ran.and_then(|()| self.commit(&mut list)) {
            Ok(()) => Ok(done),
            Err(e) => {
                self.unwind(cmds, &done, list);
                Err(e)
            }
        }
    }

    /// Run a one-command list and return its one reply.
    pub(super) fn call_one(
        &self,
        tenant: TenantId,
        cmd: Command<'_>,
    ) -> Result<Reply, DataPlaneError> {
        let mut replies = self.call(tenant, std::slice::from_ref(&cmd))?;
        Ok(replies.pop().expect("a list that succeeded replied to its command"))
    }

    /// Run command `at` of `cmds`; `done` holds the replies of the
    /// commands before it.
    fn run_command(
        &self,
        list: &mut Staged<'_>,
        cmds: &[Command<'_>],
        at: usize,
        done: &[Reply],
    ) -> Result<Reply, DataPlaneError> {
        let tracer = self.telemetry.tracer();
        let tenant = list.tenant.0;
        Ok(match &cmds[at] {
            Command::Ingress { payload, encrypted, is_power, keystream_block } => {
                let start = tracer.start();
                let batch = Batch {
                    payload,
                    encrypted: *encrypted,
                    is_power: *is_power,
                    keystream_block: *keystream_block,
                };
                let out = self.run_ingress(list, batch)?;
                tracer.record(SpanKind::IngestBatch, tenant, start, out.len as u64);
                Reply::Ingress(out)
            }
            Command::WindowedIngress {
                payload,
                encrypted,
                is_power,
                keystream_block,
                spec,
                side,
                lane,
            } => {
                let start = tracer.start();
                let batch = Batch {
                    payload,
                    encrypted: *encrypted,
                    is_power: *is_power,
                    keystream_block: *keystream_block,
                };
                let (events, windows) =
                    self.run_windowed_ingress(list, batch, *spec, (*side, *lane))?;
                tracer.record(SpanKind::IngestBatch, tenant, start, events as u64);
                Reply::WindowedIngress { events, windows }
            }
            Command::Watermark(wm) => {
                self.run_watermark(list, *wm);
                Reply::Done
            }
            Command::Invoke { op, inputs, params, hints } => {
                let refs =
                    inputs.iter().map(|arg| arg.resolve(done)).collect::<Result<Vec<_>, _>>()?;
                let take_first = command::consumes(cmds, at, 0, done);
                Reply::Invoke(self.run_invoke(list, *op, &refs, *params, hints, take_first)?)
            }
            Command::Egress(arg) => {
                let start = tracer.start();
                let msg = self.run_egress(list, arg.resolve(done)?)?;
                tracer.record(SpanKind::EgressSeal, tenant, start, msg.ciphertext.len() as u64);
                Reply::Egress(msg)
            }
            Command::Retire(arg) => {
                self.run_retire(list.ts, arg.resolve(done)?, &list.taken)?;
                Reply::Done
            }
            Command::Checkpoint(_) | Command::Restore { .. } => {
                unreachable!("checkpoint and restore run alone, before any list")
            }
        })
    }

    /// Publish a list's held-back records and outcome counts, and put the
    /// window arrays it grew back into the window map, under one tenant
    /// lock, unless the tenant departed while the list ran. The log is
    /// flushed right after each egress record, as the paper requires of
    /// externalization.
    fn commit(&self, list: &mut Staged<'_>) -> Result<(), DataPlaneError> {
        let mut t = list.ts.lock();
        if t.departed {
            return Err(DataPlaneError::UnknownTenant);
        }
        t.events_ingested += list.events;
        t.bytes_ingested += list.bytes;
        for h in list.held.drain(..) {
            t.windows
                .insert(h.key, WindowSlot { id: h.id, opaque: h.opaque, array: Some(h.array) });
        }
        let records = list.records.len() as u64;
        self.stats.record_commit(list.events, list.bytes, list.egresses, records);
        for record in list.records.drain(..) {
            let externalized = matches!(record, AuditRecord::Egress { .. });
            if let Some(segment) = t.audit.append(record) {
                t.segments.push(segment);
            }
            if externalized {
                if let Some(segment) = t.audit.flush() {
                    t.segments.push(segment);
                }
            }
        }
        Ok(())
    }

    /// Unwind a failed list: cut the window arrays it appended to back to
    /// their length before it, release the outputs it produced, retire the
    /// held references its `Retire`s name, and give back its egress
    /// sequence numbers if they are still the last ones taken. A reference
    /// the list already retired, one that was never the tenant's, or one
    /// another list is consuming, fails its retire here harmlessly.
    fn unwind(&self, cmds: &[Command<'_>], done: &[Reply], list: Staged<'_>) {
        let Staged { ts, held, taken, .. } = list;
        for mut h in held {
            {
                let mut alloc = self.alloc.lock();
                if alloc.allocator.owner_of(h.id).is_some() {
                    h.array.truncate(h.before, &self.pager);
                    alloc.allocator.resize(h.id, h.array.committed_bytes());
                } else {
                    // Never charged, or swept with its departed tenant,
                    // which gave back the ledger's pages: the rest are the
                    // list's.
                    self.pager.release_pages((h.array.committed_bytes() - h.ledgered) / PAGE_SIZE);
                }
            }
            let mut t = ts.lock();
            if h.before > 0 {
                t.windows
                    .insert(h.key, WindowSlot { id: h.id, opaque: h.opaque, array: Some(h.array) });
            } else {
                // Opened by this list: it goes, reference and all.
                t.windows.remove(&h.key);
                let _ = t.refs.revoke(h.opaque);
                drop(t);
                let freed = self.alloc.lock().allocator.retire(h.id);
                self.free(&freed);
            }
        }
        // A windowed ingress replies the window arrays it appended to; they
        // were cut back above, not produced.
        let produced = done
            .iter()
            .filter(|reply| !matches!(reply, Reply::WindowedIngress { .. }))
            .flat_map(Reply::outputs)
            .map(|out| out.opaque);
        let named = cmds.iter().filter_map(|cmd| match cmd {
            Command::Retire(Arg::Ref(r)) => Some(*r),
            _ => None,
        });
        for r in produced.chain(named) {
            let _ = self.run_retire(ts, r, &taken);
        }
        // Every input the list took over is named by one of its retires;
        // should one still be open, the control plane's own retire frees it.
        ts.lock().consuming.retain(|id| !taken.contains(id));
        let mut seqs = done.iter().filter_map(|reply| match reply {
            Reply::Egress(msg) => Some(msg.seq),
            _ => None,
        });
        if let Some(first) = seqs.next() {
            let taken = 1 + seqs.count() as u64;
            let mut t = ts.lock();
            if t.egress_seq == first + taken {
                t.egress_seq = first;
            }
        }
    }
}
