//! The command-list entry point: one world switch, many calls.

use super::DataPlane;
use crate::command::{self, Command, Replies, Reply};
use crate::error::DataPlaneError;
use sbt_telemetry::SpanKind;
use sbt_types::TenantId;
use sbt_tz::WorldTracker;

impl DataPlane {
    /// Run a command list for `tenant` inside one crossing: each command
    /// through the same body as its single entry point, in list order, so
    /// the audit records are those of the calls made one by one. The list
    /// stops at the first failing command; a list naming an output that no
    /// earlier command produces is refused before any command runs.
    pub fn call(&self, tenant: TenantId, cmds: &[Command<'_>]) -> Replies {
        WorldTracker::assert_secure("DataPlane::call");
        let mut replies = Replies { done: Vec::with_capacity(cmds.len()), failed: None };
        if let Err(e) = command::check(cmds) {
            replies.failed = Some(e);
            return replies;
        }
        for cmd in cmds {
            match self.run_command(tenant, cmd, &replies.done) {
                Ok(reply) => replies.done.push(reply),
                Err(e) => {
                    replies.failed = Some(e);
                    break;
                }
            }
        }
        replies
    }

    /// Run one command; `done` holds the replies of the commands before it.
    fn run_command(
        &self,
        tenant: TenantId,
        cmd: &Command<'_>,
        done: &[Reply],
    ) -> Result<Reply, DataPlaneError> {
        let tracer = self.telemetry.tracer();
        Ok(match cmd {
            Command::Ingress { payload, encrypted, is_power, keystream_block } => {
                let start = tracer.start();
                let out = self.ingress(tenant, payload, *encrypted, *is_power, *keystream_block)?;
                tracer.record(SpanKind::IngestBatch, tenant.0, start, out.len as u64);
                Reply::Ingress(out)
            }
            Command::Watermark(wm) => {
                self.ingress_watermark(tenant, *wm)?;
                Reply::Done
            }
            Command::Invoke { op, inputs, params, hints } => {
                let refs =
                    inputs.iter().map(|arg| arg.resolve(done)).collect::<Result<Vec<_>, _>>()?;
                Reply::Invoke(self.invoke(tenant, *op, &refs, *params, hints)?)
            }
            Command::Egress(arg) => {
                let start = tracer.start();
                let msg = self.egress(tenant, arg.resolve(done)?)?;
                tracer.record(SpanKind::EgressSeal, tenant.0, start, msg.ciphertext.len() as u64);
                Reply::Egress(msg)
            }
            Command::Retire(arg) => {
                self.retire(tenant, arg.resolve(done)?)?;
                Reply::Done
            }
            Command::UncountIngest { events, bytes } => {
                self.uncount_ingest(tenant, *events, *bytes);
                Reply::Done
            }
            Command::Checkpoint(manifest) => {
                Reply::Checkpoint(self.checkpoint_tenant(tenant, manifest)?)
            }
            Command::Restore { quota_bytes, sealed, min_epoch } => {
                Reply::Restore(self.restore_tenant(tenant, *quota_bytes, sealed, *min_epoch)?)
            }
        })
    }
}
