//! Command lists: many entry-point calls carried by one world switch.
//!
//! A world switch costs the same whether the secure world then runs one
//! primitive or ten, so the control plane batches the calls of one step — a
//! group's batches, each decrypted straight into its windows; a window's
//! reduce, egress and retires — into one [`Command`] list and crosses once
//! for the whole list.
//!
//! Commands are plain data, never closures: the untrusted control plane
//! names what the data plane should do, it never hands the secure world
//! code to run. A command names its uArrays with an [`Arg`]: either an
//! opaque reference the control plane already holds, or an output of an
//! *earlier* command of the same list ([`Arg::Out`]), so a list can consume
//! what it produced without a round trip. Either way the reference is
//! resolved in the calling tenant's namespace like any input.
//!
//! A list is also the unit of failure. It runs in order, and what it would
//! publish — audit records, ingest-counter moves, egress messages — is held
//! back until its last command succeeds. If a command fails, the list
//! publishes nothing: [`DataPlane::call`](crate::DataPlane::call) returns
//! the error alone, releases every output the list produced, and retires
//! every held reference the list names in a [`Command::Retire`], whether or
//! not that command ran. Either way the caller then holds what it would
//! hold had the list succeeded, minus the outputs, so it has nothing to
//! clean up. [`Command::Checkpoint`] and [`Command::Restore`] run alone.

use crate::egress::EgressMessage;
use crate::error::DataPlaneError;
use crate::opaque::OpaqueRef;
use crate::params::{InvokeOutput, PrimitiveParams};
use crate::snapshot::{CheckpointManifest, RestoredTenant, SealedSnapshot};
use sbt_types::{PrimitiveKind, Watermark, WindowSpec};
use sbt_uarray::HintSet;

/// A uArray argument of a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// A reference the control plane holds.
    Ref(OpaqueRef),
    /// Output `idx` of command `cmd` of the same list; `cmd` must precede
    /// the command that names it.
    Out {
        /// Index of the producing command in the list.
        cmd: usize,
        /// Index of the output among that command's outputs.
        idx: usize,
    },
}

impl Arg {
    /// The first (for most commands, the only) output of command `cmd`.
    pub fn out(cmd: usize) -> Self {
        Arg::Out { cmd, idx: 0 }
    }

    /// The reference this argument names, given the replies of the
    /// commands that ran before it.
    pub fn resolve(self, done: &[Reply]) -> Result<OpaqueRef, DataPlaneError> {
        match self {
            Arg::Ref(r) => Ok(r),
            Arg::Out { cmd, idx } => done
                .get(cmd)
                .and_then(|reply| reply.outputs().get(idx))
                .map(|out| out.opaque)
                .ok_or(DataPlaneError::BadArguments("command output out of range")),
        }
    }
}

/// One entry-point call of a command list.
#[derive(Debug, Clone)]
pub enum Command<'a> {
    /// Ingest a batch ([`DataPlane::ingress`](crate::DataPlane::ingress)).
    Ingress {
        /// The batch's wire bytes.
        payload: &'a [u8],
        /// Whether the payload is encrypted under the source key.
        encrypted: bool,
        /// Whether the payload holds 16-byte power events.
        is_power: bool,
        /// CTR block offset the source encrypted the payload at.
        keystream_block: u32,
    },
    /// Ingest a batch straight into its windows: each window's slice is
    /// appended to the tenant's one open array for that (window, `side`,
    /// `lane`), which the batch opens if it is the first to reach it. The
    /// batch id is minted first and named by the trail's `Ingress` and
    /// `Windowing` records, but no array is stored under it. While the
    /// list runs it holds the arrays it appends to: another list that
    /// names one of them fails with `BadArguments`, and if this list fails
    /// each is cut back to its length before the list.
    WindowedIngress {
        /// The batch's wire bytes.
        payload: &'a [u8],
        /// Whether the payload is encrypted under the source key.
        encrypted: bool,
        /// Whether the payload holds 16-byte power events.
        is_power: bool,
        /// CTR block offset the source encrypted the payload at.
        keystream_block: u32,
        /// The windows the batch's events are cut into.
        spec: WindowSpec,
        /// The stream side the batch belongs to (0, or 1 for a join's
        /// secondary stream).
        side: u8,
        /// The appender: one array per (window, side, lane), so appenders
        /// running at once never share one.
        lane: u32,
    },
    /// Ingest a watermark.
    Watermark(Watermark),
    /// Run a trusted primitive ([`DataPlane::invoke`](crate::DataPlane::invoke)).
    Invoke {
        /// The primitive.
        op: PrimitiveKind,
        /// Its input uArrays.
        inputs: Vec<Arg>,
        /// Its scalar parameters.
        params: PrimitiveParams,
        /// Consumption hints for its outputs.
        hints: HintSet,
    },
    /// Seal a result for upload.
    Egress(Arg),
    /// Retire a reference.
    Retire(Arg),
    /// Seal a checkpoint of the tenant's window arrays and the control
    /// plane's cursor (alone in its list).
    Checkpoint(&'a CheckpointManifest),
    /// Restore the tenant from a sealed checkpoint (alone in its list).
    Restore {
        /// The tenant's quota after the restore.
        quota_bytes: Option<u64>,
        /// The sealed checkpoint.
        sealed: &'a SealedSnapshot,
        /// The caller's epoch-retirement floor.
        min_epoch: u32,
    },
}

impl Command<'_> {
    /// The uArray arguments this command names.
    fn args(&self) -> &[Arg] {
        match self {
            Command::Invoke { inputs, .. } => inputs,
            Command::Egress(arg) | Command::Retire(arg) => std::slice::from_ref(arg),
            _ => &[],
        }
    }
}

/// Refuse a list that puts `Checkpoint` or `Restore` beside another command
/// (both audit outside a list's held-back records), or that names an output
/// not produced before it: a forward or self reference, or an output of a
/// command that produces none (or, for an ingress or an invocation, more
/// than its one). A windowed ingress's outputs, one per window its batch
/// reaches, are counted only once the command has run.
pub(crate) fn check(cmds: &[Command<'_>]) -> Result<(), DataPlaneError> {
    if cmds.len() > 1
        && cmds.iter().any(|cmd| matches!(cmd, Command::Checkpoint(_) | Command::Restore { .. }))
    {
        return Err(DataPlaneError::BadArguments("checkpoint and restore run alone"));
    }
    for (i, cmd) in cmds.iter().enumerate() {
        for arg in cmd.args() {
            if let Arg::Out { cmd: producer, idx } = *arg {
                let produces = producer < i
                    && match cmds[producer] {
                        Command::Ingress { .. } | Command::Invoke { .. } => idx == 0,
                        Command::WindowedIngress { .. } => true,
                        _ => false,
                    };
                if !produces {
                    return Err(DataPlaneError::BadArguments(
                        "command names an output no earlier command produces",
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Whether command `at` of `cmds` consumes its input `input`: a `Retire`
/// of the list names that array, and no other argument of the list — of
/// another command, or another input of this one — names it. An argument
/// is compared by the reference it names, given `done`, the replies of the
/// commands before `at`; an output of `at` or of a later command is an
/// array that does not exist yet, so it never names an input.
pub(crate) fn consumes(cmds: &[Command<'_>], at: usize, input: usize, done: &[Reply]) -> bool {
    let named = |arg: &Arg| arg.resolve(done).ok();
    let Some(target) = cmds.get(at).and_then(|cmd| cmd.args().get(input)).and_then(named) else {
        return false;
    };
    let (mut retired, mut reads) = (false, 0);
    for cmd in cmds {
        let names = cmd.args().iter().filter(|arg| named(arg) == Some(target)).count();
        match cmd {
            Command::Retire(_) => retired |= names > 0,
            _ => reads += names,
        }
    }
    retired && reads == 1
}

/// What one command returned.
#[derive(Debug, Clone)]
pub enum Reply {
    /// The ingested batch.
    Ingress(InvokeOutput),
    /// A batch ingested into its windows.
    WindowedIngress {
        /// The batch's event count.
        events: usize,
        /// The window arrays it appended to, in window order: each one's
        /// reference (the same for every batch the array holds) and length.
        windows: Vec<InvokeOutput>,
    },
    /// The primitive's output.
    Invoke(InvokeOutput),
    /// The sealed result.
    Egress(EgressMessage),
    /// The sealed checkpoint.
    Checkpoint(SealedSnapshot),
    /// The restored tenant.
    Restore(RestoredTenant),
    /// A command with nothing to return (watermark, retire).
    Done,
}

impl Reply {
    /// The uArrays this command produced: what [`Arg::Out`] indexes.
    pub fn outputs(&self) -> &[InvokeOutput] {
        match self {
            Reply::Ingress(out) | Reply::Invoke(out) => std::slice::from_ref(out),
            Reply::WindowedIngress { windows, .. } => windows,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retire(arg: Arg) -> Command<'static> {
        Command::Retire(arg)
    }

    fn sort(input: Arg) -> Command<'static> {
        Command::Invoke {
            op: PrimitiveKind::Sort,
            inputs: vec![input],
            params: PrimitiveParams::None,
            hints: HintSet::none(),
        }
    }

    #[test]
    fn outputs_of_earlier_commands_are_accepted() {
        let ingress = Command::Ingress {
            payload: &[],
            encrypted: false,
            is_power: false,
            keystream_block: 0,
        };
        assert!(check(&[ingress.clone(), sort(Arg::out(0)), retire(Arg::out(1))]).is_ok());
        // A windowed batch's window count is only known once it has run.
        let windowed = Command::WindowedIngress {
            payload: &[],
            encrypted: false,
            is_power: false,
            keystream_block: 0,
            spec: WindowSpec::Global,
            side: 0,
            lane: 0,
        };
        assert!(check(&[windowed, retire(Arg::Out { cmd: 0, idx: 2 })]).is_ok());
        // An ingress and an invocation have one output each.
        assert!(check(&[ingress, retire(Arg::Out { cmd: 0, idx: 1 })]).is_err());
        assert!(
            check(&[sort(Arg::Ref(OpaqueRef(1))), retire(Arg::Out { cmd: 0, idx: 7 })]).is_err()
        );
    }

    #[test]
    fn forward_self_and_outputless_references_are_refused() {
        let held = Arg::Ref(OpaqueRef(1));
        assert!(check(&[retire(Arg::out(1)), sort(held)]).is_err());
        assert!(check(&[sort(Arg::out(0))]).is_err());
        assert!(check(&[retire(held), retire(Arg::out(0))]).is_err());
        assert!(check(&[retire(Arg::out(usize::MAX))]).is_err());
    }

    #[test]
    fn checkpoint_and_restore_are_refused_beside_another_command() {
        let manifest = CheckpointManifest::default();
        let sealed = SealedSnapshot {
            tenant: 1,
            ckpt_seq: 0,
            epoch: 0,
            ciphertext: Vec::new(),
            mac: sbt_crypto::Signature([0; 32]),
        };
        let restore = Command::Restore { quota_bytes: None, sealed: &sealed, min_epoch: 0 };
        let alone = "checkpoint and restore run alone";
        for lone in [Command::Checkpoint(&manifest), restore] {
            assert!(check(std::slice::from_ref(&lone)).is_ok());
            let other = retire(Arg::Ref(OpaqueRef(1)));
            let first = [lone.clone(), other.clone()];
            let last = [other, lone.clone()];
            assert_eq!(check(&first), Err(DataPlaneError::BadArguments(alone)));
            assert_eq!(check(&last), Err(DataPlaneError::BadArguments(alone)));
            assert_eq!(check(&[lone.clone(), lone]), Err(DataPlaneError::BadArguments(alone)));
        }
    }

    #[test]
    fn an_input_is_consumed_only_when_the_list_retires_it_and_reads_it_once() {
        let (a, b) = (Arg::Ref(OpaqueRef(1)), Arg::Ref(OpaqueRef(2)));
        let egress = |arg| Command::Egress(arg);
        let merge = |x, y| Command::Invoke {
            op: PrimitiveKind::MergeK,
            inputs: vec![x, y],
            params: PrimitiveParams::None,
            hints: HintSet::none(),
        };
        assert!(consumes(&[sort(a), retire(a)], 0, 0, &[]));
        assert!(!consumes(&[sort(a)], 0, 0, &[]), "not retired");
        assert!(!consumes(&[sort(a), retire(b)], 0, 0, &[]), "another array retired");
        assert!(!consumes(&[sort(a), egress(a), retire(a)], 0, 0, &[]), "read again");
        assert!(!consumes(&[egress(a), sort(a), retire(a)], 1, 0, &[Reply::Done]), "read before");
        assert!(!consumes(&[merge(a, a), retire(a)], 0, 0, &[]), "read twice by one command");
        assert!(consumes(&[merge(a, b), retire(a), retire(b)], 0, 1, &[]));
        assert!(!consumes(&[sort(a), retire(a)], 0, 1, &[]), "no such input");
        // An earlier command's output is named by its reference.
        let out = InvokeOutput { opaque: OpaqueRef(1), len: 1, window: None };
        let done = [Reply::Invoke(out)];
        let list = [sort(b), sort(Arg::out(0)), retire(a)];
        assert!(consumes(&list, 1, 0, &done), "`Out(0)` and `a` name one array");
        let list = [sort(b), sort(a), egress(Arg::out(0)), retire(a)];
        assert!(!consumes(&list, 1, 0, &done));
        // A later command's output does not exist yet: it names nothing.
        assert!(consumes(&[sort(a), retire(a), retire(Arg::out(0))], 0, 0, &[]));
    }

    #[test]
    fn outputs_resolve_against_the_replies_before_them() {
        let out = |r| InvokeOutput { opaque: OpaqueRef(r), len: 1, window: None };
        let done = [
            Reply::Ingress(out(10)),
            Reply::Invoke(out(20)),
            Reply::Done,
            Reply::WindowedIngress { events: 1, windows: vec![out(30), out(31)] },
        ];
        assert_eq!(Arg::out(0).resolve(&done), Ok(OpaqueRef(10)));
        assert_eq!(Arg::out(1).resolve(&done), Ok(OpaqueRef(20)));
        assert!(Arg::Out { cmd: 1, idx: 1 }.resolve(&done).is_err());
        assert!(Arg::out(2).resolve(&done).is_err());
        assert_eq!(Arg::Out { cmd: 3, idx: 1 }.resolve(&done), Ok(OpaqueRef(31)));
        assert!(Arg::out(4).resolve(&done).is_err());
        assert_eq!(Arg::Ref(OpaqueRef(5)).resolve(&done), Ok(OpaqueRef(5)));
    }
}
