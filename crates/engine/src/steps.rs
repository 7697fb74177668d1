//! Command lists paired with their cleanup.
//!
//! The engine sends each step of work to the TEE as one command list (one
//! world switch). When a list stops part-way, the engine owes the data
//! plane the retirement of every reference that is still live — exactly
//! what it would owe had it made the calls one by one. [`Steps`] records
//! that debt next to each command as the list is built, so the error arm
//! is the same one line wherever a list is run.

use crate::gateway::TeeGateway;
use sbt_dataplane::{Arg, Command, DataPlaneError, OpaqueRef, PrimitiveParams, Reply};
use sbt_types::PrimitiveKind;
use sbt_uarray::HintSet;

/// A command list under construction, each command paired with the
/// references still live should that command fail.
#[derive(Default)]
pub(crate) struct Steps<'a> {
    cmds: Vec<Command<'a>>,
    live_on_failure: Vec<Vec<Arg>>,
}

/// A list that stopped at a failing command.
pub(crate) struct Stopped {
    /// Replies of the commands that ran before it.
    pub done: Vec<Reply>,
    /// References its failure left live, for the caller to retire.
    pub live: Vec<OpaqueRef>,
    /// Its error.
    pub error: DataPlaneError,
}

impl<'a> Steps<'a> {
    /// Append a command and the references live if it fails.
    fn push(&mut self, cmd: Command<'a>, live_on_failure: Vec<Arg>) -> usize {
        self.cmds.push(cmd);
        self.live_on_failure.push(live_on_failure);
        self.cmds.len() - 1
    }

    /// Run `op` over `inputs`, then retire the inputs; returns the output.
    /// If the invocation fails every input is still live; if retiring input
    /// `i` fails, the inputs after it and the output are.
    pub fn consume(
        &mut self,
        op: PrimitiveKind,
        params: PrimitiveParams,
        hints: HintSet,
        inputs: Vec<Arg>,
    ) -> Arg {
        let out = Arg::out(self.cmds.len());
        self.push(Command::Invoke { op, inputs: inputs.clone(), params, hints }, inputs.clone());
        for (i, input) in inputs.iter().enumerate() {
            let mut live = inputs[i + 1..].to_vec();
            live.push(out);
            self.push(Command::Retire(*input), live);
        }
        out
    }

    /// Gather partitions into one: `None` for none, the partition itself
    /// for one (no command), an `op` (`Concat` or `MergeK`) consuming them
    /// otherwise.
    pub fn gather(&mut self, op: PrimitiveKind, refs: &[OpaqueRef]) -> Option<Arg> {
        match refs {
            [] => None,
            [one] => Some(Arg::Ref(*one)),
            _ => Some(self.consume(
                op,
                PrimitiveParams::None,
                HintSet::none(),
                refs.iter().map(|r| Arg::Ref(*r)).collect(),
            )),
        }
    }

    /// Seal `result` for upload, then retire it.
    pub fn egress(&mut self, result: Arg) {
        self.push(Command::Egress(result), vec![result]);
        self.push(Command::Retire(result), Vec::new());
    }

    /// Run the list in one crossing.
    pub fn run(&self, gateway: &TeeGateway) -> Result<Vec<Reply>, Stopped> {
        let replies = gateway.call(&self.cmds);
        let Some(error) = replies.failed else {
            return Ok(replies.done);
        };
        let live = self.live_on_failure[replies.done.len()]
            .iter()
            .filter_map(|arg| arg.resolve(&replies.done).ok())
            .collect();
        Err(Stopped { done: replies.done, live, error })
    }

    /// Run the list and resolve `result` among its outputs; on failure,
    /// the references left live and the error (a parallel task's outcome).
    pub fn run_to(
        &self,
        gateway: &TeeGateway,
        result: Arg,
    ) -> Result<OpaqueRef, (Vec<OpaqueRef>, DataPlaneError)> {
        let done = self.run(gateway).map_err(|s| (s.live, s.error))?;
        Ok(result.resolve(&done).expect("a list that ran names its own outputs"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_owes_the_unretired_inputs_and_the_output() {
        let (a, b) = (Arg::Ref(OpaqueRef(1)), Arg::Ref(OpaqueRef(2)));
        let mut steps = Steps::default();
        let out =
            steps.consume(PrimitiveKind::Join, PrimitiveParams::None, HintSet::none(), vec![a, b]);
        assert_eq!(out, Arg::out(0));
        assert_eq!(steps.live_on_failure, vec![vec![a, b], vec![b, out], vec![out]]);
        steps.egress(out);
        assert_eq!(steps.live_on_failure[3..], [vec![out], vec![]]);
    }

    #[test]
    fn concat_of_one_partition_costs_no_command() {
        let mut steps = Steps::default();
        for op in [PrimitiveKind::Concat, PrimitiveKind::MergeK] {
            assert_eq!(steps.gather(op, &[]), None);
            assert_eq!(steps.gather(op, &[OpaqueRef(7)]), Some(Arg::Ref(OpaqueRef(7))));
        }
        assert!(steps.cmds.is_empty());
        let parts = [OpaqueRef(7), OpaqueRef(8), OpaqueRef(9)];
        assert_eq!(steps.gather(PrimitiveKind::MergeK, &parts), Some(Arg::out(0)));
        assert!(matches!(steps.cmds[0], Command::Invoke { op: PrimitiveKind::MergeK, .. }));
        assert_eq!(steps.cmds.len(), 4);
    }
}
