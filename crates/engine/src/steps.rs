//! Command lists built step by step.
//!
//! The engine sends each step of work to the TEE as one command list (one
//! world switch). [`Steps`] builds such a list from the shapes the engine
//! uses: record watermarks, consume inputs, gather partitions, egress a
//! result. A list succeeds or fails as a whole: when it fails, the data
//! plane releases its outputs and retires every held reference it names in
//! a `Retire`, so the caller gets the error and has nothing left to clean
//! up (a watermark it carried left no record either).

use crate::gateway::TeeGateway;
use sbt_dataplane::{Arg, Command, DataPlaneError, OpaqueRef, PrimitiveParams, Reply};
use sbt_types::{PrimitiveKind, Watermark};
use sbt_uarray::HintSet;

/// A command list under construction.
#[derive(Default)]
pub(crate) struct Steps<'a> {
    cmds: Vec<Command<'a>>,
}

impl<'a> Steps<'a> {
    /// Record watermarks on the trail, in order.
    pub fn watermarks(&mut self, wms: &[Watermark]) {
        self.cmds.extend(wms.iter().map(|wm| Command::Watermark(*wm)));
    }

    /// Run `op` over `inputs`, then retire the inputs; returns the output.
    pub fn consume(
        &mut self,
        op: PrimitiveKind,
        params: PrimitiveParams,
        hints: HintSet,
        inputs: Vec<Arg>,
    ) -> Arg {
        let out = Arg::out(self.cmds.len());
        self.cmds.push(Command::Invoke { op, inputs: inputs.clone(), params, hints });
        self.cmds.extend(inputs.into_iter().map(Command::Retire));
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
        self.cmds.push(Command::Egress(result));
        self.cmds.push(Command::Retire(result));
    }

    /// Run the list in one crossing.
    pub fn run(&self, gateway: &TeeGateway) -> Result<Vec<Reply>, DataPlaneError> {
        gateway.call(&self.cmds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
