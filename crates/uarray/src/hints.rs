//! Consumption hints supplied by the untrusted control plane (§6.2).
//!
//! When the control plane invokes a trusted primitive it may attach optional
//! hints describing how the primitive's *output* uArrays will be consumed in
//! the future:
//!
//! * *consumed-after* (`b1 ⇐ b2`): the consumer of `b2` will be scheduled
//!   after the consumer of `b1`; the allocator then places both on the same
//!   uGroup so they can be reclaimed consecutively.
//! * *consumed-in-parallel* (`‖k`): `k` sibling outputs will be consumed by
//!   independent workers; the allocator places them in separate uGroups so a
//!   straggling consumer does not block reclamation of the others.
//!
//! Hints are untrusted input: they influence only placement policy. The data
//! plane refuses malformed ones (more hints than outputs, a sibling index
//! outside `0..k`, a predecessor the caller does not own) and forwards the
//! rest into audit records so the cloud verifier can detect systematically
//! misleading hints in retrospect (§7).

use crate::uarray::UArrayId;

/// One placement hint attached to a primitive invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsumptionHint {
    /// The new uArray will be consumed after the given existing uArray.
    ConsumedAfter(UArrayId),
    /// The new uArray is one of `k` siblings that will be consumed by `k`
    /// parallel workers; `index` identifies which sibling this hint is for.
    ConsumedInParallel {
        /// Number of sibling outputs consumed in parallel.
        k: u32,
        /// This output's index among the siblings (`0..k`).
        index: u32,
    },
}

impl ConsumptionHint {
    /// Encode the hint into the 64-bit field used by audit records
    /// (Figure 6): the top bit distinguishes the two kinds.
    pub fn encode(&self) -> u64 {
        match *self {
            ConsumptionHint::ConsumedAfter(id) => id.0 & 0x7FFF_FFFF_FFFF_FFFF,
            ConsumptionHint::ConsumedInParallel { k, index } => {
                (1u64 << 63) | ((k as u64) << 32) | index as u64
            }
        }
    }

    /// Decode a hint previously encoded with [`encode`].
    ///
    /// [`encode`]: ConsumptionHint::encode
    pub fn decode(raw: u64) -> ConsumptionHint {
        if raw >> 63 == 1 {
            ConsumptionHint::ConsumedInParallel {
                k: ((raw >> 32) & 0x7FFF_FFFF) as u32,
                index: (raw & 0xFFFF_FFFF) as u32,
            }
        } else {
            ConsumptionHint::ConsumedAfter(UArrayId(raw))
        }
    }
}

/// The set of hints accompanying one primitive invocation, one entry per
/// output uArray position (outputs without a hint carry `None`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HintSet {
    hints: Vec<Option<ConsumptionHint>>,
}

impl HintSet {
    /// An empty hint set (no outputs annotated).
    pub fn none() -> Self {
        HintSet { hints: Vec::new() }
    }

    /// A hint set with a single consumed-after annotation for the first
    /// output.
    pub fn consumed_after(predecessor: UArrayId) -> Self {
        HintSet { hints: vec![Some(ConsumptionHint::ConsumedAfter(predecessor))] }
    }

    /// A hint set for a single-output invocation whose output is sibling
    /// `index` of `k` consumed in parallel — what each of `k` per-partition
    /// invocations passes, one `index` apiece.
    pub fn consumed_in_parallel(k: u32, index: u32) -> Self {
        HintSet { hints: vec![Some(ConsumptionHint::ConsumedInParallel { k, index })] }
    }

    /// Add a hint for the next output position.
    pub fn push(&mut self, hint: Option<ConsumptionHint>) {
        self.hints.push(hint);
    }

    /// Hint for output position `i`, if any.
    pub fn get(&self, i: usize) -> Option<ConsumptionHint> {
        self.hints.get(i).copied().flatten()
    }

    /// Number of annotated output positions.
    pub fn len(&self) -> usize {
        self.hints.len()
    }

    /// Whether no output carries a hint.
    pub fn is_empty(&self) -> bool {
        self.hints.iter().all(Option::is_none)
    }

    /// Iterate over all present hints.
    pub fn iter(&self) -> impl Iterator<Item = ConsumptionHint> + '_ {
        self.hints.iter().filter_map(|h| *h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_consumed_after() {
        let h = ConsumptionHint::ConsumedAfter(UArrayId(123_456_789));
        assert_eq!(ConsumptionHint::decode(h.encode()), h);
    }

    #[test]
    fn encode_decode_consumed_in_parallel() {
        let h = ConsumptionHint::ConsumedInParallel { k: 8, index: 5 };
        assert_eq!(ConsumptionHint::decode(h.encode()), h);
    }

    #[test]
    fn encodings_are_distinct() {
        let a = ConsumptionHint::ConsumedAfter(UArrayId(1)).encode();
        let b = ConsumptionHint::ConsumedInParallel { k: 0, index: 1 }.encode();
        assert_ne!(a, b);
    }

    #[test]
    fn hint_set_constructors() {
        let s = HintSet::none();
        assert!(s.is_empty());
        assert_eq!(s.get(0), None);

        let s = HintSet::consumed_after(UArrayId(9));
        assert_eq!(s.get(0), Some(ConsumptionHint::ConsumedAfter(UArrayId(9))));
        assert!(!s.is_empty());

        let s = HintSet::consumed_in_parallel(4, 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0), Some(ConsumptionHint::ConsumedInParallel { k: 4, index: 2 }));
        assert_eq!(s.get(1), None);
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn push_and_get_mixed() {
        let mut s = HintSet::none();
        s.push(None);
        s.push(Some(ConsumptionHint::ConsumedAfter(UArrayId(3))));
        assert_eq!(s.get(0), None);
        assert_eq!(s.get(1), Some(ConsumptionHint::ConsumedAfter(UArrayId(3))));
        assert_eq!(s.get(2), None);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 2);
    }
}
