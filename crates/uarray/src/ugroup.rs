//! uGroups: physical co-location of uArrays for consecutive reclamation
//! (§6.2, Figure 5).
//!
//! A uGroup spans one (large) virtual reservation and holds a sequence of
//! uArrays in placement order. The allocator reclaims memory by scanning
//! from the *front* of the group and releasing uArrays while they are
//! retired — so placement order must match future consumption order, which
//! is exactly what the consumption hints communicate.
//!
//! A group records only that order; each member's owner, size and state
//! live in the allocator's ledger.
//! The grouping is purely a placement/reclamation concern: trusted
//! primitives and the control plane never observe it.

use crate::uarray::UArrayId;
use std::collections::VecDeque;

/// Identifier of a uGroup within one allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UGroupId(pub u64);

/// A uGroup: an ordered sequence of uArrays sharing one virtual reservation.
#[derive(Debug)]
pub struct UGroup {
    id: UGroupId,
    /// Base virtual address of the group's reservation (for reporting).
    base_addr: u64,
    /// Members in placement order; the reclaim frontier is the front.
    members: VecDeque<UArrayId>,
}

impl UGroup {
    /// Create an empty group over the reservation starting at `base_addr`.
    pub fn new(id: UGroupId, base_addr: u64) -> Self {
        UGroup { id, base_addr, members: VecDeque::new() }
    }

    /// The group's identifier.
    pub fn id(&self) -> UGroupId {
        self.id
    }

    /// Base virtual address of the group's reservation.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Number of live (not yet reclaimed) members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group has no live members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Append a new member to the end of the group.
    pub fn append(&mut self, id: UArrayId) {
        self.members.push_back(id);
    }

    /// The member at the reclaim frontier.
    pub fn front(&self) -> Option<UArrayId> {
        self.members.front().copied()
    }

    /// The last member placed.
    pub fn back(&self) -> Option<UArrayId> {
        self.members.back().copied()
    }

    /// Remove a member from wherever it sits: the front when it is
    /// reclaimed, anywhere when its owner is torn down. Returns whether it
    /// was a member.
    pub fn remove(&mut self, id: UArrayId) -> bool {
        match self.members.iter().position(|m| *m == id) {
            Some(at) => self.members.remove(at).is_some(),
            None => false,
        }
    }

    /// Bytes of members that are retired but cannot yet be reclaimed because
    /// an earlier member is still live — the memory the hint-guided
    /// placement exists to minimize (Figure 10). `retired_bytes` gives a
    /// retired member's committed bytes and `None` for a live one.
    pub fn stuck_bytes(&self, retired_bytes: impl Fn(UArrayId) -> Option<u64>) -> u64 {
        self.members
            .iter()
            .skip_while(|id| retired_bytes(**id).is_some())
            .filter_map(|id| retired_bytes(*id))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(members: &[u64]) -> UGroup {
        let mut g = UGroup::new(UGroupId(1), 0x1000);
        for id in members {
            g.append(UArrayId(*id));
        }
        g
    }

    #[test]
    fn append_and_reclaim_in_order() {
        let mut g = group(&[5, 6, 7]);
        assert_eq!((g.front(), g.back(), g.len()), (Some(UArrayId(5)), Some(UArrayId(7)), 3));
        // Reclaiming from the front yields the members in placement order.
        let mut reclaimed = Vec::new();
        while let Some(id) = g.front() {
            assert!(g.remove(id));
            reclaimed.push(id.0);
        }
        assert_eq!(reclaimed, vec![5, 6, 7]);
        assert!(g.is_empty() && g.back().is_none());
    }

    #[test]
    fn tail_and_member_ids() {
        let mut g = group(&[5]);
        g.append(UArrayId(6));
        // The tail is the last member placed; the front the first.
        assert_eq!((g.front(), g.back()), (Some(UArrayId(5)), Some(UArrayId(6))));
        assert_eq!(g.base_addr(), 0x1000);
        assert_eq!(g.id(), UGroupId(1));
    }

    #[test]
    fn unknown_member_updates_are_ignored() {
        let mut g = group(&[1]);
        assert!(!g.remove(UArrayId(99)));
        assert_eq!((g.front(), g.len()), (Some(UArrayId(1)), 1));
        // A retired non-member does not count towards the stuck bytes.
        assert_eq!(g.stuck_bytes(|id| (id == UArrayId(99)).then_some(123)), 0);
    }

    #[test]
    fn remove_member_frees_from_anywhere() {
        let mut g = group(&[1, 2, 3]);
        // Remove the middle member, not at the frontier.
        assert!(g.remove(UArrayId(2)));
        assert_eq!((g.front(), g.back(), g.len()), (Some(UArrayId(1)), Some(UArrayId(3)), 2));
        assert!(!g.remove(UArrayId(2)), "already gone");
    }

    #[test]
    fn stuck_bytes_only_counts_blocked_retirees() {
        let g = group(&[1, 2, 3, 4]);
        // Members 3 and 4 retired behind live 1 and 2: stuck.
        let retired = |ids: &'static [u64]| move |id: UArrayId| ids.contains(&id.0).then_some(100);
        assert_eq!(g.stuck_bytes(retired(&[3, 4])), 200);
        // A retired member at the frontier is reclaimable, not stuck.
        assert_eq!(g.stuck_bytes(retired(&[1, 3, 4])), 200);
        assert_eq!(g.stuck_bytes(retired(&[1, 2, 3, 4])), 0);
    }
}
