//! The specialized uArray allocator with hint-guided placement (§6.2).
//!
//! The allocator decides, for every new uArray, whether to append it to an
//! existing uGroup or open a new one:
//!
//! * a *consumed-after* hint walks back along the consumed-after chain and
//!   appends the new uArray behind the first predecessor that is already
//!   `Produced` and sits at the end of a uGroup; otherwise a new uGroup is
//!   opened;
//! * a *consumed-in-parallel* hint forces each sibling into its own uGroup so
//!   a straggling consumer cannot block reclamation of the others;
//! * with no hint, the policy depends on [`PlacementPolicy`]:
//!   `HintGuided` opens a new uGroup (conservative), while `SameProducer`
//!   (the Figure 10 baseline) co-locates all outputs of the same producer
//!   primitive on the heuristic that they form one generation.
//!
//! The allocator also owns the reclamation scan (front-of-group, in order)
//! and the memory statistics the evaluation reports: committed bytes,
//! stuck-but-retired bytes, live uGroup count and virtual-space usage.

use crate::hints::ConsumptionHint;
use crate::quota::{QuotaBook, QuotaError};
use crate::uarray::{UArrayId, UArrayState};
use crate::ugroup::{UGroup, UGroupId};
use crate::vspace::VirtualSpace;
use std::collections::HashMap;

/// How the allocator places uArrays that carry no usable hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// The paper's design: follow hints; without a hint, open a new uGroup.
    HintGuided,
    /// The Figure 10 baseline: ignore hints and co-locate all outputs of the
    /// same producer primitive in one uGroup ("same generation" heuristic).
    SameProducer,
}

/// Allocator configuration.
#[derive(Debug, Clone, Copy)]
pub struct AllocatorConfig {
    /// Placement policy.
    pub policy: PlacementPolicy,
    /// Virtual reservation handed to each uGroup (the paper uses the size of
    /// the entire TEE DRAM).
    pub group_reservation_bytes: u64,
}

impl Default for AllocatorConfig {
    fn default() -> Self {
        AllocatorConfig {
            policy: PlacementPolicy::HintGuided,
            group_reservation_bytes: 256 * 1024 * 1024,
        }
    }
}

/// Point-in-time memory statistics of the allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryReport {
    /// Bytes committed by live (unreclaimed) uArrays.
    pub committed_bytes: u64,
    /// Bytes committed by retired uArrays that are stuck behind live ones.
    pub stuck_bytes: u64,
    /// Number of live uGroups.
    pub live_groups: usize,
    /// Number of live (unreclaimed) uArrays.
    pub live_uarrays: usize,
    /// Bytes of virtual address space reserved by live uGroups.
    pub virtual_reserved_bytes: u64,
    /// Percentage of the TEE virtual address space reserved.
    pub virtual_utilization_percent: f64,
    /// Total bytes reclaimed since the allocator was created.
    pub reclaimed_bytes: u64,
}

/// Result of tearing down one owner's arrays ([`Allocator::release_owner`]).
#[derive(Debug, Clone, Default)]
pub struct OwnerTeardown {
    /// `(id, charged bytes)` of every array freed; the caller releases their
    /// backing storage.
    pub arrays: Vec<(UArrayId, u64)>,
    /// Total bytes reclaimed by the teardown.
    pub reclaimed_bytes: u64,
}

/// Where a uArray currently lives.
#[derive(Debug, Clone, Copy)]
struct Placement {
    group: UGroupId,
}

/// The uArray placement allocator.
///
/// The allocator tracks *metadata only* (ids, states, committed sizes); the
/// record storage itself lives with the data plane, which reports state
/// transitions and committed sizes back to the allocator.
#[derive(Debug)]
pub struct Allocator {
    config: AllocatorConfig,
    vspace: VirtualSpace,
    groups: HashMap<UGroupId, UGroup>,
    placements: HashMap<UArrayId, Placement>,
    /// Chains of consumed-after hints: child -> parent.
    consumed_after: HashMap<UArrayId, UArrayId>,
    /// Producer -> group used by the `SameProducer` policy.
    producer_groups: HashMap<u64, UGroupId>,
    /// Per-owner (tenant) quota accounting.
    quotas: QuotaBook,
    next_group: u64,
    total_reclaimed: u64,
    peak_committed: u64,
}

impl Allocator {
    /// Create an allocator.
    pub fn new(config: AllocatorConfig) -> Self {
        Allocator {
            vspace: VirtualSpace::new(config.group_reservation_bytes),
            config,
            groups: HashMap::new(),
            placements: HashMap::new(),
            consumed_after: HashMap::new(),
            producer_groups: HashMap::new(),
            quotas: QuotaBook::new(),
            next_group: 0,
            total_reclaimed: 0,
            peak_committed: 0,
        }
    }

    /// Create an allocator with the default (hint-guided) configuration.
    pub fn hint_guided() -> Self {
        Allocator::new(AllocatorConfig::default())
    }

    /// Create the Figure 10 baseline allocator that ignores hints.
    pub fn same_producer_baseline() -> Self {
        Allocator::new(AllocatorConfig {
            policy: PlacementPolicy::SameProducer,
            ..AllocatorConfig::default()
        })
    }

    /// The active placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.config.policy
    }

    fn new_group(&mut self) -> UGroupId {
        let id = UGroupId(self.next_group);
        self.next_group += 1;
        let base = self.vspace.reserve();
        self.groups.insert(id, UGroup::new(id, base));
        id
    }

    /// Find a uGroup that can accept a new uArray behind `pred`, walking the
    /// consumed-after chain backwards as the paper describes: the candidate
    /// must be `Produced` (its growth finished) and must be the tail of its
    /// group.
    fn group_via_consumed_after(&self, mut pred: UArrayId) -> Option<UGroupId> {
        for _ in 0..64 {
            if let Some(p) = self.placements.get(&pred) {
                if let Some(group) = self.groups.get(&p.group) {
                    if let Some(tail) = group.tail() {
                        if tail.id == pred && tail.state != UArrayState::Open && group.can_append()
                        {
                            return Some(p.group);
                        }
                    }
                }
            }
            // Walk back one step on the chain.
            match self.consumed_after.get(&pred) {
                Some(parent) => pred = *parent,
                None => return None,
            }
        }
        None
    }

    /// Place a new uArray.
    ///
    /// * `id` — the id minted by the data plane for the new uArray.
    /// * `producer` — an opaque tag identifying the producing primitive
    ///   instance (used only by the `SameProducer` baseline policy).
    /// * `hint` — the consumption hint covering this output, if any.
    ///
    /// Returns the uGroup the uArray was placed in.
    pub fn place(
        &mut self,
        id: UArrayId,
        producer: u64,
        hint: Option<ConsumptionHint>,
    ) -> UGroupId {
        let group_id = match (self.config.policy, hint) {
            // Hint-guided policy, consumed-after: co-locate on the chain.
            (PlacementPolicy::HintGuided, Some(ConsumptionHint::ConsumedAfter(pred))) => {
                self.consumed_after.insert(id, pred);
                self.group_via_consumed_after(pred).unwrap_or_else(|| self.new_group())
            }
            // Hint-guided policy, consumed-in-parallel: isolate each sibling.
            (PlacementPolicy::HintGuided, Some(ConsumptionHint::ConsumedInParallel { .. })) => {
                self.new_group()
            }
            // Hint-guided policy, no hint: conservative new group.
            (PlacementPolicy::HintGuided, None) => self.new_group(),
            // Baseline policy: same producer -> same group, if appendable.
            (PlacementPolicy::SameProducer, _) => {
                match self.producer_groups.get(&producer).copied() {
                    Some(g) if self.groups.get(&g).map(|grp| grp.can_append()).unwrap_or(false) => {
                        g
                    }
                    _ => {
                        let g = self.new_group();
                        self.producer_groups.insert(producer, g);
                        g
                    }
                }
            }
        };
        self.groups.get_mut(&group_id).expect("group just selected must exist").append(id);
        self.placements.insert(id, Placement { group: group_id });
        group_id
    }

    /// Report a state/size update for a uArray (open→produced→retired and
    /// the current committed byte count).
    pub fn update(&mut self, id: UArrayId, state: UArrayState, committed_bytes: u64) {
        if let Some(p) = self.placements.get(&id) {
            if let Some(g) = self.groups.get_mut(&p.group) {
                g.update_member(id, state, committed_bytes);
            }
        }
        let report = self.committed_bytes();
        if report > self.peak_committed {
            self.peak_committed = report;
        }
    }

    // ----- per-owner quotas (multi-tenant serving) -----------------------

    /// Install (or replace) a per-owner memory quota. Owners without a quota
    /// are unconstrained.
    pub fn set_owner_quota(&mut self, owner: u64, bytes: u64) {
        self.quotas.set_quota(owner, bytes);
    }

    /// Remove an owner's quota.
    pub fn clear_owner_quota(&mut self, owner: u64) {
        self.quotas.clear_quota(owner);
    }

    /// The owner a live uArray is charged to, if any.
    pub fn owner_of(&self, id: UArrayId) -> Option<u64> {
        self.quotas.owner_of(id)
    }

    /// Bytes currently charged to an owner.
    pub fn owner_used(&self, owner: u64) -> u64 {
        self.quotas.used_by(owner)
    }

    /// The owner's quota, if one is installed.
    pub fn owner_quota(&self, owner: u64) -> Option<u64> {
        self.quotas.quota_of(owner)
    }

    /// Bytes the owner may still commit before its quota (`u64::MAX` for an
    /// owner without one): the budget an invocation's producers draw on.
    pub fn owner_headroom(&self, owner: u64) -> u64 {
        self.quotas.headroom(owner)
    }

    /// Whether charging `bytes` more to the owner would exceed its quota.
    pub fn owner_would_exceed(&self, owner: u64, bytes: u64) -> bool {
        self.quotas.would_exceed(owner, bytes)
    }

    /// Charge a uArray's committed bytes to an owner. Fails (without
    /// charging) when the owner's quota would be exceeded; the caller is
    /// responsible for releasing the array's pages in that case.
    pub fn charge_owner(&mut self, owner: u64, id: UArrayId, bytes: u64) -> Result<(), QuotaError> {
        self.quotas.charge(owner, id, bytes)
    }

    /// Tear down everything an owner holds in one pass: every uArray charged
    /// to the owner — live, open or stuck-retired alike — is removed from
    /// its group (ignoring the front-of-group reclaim frontier), its quota
    /// charge released, and groups emptied by the sweep dissolved. Returns
    /// the freed arrays with their charged bytes so the caller can release
    /// their backing storage.
    pub fn release_owner(&mut self, owner: u64) -> OwnerTeardown {
        let arrays = self.quotas.charged_to(owner);
        let mut reclaimed_bytes = 0;
        for (id, bytes) in &arrays {
            if let Some(p) = self.placements.remove(id) {
                if let Some(g) = self.groups.get_mut(&p.group) {
                    g.remove_member(*id);
                }
            }
            self.consumed_after.remove(id);
            self.quotas.release(*id);
            reclaimed_bytes += *bytes;
        }
        let empty_groups: Vec<UGroupId> =
            self.groups.iter().filter(|(_, g)| g.is_empty()).map(|(gid, _)| *gid).collect();
        for gid in empty_groups {
            if let Some(g) = self.groups.remove(&gid) {
                self.total_reclaimed += g.reclaimed_bytes();
                self.vspace.release();
                self.producer_groups.retain(|_, v| *v != gid);
            }
        }
        OwnerTeardown { arrays, reclaimed_bytes }
    }

    /// Run the reclamation scan over all groups: from the front of each
    /// group, pop members while they are retired. Returns the ids whose
    /// backing storage the data plane should now release. Groups that become
    /// empty are dissolved and their virtual reservation released.
    pub fn reclaim(&mut self) -> Vec<UArrayId> {
        let mut reclaimed = Vec::new();
        let mut empty_groups = Vec::new();
        for (gid, group) in self.groups.iter_mut() {
            let taken = group.take_reclaimable();
            if !taken.is_empty() {
                reclaimed.extend(taken);
            }
            if group.is_empty() {
                empty_groups.push(*gid);
            }
        }
        for id in &reclaimed {
            if let Some(p) = self.placements.remove(id) {
                self.consumed_after.remove(id);
                let _ = p;
            }
            self.quotas.release(*id);
        }
        for gid in empty_groups {
            if let Some(g) = self.groups.remove(&gid) {
                self.total_reclaimed += g.reclaimed_bytes();
                self.vspace.release();
                // Drop the producer mapping if it pointed at the dissolved
                // group, so the baseline policy opens a fresh group next time.
                self.producer_groups.retain(|_, v| *v != gid);
            }
        }
        reclaimed
    }

    /// Bytes committed by live uArrays across all groups.
    pub fn committed_bytes(&self) -> u64 {
        self.groups.values().map(|g| g.committed_bytes()).sum()
    }

    /// Peak committed bytes observed so far.
    pub fn peak_committed_bytes(&self) -> u64 {
        self.peak_committed
    }

    /// Current memory report.
    pub fn report(&self) -> MemoryReport {
        MemoryReport {
            committed_bytes: self.committed_bytes(),
            stuck_bytes: self.groups.values().map(|g| g.stuck_bytes()).sum(),
            live_groups: self.groups.len(),
            live_uarrays: self.placements.len(),
            virtual_reserved_bytes: self.vspace.reserved_bytes(),
            virtual_utilization_percent: self.vspace.utilization_percent(),
            reclaimed_bytes: self.total_reclaimed
                + self.groups.values().map(|g| g.reclaimed_bytes()).sum::<u64>(),
        }
    }

    /// Which uGroup a live uArray currently belongs to.
    pub fn group_of(&self, id: UArrayId) -> Option<UGroupId> {
        self.placements.get(&id).map(|p| p.group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seal(alloc: &mut Allocator, id: UArrayId, bytes: u64) {
        alloc.update(id, UArrayState::Produced, bytes);
    }

    fn retire(alloc: &mut Allocator, id: UArrayId, bytes: u64) {
        alloc.update(id, UArrayState::Retired, bytes);
    }

    #[test]
    fn consumed_after_chain_shares_group() {
        let mut a = Allocator::hint_guided();
        let g1 = a.place(UArrayId(1), 0, None);
        seal(&mut a, UArrayId(1), 4096);
        let g2 = a.place(UArrayId(2), 0, Some(ConsumptionHint::ConsumedAfter(UArrayId(1))));
        assert_eq!(g1, g2, "consumed-after outputs should share the predecessor's group");
        seal(&mut a, UArrayId(2), 4096);
        let g3 = a.place(UArrayId(3), 0, Some(ConsumptionHint::ConsumedAfter(UArrayId(2))));
        assert_eq!(g2, g3);
        assert_eq!(a.report().live_groups, 1);
    }

    #[test]
    fn consumed_after_opens_new_group_when_predecessor_not_at_tail() {
        let mut a = Allocator::hint_guided();
        let g1 = a.place(UArrayId(1), 0, None);
        seal(&mut a, UArrayId(1), 4096);
        // Another unrelated uArray lands behind 1 in the same group via a
        // consumed-after hint, putting 1 away from the tail.
        let _ = a.place(UArrayId(2), 0, Some(ConsumptionHint::ConsumedAfter(UArrayId(1))));
        seal(&mut a, UArrayId(2), 4096);
        // A new uArray hinted after 1 cannot append behind 1 anymore, but the
        // chain walk finds 1's group tail unusable and... walks to 1's parent
        // (none), so a new group is opened.
        let g3 = a.place(UArrayId(3), 0, Some(ConsumptionHint::ConsumedAfter(UArrayId(1))));
        assert_ne!(g3, g1);
    }

    #[test]
    fn consumed_after_walks_back_the_chain() {
        let mut a = Allocator::hint_guided();
        // Chain 1 <= 2 <= 3, but 2 is still open when 3 is placed; the walk
        // falls back to 1 which is produced and at the tail of its group...
        let g1 = a.place(UArrayId(1), 0, None);
        seal(&mut a, UArrayId(1), 4096);
        let g2 = a.place(UArrayId(2), 0, Some(ConsumptionHint::ConsumedAfter(UArrayId(1))));
        assert_eq!(g1, g2);
        // 2 is open (no seal). 3 hinted after 2: tail of g1 is 2 and open, so
        // the walk cannot use it, and 1 is not at the tail; a new group opens.
        let g3 = a.place(UArrayId(3), 0, Some(ConsumptionHint::ConsumedAfter(UArrayId(2))));
        assert_ne!(g3, g1);
    }

    #[test]
    fn parallel_hint_isolates_siblings() {
        let mut a = Allocator::hint_guided();
        let g1 =
            a.place(UArrayId(1), 7, Some(ConsumptionHint::ConsumedInParallel { k: 3, index: 0 }));
        let g2 =
            a.place(UArrayId(2), 7, Some(ConsumptionHint::ConsumedInParallel { k: 3, index: 1 }));
        let g3 =
            a.place(UArrayId(3), 7, Some(ConsumptionHint::ConsumedInParallel { k: 3, index: 2 }));
        assert_ne!(g1, g2);
        assert_ne!(g2, g3);
        assert_eq!(a.report().live_groups, 3);
    }

    #[test]
    fn same_producer_policy_groups_by_producer() {
        let mut a = Allocator::same_producer_baseline();
        let g1 = a.place(UArrayId(1), 42, None);
        seal(&mut a, UArrayId(1), 4096);
        let g2 = a.place(UArrayId(2), 42, None);
        seal(&mut a, UArrayId(2), 4096);
        let g3 = a.place(UArrayId(3), 99, None);
        assert_eq!(g1, g2);
        assert_ne!(g1, g3);
    }

    #[test]
    fn same_producer_policy_can_strand_memory() {
        // The baseline policy's weakness (Figure 10): a straggling consumer
        // of an early output blocks reclamation of later, already-consumed
        // outputs in the same group.
        let mut a = Allocator::same_producer_baseline();
        a.place(UArrayId(1), 1, None);
        seal(&mut a, UArrayId(1), 4096);
        a.place(UArrayId(2), 1, None);
        seal(&mut a, UArrayId(2), 4096);
        a.place(UArrayId(3), 1, None);
        seal(&mut a, UArrayId(3), 4096);
        // 2 and 3 retire, 1 is still being consumed.
        retire(&mut a, UArrayId(2), 4096);
        retire(&mut a, UArrayId(3), 4096);
        assert!(a.reclaim().is_empty());
        assert_eq!(a.report().stuck_bytes, 8192);
        assert_eq!(a.report().committed_bytes, 3 * 4096);

        // The hint-guided allocator with parallel hints would have isolated
        // them; show reclamation works there.
        let mut b = Allocator::hint_guided();
        b.place(UArrayId(1), 1, Some(ConsumptionHint::ConsumedInParallel { k: 3, index: 0 }));
        seal(&mut b, UArrayId(1), 4096);
        b.place(UArrayId(2), 1, Some(ConsumptionHint::ConsumedInParallel { k: 3, index: 1 }));
        seal(&mut b, UArrayId(2), 4096);
        b.place(UArrayId(3), 1, Some(ConsumptionHint::ConsumedInParallel { k: 3, index: 2 }));
        seal(&mut b, UArrayId(3), 4096);
        retire(&mut b, UArrayId(2), 4096);
        retire(&mut b, UArrayId(3), 4096);
        let reclaimed = b.reclaim();
        assert_eq!(reclaimed.len(), 2);
        assert_eq!(b.report().committed_bytes, 4096);
    }

    #[test]
    fn reclaim_dissolves_empty_groups_and_releases_vspace() {
        let mut a = Allocator::hint_guided();
        a.place(UArrayId(1), 0, None);
        seal(&mut a, UArrayId(1), 4096);
        assert_eq!(a.report().live_groups, 1);
        assert!(a.report().virtual_reserved_bytes > 0);
        retire(&mut a, UArrayId(1), 4096);
        let reclaimed = a.reclaim();
        assert_eq!(reclaimed, vec![UArrayId(1)]);
        let r = a.report();
        assert_eq!(r.live_groups, 0);
        assert_eq!(r.live_uarrays, 0);
        assert_eq!(r.virtual_reserved_bytes, 0);
        assert_eq!(r.reclaimed_bytes, 4096);
        assert_eq!(a.group_of(UArrayId(1)), None);
    }

    #[test]
    fn peak_committed_tracks_high_water() {
        let mut a = Allocator::hint_guided();
        a.place(UArrayId(1), 0, None);
        a.update(UArrayId(1), UArrayState::Open, 8192);
        seal(&mut a, UArrayId(1), 8192);
        retire(&mut a, UArrayId(1), 8192);
        a.reclaim();
        assert_eq!(a.committed_bytes(), 0);
        assert_eq!(a.peak_committed_bytes(), 8192);
    }

    #[test]
    fn owner_quotas_gate_charges_and_release_on_reclaim() {
        let mut a = Allocator::hint_guided();
        a.set_owner_quota(1, 8192);
        // Two 4 KiB arrays fill the quota; a third is rejected.
        a.place(UArrayId(1), 0, None);
        seal(&mut a, UArrayId(1), 4096);
        a.charge_owner(1, UArrayId(1), 4096).unwrap();
        a.place(UArrayId(2), 0, None);
        seal(&mut a, UArrayId(2), 4096);
        a.charge_owner(1, UArrayId(2), 4096).unwrap();
        assert_eq!(a.owner_used(1), 8192);
        assert!(a.owner_would_exceed(1, 1));
        assert!(a.charge_owner(1, UArrayId(3), 4096).is_err());
        // A different owner is unaffected.
        assert!(!a.owner_would_exceed(2, 1 << 30));
        // Retiring and reclaiming releases the owner's usage.
        retire(&mut a, UArrayId(1), 4096);
        retire(&mut a, UArrayId(2), 4096);
        let reclaimed = a.reclaim();
        assert_eq!(reclaimed.len(), 2);
        assert_eq!(a.owner_used(1), 0);
        assert_eq!(a.owner_quota(1), Some(8192));
        a.clear_owner_quota(1);
        assert_eq!(a.owner_quota(1), None);
    }

    #[test]
    fn release_owner_frees_everything_in_one_pass() {
        let mut a = Allocator::hint_guided();
        a.set_owner_quota(1, 1 << 20);
        a.set_owner_quota(2, 1 << 20);
        // Owner 1: one live array, one retired-but-stuck behind it (same
        // group via consumed-after), plus one in its own group. Owner 2: one
        // array that must survive untouched.
        a.place(UArrayId(1), 0, None);
        seal(&mut a, UArrayId(1), 4096);
        a.charge_owner(1, UArrayId(1), 4096).unwrap();
        let g_shared = a.place(UArrayId(2), 0, Some(ConsumptionHint::ConsumedAfter(UArrayId(1))));
        seal(&mut a, UArrayId(2), 4096);
        a.charge_owner(1, UArrayId(2), 4096).unwrap();
        retire(&mut a, UArrayId(2), 4096); // stuck behind live 1
        a.place(UArrayId(3), 9, None);
        seal(&mut a, UArrayId(3), 8192);
        a.charge_owner(1, UArrayId(3), 8192).unwrap();
        let g_other = a.place(UArrayId(4), 9, None);
        seal(&mut a, UArrayId(4), 4096);
        a.charge_owner(2, UArrayId(4), 4096).unwrap();
        assert_ne!(g_shared, g_other);
        assert_eq!(a.owner_used(1), 16384);

        let torn = a.release_owner(1);
        assert_eq!(torn.reclaimed_bytes, 16384);
        let mut ids: Vec<UArrayId> = torn.arrays.iter().map(|(id, _)| *id).collect();
        ids.sort();
        assert_eq!(ids, vec![UArrayId(1), UArrayId(2), UArrayId(3)]);
        assert_eq!(a.owner_used(1), 0);
        // Owner 2's array is untouched; its group survives.
        assert_eq!(a.owner_used(2), 4096);
        assert_eq!(a.group_of(UArrayId(4)), Some(g_other));
        assert_eq!(a.group_of(UArrayId(1)), None);
        let r = a.report();
        assert_eq!(r.committed_bytes, 4096);
        assert_eq!(r.live_uarrays, 1);
        assert!(r.reclaimed_bytes >= 16384);
        // A second teardown is a no-op.
        assert_eq!(a.release_owner(1).reclaimed_bytes, 0);
    }

    #[test]
    fn report_counts_live_uarrays() {
        let mut a = Allocator::hint_guided();
        a.place(UArrayId(1), 0, None);
        a.place(UArrayId(2), 0, None);
        assert_eq!(a.report().live_uarrays, 2);
        assert_eq!(a.report().live_groups, 2);
    }
}
