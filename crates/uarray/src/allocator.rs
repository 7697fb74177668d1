//! The specialized uArray allocator with hint-guided placement (§6.2), and
//! the one ledger of every live uArray.
//!
//! # The ledger
//!
//! The allocator is the only record of a live uArray. Its entry holds the
//! array's uGroup, its owner (tenant) tag, its committed bytes and whether
//! it is retired; a uGroup holds nothing but its members' placement order.
//! The data plane talks to the ledger in one call each way:
//!
//! * [`admit`](Allocator::admit) takes every output of one invocation at
//!   once: all-or-nothing against the owner's quota, it places each array,
//!   charges it to the owner and records it produced;
//! * [`retire`](Allocator::retire) marks one array retired and reclaims its
//!   own group's front, returning the `(id, bytes)` freed;
//! * [`release_owner`](Allocator::release_owner) removes everything one
//!   owner holds, and reclaims the retired fronts that removal exposes in
//!   groups other owners share.
//!
//! Per-owner quotas are two small maps beside the entries: the quota and the
//! bytes charged. Owners without a quota are unconstrained.
//!
//! # Placement
//!
//! For every new uArray the allocator appends it to an existing uGroup or
//! opens a new one:
//!
//! * a *consumed-after* hint walks back along the consumed-after chain and
//!   appends the new uArray behind the first predecessor that sits at the end
//!   of its uGroup; otherwise a new uGroup is opened;
//! * a *consumed-in-parallel* hint forces each sibling into its own uGroup so
//!   a straggling consumer cannot block reclamation of the others;
//! * with no hint, the policy depends on [`PlacementPolicy`]:
//!   `HintGuided` opens a new uGroup (conservative), while `SameProducer`
//!   (the Figure 10 baseline) co-locates all outputs of the same producer
//!   primitive on the heuristic that they form one generation.
//!
//! Reclamation pops retired members from a group's front, in placement
//! order. The memory report gives what the evaluation reads: committed
//! bytes, stuck-but-retired bytes, live uGroup count and virtual-space usage.

use crate::hints::{ConsumptionHint, HintSet};
use crate::uarray::UArrayId;
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

/// Error returned when an admission would exceed an owner's quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaError {
    /// The owner tag that hit its quota.
    pub owner: u64,
    /// Bytes the admission requested.
    pub requested: u64,
    /// Bytes the owner had in use before the admission.
    pub in_use: u64,
    /// The owner's quota in bytes.
    pub quota: u64,
}

impl std::fmt::Display for QuotaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "owner {} quota exhausted: requested {} B with {} B in use of {} B quota",
            self.owner, self.requested, self.in_use, self.quota
        )
    }
}

impl std::error::Error for QuotaError {}

/// Result of tearing down one owner's arrays ([`Allocator::release_owner`]).
#[derive(Debug, Clone, Default)]
pub struct OwnerTeardown {
    /// `(id, committed bytes)` of every array freed — the owner's, and any
    /// retired neighbour its removal exposed at a group's front; the caller
    /// releases their backing storage.
    pub arrays: Vec<(UArrayId, u64)>,
    /// Bytes of the owner's own arrays freed (neighbours not counted).
    pub reclaimed_bytes: u64,
}

/// The ledger entry of one live uArray.
#[derive(Debug)]
struct Entry {
    group: UGroupId,
    owner: u64,
    bytes: u64,
    retired: bool,
    /// The predecessor named by the consumed-after hint it was placed under.
    after: Option<UArrayId>,
}

/// The uArray placement allocator and ledger.
///
/// The allocator tracks *metadata only* (placement, owner, committed size,
/// retirement); the record storage itself lives with the data plane, which
/// admits produced arrays and releases the storage of the arrays the
/// allocator hands back as freed.
#[derive(Debug)]
pub struct Allocator {
    config: AllocatorConfig,
    vspace: VirtualSpace,
    groups: HashMap<UGroupId, UGroup>,
    entries: HashMap<UArrayId, Entry>,
    /// Producer -> group used by the `SameProducer` policy.
    producer_groups: HashMap<u64, UGroupId>,
    /// Owner tag -> quota in bytes. Absent owners are unconstrained.
    quotas: HashMap<u64, u64>,
    /// Owner tag -> bytes currently charged.
    used: HashMap<u64, u64>,
    next_group: u64,
    committed: u64,
    reclaimed: u64,
}

impl Allocator {
    /// Create an allocator.
    pub fn new(config: AllocatorConfig) -> Self {
        Allocator {
            vspace: VirtualSpace::new(config.group_reservation_bytes),
            config,
            groups: HashMap::new(),
            entries: HashMap::new(),
            producer_groups: HashMap::new(),
            quotas: HashMap::new(),
            used: HashMap::new(),
            next_group: 0,
            committed: 0,
            reclaimed: 0,
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
    /// must be the tail of its group.
    fn group_via_consumed_after(&self, mut pred: UArrayId) -> Option<UGroupId> {
        for _ in 0..64 {
            let entry = self.entries.get(&pred)?;
            if self.groups[&entry.group].back() == Some(pred) {
                return Some(entry.group);
            }
            pred = entry.after?;
        }
        None
    }

    /// The group a new array from `producer` under `hint` goes to, with the
    /// predecessor it is chained behind.
    fn choose_group(
        &mut self,
        producer: u64,
        hint: Option<ConsumptionHint>,
    ) -> (UGroupId, Option<UArrayId>) {
        match (self.config.policy, hint) {
            (PlacementPolicy::HintGuided, Some(ConsumptionHint::ConsumedAfter(pred))) => {
                let group = self.group_via_consumed_after(pred).unwrap_or_else(|| self.new_group());
                (group, Some(pred))
            }
            // Consumed-in-parallel isolates each sibling; no hint is
            // conservative.
            (PlacementPolicy::HintGuided, _) => (self.new_group(), None),
            (PlacementPolicy::SameProducer, _) => match self.producer_groups.get(&producer) {
                Some(group) => (*group, None),
                None => {
                    let group = self.new_group();
                    self.producer_groups.insert(producer, group);
                    (group, None)
                }
            },
        }
    }

    /// Admit the produced outputs of one invocation: `arrays` holds each
    /// output's id and committed bytes, `hints` the hint of each output
    /// position. All-or-nothing against the owner's quota: on rejection
    /// nothing is placed or charged, and the caller releases the arrays'
    /// storage. `producer` is an opaque tag of the producing primitive
    /// (used only by the `SameProducer` baseline policy).
    pub fn admit(
        &mut self,
        owner: u64,
        producer: u64,
        arrays: &[(UArrayId, u64)],
        hints: &HintSet,
    ) -> Result<(), QuotaError> {
        let requested: u64 = arrays.iter().map(|(_, bytes)| bytes).sum();
        let in_use = self.owner_used(owner);
        if let Some(quota) = self.owner_quota(owner) {
            if in_use.saturating_add(requested) > quota {
                return Err(QuotaError { owner, requested, in_use, quota });
            }
        }
        for (i, &(id, bytes)) in arrays.iter().enumerate() {
            let (group, after) = self.choose_group(producer, hints.get(i));
            self.groups.get_mut(&group).expect("chosen group exists").append(id);
            self.entries.insert(id, Entry { group, owner, bytes, retired: false, after });
        }
        self.committed += requested;
        *self.used.entry(owner).or_insert(0) += requested;
        Ok(())
    }

    /// Retire a uArray: its consumer is done. Reclaims the retired members
    /// at its group's front and returns them as `(id, bytes)`; the caller
    /// releases their storage. Unknown ids free nothing.
    pub fn retire(&mut self, id: UArrayId) -> Vec<(UArrayId, u64)> {
        let mut freed = Vec::new();
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.retired = true;
            let group = entry.group;
            self.reclaim_front(group, &mut freed);
        }
        freed
    }

    /// Tear down everything an owner holds in one pass: every uArray charged
    /// to the owner — live or stuck-retired alike — is removed from its group
    /// wherever it sits, and its charge released. The groups it leaves then
    /// reclaim the retired fronts the removal exposed (another owner's
    /// arrays, retired but stuck behind this owner's), and dissolve when
    /// empty.
    pub fn release_owner(&mut self, owner: u64) -> OwnerTeardown {
        let owned: Vec<UArrayId> =
            self.entries.iter().filter(|(_, e)| e.owner == owner).map(|(id, _)| *id).collect();
        let mut touched: Vec<UGroupId> = owned.iter().map(|id| self.entries[id].group).collect();
        let mut arrays: Vec<(UArrayId, u64)> =
            owned.into_iter().map(|id| (id, self.forget(id))).collect();
        let reclaimed_bytes = arrays.iter().map(|(_, bytes)| bytes).sum();
        touched.sort_unstable();
        touched.dedup();
        for group in touched {
            self.reclaim_front(group, &mut arrays);
        }
        OwnerTeardown { arrays, reclaimed_bytes }
    }

    /// Pop `group`'s retired front members into `freed`; dissolve the group
    /// and release its reservation once it is empty.
    fn reclaim_front(&mut self, group: UGroupId, freed: &mut Vec<(UArrayId, u64)>) {
        while let Some(id) = self.groups.get(&group).and_then(UGroup::front) {
            if !self.entries[&id].retired {
                return;
            }
            freed.push((id, self.forget(id)));
        }
        if self.groups.remove(&group).is_some() {
            self.vspace.release();
            // The baseline policy opens a fresh group for this producer.
            self.producer_groups.retain(|_, g| *g != group);
        }
    }

    /// Drop a live array's entry, its group membership and its owner's
    /// charge; returns its committed bytes.
    fn forget(&mut self, id: UArrayId) -> u64 {
        let entry = self.entries.remove(&id).expect("forgetting a live uArray");
        self.groups.get_mut(&entry.group).expect("a live uArray's group exists").remove(id);
        if let Some(used) = self.used.get_mut(&entry.owner) {
            *used -= entry.bytes;
        }
        self.committed -= entry.bytes;
        self.reclaimed += entry.bytes;
        entry.bytes
    }

    // ----- per-owner quotas (multi-tenant serving) -----------------------

    /// Install, replace (`Some`) or remove (`None`) an owner's memory quota.
    /// Owners without a quota are unconstrained.
    pub fn set_owner_quota(&mut self, owner: u64, bytes: Option<u64>) {
        match bytes {
            Some(bytes) => self.quotas.insert(owner, bytes),
            None => self.quotas.remove(&owner),
        };
    }

    /// The owner a live uArray is charged to, if any.
    pub fn owner_of(&self, id: UArrayId) -> Option<u64> {
        self.entries.get(&id).map(|e| e.owner)
    }

    /// Bytes currently charged to an owner.
    pub fn owner_used(&self, owner: u64) -> u64 {
        self.used.get(&owner).copied().unwrap_or(0)
    }

    /// The owner's quota, if one is installed.
    pub fn owner_quota(&self, owner: u64) -> Option<u64> {
        self.quotas.get(&owner).copied()
    }

    /// Bytes the owner may still commit before its quota (`u64::MAX` for an
    /// owner without one): the budget an invocation's producers draw on and
    /// the bound an ingress batch is checked against up front.
    pub fn owner_headroom(&self, owner: u64) -> u64 {
        match self.owner_quota(owner) {
            Some(quota) => quota.saturating_sub(self.owner_used(owner)),
            None => u64::MAX,
        }
    }

    /// Current memory report.
    pub fn report(&self) -> MemoryReport {
        let retired_bytes = |id| self.entries.get(&id).filter(|e| e.retired).map(|e| e.bytes);
        MemoryReport {
            committed_bytes: self.committed,
            stuck_bytes: self.groups.values().map(|g| g.stuck_bytes(retired_bytes)).sum(),
            live_groups: self.groups.len(),
            live_uarrays: self.entries.len(),
            virtual_reserved_bytes: self.vspace.reserved_bytes(),
            virtual_utilization_percent: self.vspace.utilization_percent(),
            reclaimed_bytes: self.reclaimed,
        }
    }

    /// Which uGroup a live uArray currently belongs to.
    pub fn group_of(&self, id: UArrayId) -> Option<UGroupId> {
        self.entries.get(&id).map(|e| e.group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OWNER: u64 = 1;

    /// Admit one 4 KiB array of `OWNER` and return the group it landed in.
    fn admit(a: &mut Allocator, id: u64, producer: u64, hint: Option<ConsumptionHint>) -> UGroupId {
        let mut hints = HintSet::none();
        hints.push(hint);
        a.admit(OWNER, producer, &[(UArrayId(id), 4096)], &hints).unwrap();
        a.group_of(UArrayId(id)).unwrap()
    }

    /// Admit one array of `bytes` for `owner`, without a hint.
    fn charge(a: &mut Allocator, owner: u64, id: u64, bytes: u64) -> Result<(), QuotaError> {
        a.admit(owner, 0, &[(UArrayId(id), bytes)], &HintSet::none())
    }

    fn after(id: u64) -> Option<ConsumptionHint> {
        Some(ConsumptionHint::ConsumedAfter(UArrayId(id)))
    }

    fn parallel(index: u32) -> Option<ConsumptionHint> {
        Some(ConsumptionHint::ConsumedInParallel { k: 3, index })
    }

    fn ids(freed: &[(UArrayId, u64)]) -> Vec<u64> {
        let mut ids: Vec<u64> = freed.iter().map(|(id, _)| id.0).collect();
        ids.sort();
        ids
    }

    #[test]
    fn consumed_after_chain_shares_group() {
        let mut a = Allocator::hint_guided();
        let g1 = admit(&mut a, 1, 0, None);
        let g2 = admit(&mut a, 2, 0, after(1));
        assert_eq!(g1, g2, "consumed-after outputs should share the predecessor's group");
        let g3 = admit(&mut a, 3, 0, after(2));
        assert_eq!(g2, g3);
        assert_eq!(a.report().live_groups, 1);
    }

    #[test]
    fn consumed_after_opens_new_group_when_predecessor_not_at_tail() {
        let mut a = Allocator::hint_guided();
        let g1 = admit(&mut a, 1, 0, None);
        // 2 lands behind 1, putting 1 away from the tail.
        admit(&mut a, 2, 0, after(1));
        // A new uArray hinted after 1 cannot append behind 1 anymore, and 1
        // has no predecessor to walk back to: a new group opens.
        let g3 = admit(&mut a, 3, 0, after(1));
        assert_ne!(g3, g1);
    }

    #[test]
    fn consumed_after_walks_back_the_chain() {
        let mut a = Allocator::hint_guided();
        // Group A: [1, 2], with 2 another owner's. 3, hinted after 1, finds
        // 1 off the tail and opens group B; 4 joins it behind 3.
        let ga = admit(&mut a, 1, 0, None);
        a.admit(2, 0, &[(UArrayId(2), 4096)], &HintSet::consumed_after(UArrayId(1))).unwrap();
        let gb = admit(&mut a, 3, 0, after(1));
        assert_ne!(gb, ga);
        assert_eq!(admit(&mut a, 4, 0, after(3)), gb);
        // Owner 2 leaves, so 1 is the tail of A again. 5, hinted after 3
        // (off B's tail), walks back to 3's predecessor 1 and joins A.
        a.release_owner(2);
        assert_eq!(admit(&mut a, 5, 0, after(3)), ga);
    }

    #[test]
    fn parallel_hint_isolates_siblings() {
        let mut a = Allocator::hint_guided();
        let g1 = admit(&mut a, 1, 7, parallel(0));
        let g2 = admit(&mut a, 2, 7, parallel(1));
        let g3 = admit(&mut a, 3, 7, parallel(2));
        assert_ne!(g1, g2);
        assert_ne!(g2, g3);
        assert_eq!(a.report().live_groups, 3);
    }

    #[test]
    fn same_producer_policy_groups_by_producer() {
        let mut a = Allocator::same_producer_baseline();
        let g1 = admit(&mut a, 1, 42, None);
        let g2 = admit(&mut a, 2, 42, None);
        let g3 = admit(&mut a, 3, 99, None);
        assert_eq!(g1, g2);
        assert_ne!(g1, g3);
    }

    #[test]
    fn same_producer_policy_can_strand_memory() {
        // The baseline policy's weakness (Figure 10): a straggling consumer
        // of an early output blocks reclamation of later, already-consumed
        // outputs in the same group.
        let mut a = Allocator::same_producer_baseline();
        for id in 1..=3 {
            admit(&mut a, id, 1, None);
        }
        // 2 and 3 retire, 1 is still being consumed.
        assert!(a.retire(UArrayId(2)).is_empty());
        assert!(a.retire(UArrayId(3)).is_empty());
        assert_eq!(a.report().stuck_bytes, 8192);
        assert_eq!(a.report().committed_bytes, 3 * 4096);

        // The hint-guided allocator with parallel hints would have isolated
        // them; show reclamation works there.
        let mut b = Allocator::hint_guided();
        for id in 1..=3 {
            admit(&mut b, id, 1, parallel(id as u32 - 1));
        }
        assert_eq!(ids(&b.retire(UArrayId(2))), vec![2]);
        assert_eq!(ids(&b.retire(UArrayId(3))), vec![3]);
        assert_eq!(b.report().committed_bytes, 4096);
    }

    #[test]
    fn retiring_the_front_frees_the_retired_run_behind_it() {
        let mut a = Allocator::same_producer_baseline();
        for id in 1..=4 {
            admit(&mut a, id, 1, None);
        }
        a.retire(UArrayId(2));
        a.retire(UArrayId(3));
        // 1 leaves the front: 2 and 3 follow it, 4 is live and stays.
        assert_eq!(ids(&a.retire(UArrayId(1))), vec![1, 2, 3]);
        let r = a.report();
        assert_eq!((r.committed_bytes, r.stuck_bytes, r.live_uarrays), (4096, 0, 1));
    }

    #[test]
    fn reclaim_dissolves_empty_groups_and_releases_vspace() {
        let mut a = Allocator::hint_guided();
        admit(&mut a, 1, 0, None);
        assert_eq!(a.report().live_groups, 1);
        assert!(a.report().virtual_reserved_bytes > 0);
        assert_eq!(a.retire(UArrayId(1)), vec![(UArrayId(1), 4096)]);
        let r = a.report();
        assert_eq!(r.live_groups, 0);
        assert_eq!(r.live_uarrays, 0);
        assert_eq!(r.virtual_reserved_bytes, 0);
        assert_eq!(r.reclaimed_bytes, 4096);
        assert_eq!(a.group_of(UArrayId(1)), None);
        assert!(a.retire(UArrayId(1)).is_empty(), "an unknown id frees nothing");
    }

    #[test]
    fn owner_quotas_gate_charges_and_release_on_reclaim() {
        let mut a = Allocator::hint_guided();
        a.set_owner_quota(OWNER, Some(8192));
        // Two 4 KiB arrays fill the quota; a third is rejected.
        admit(&mut a, 1, 0, None);
        admit(&mut a, 2, 0, None);
        assert_eq!(a.owner_used(OWNER), 8192);
        assert_eq!(a.owner_headroom(OWNER), 0);
        assert!(charge(&mut a, OWNER, 3, 4096).is_err());
        assert_eq!(a.report().live_uarrays, 2, "a rejected array is not placed");
        // A different owner is unaffected.
        assert_eq!(a.owner_headroom(2), u64::MAX);
        // Retiring and reclaiming releases the owner's usage.
        a.retire(UArrayId(1));
        a.retire(UArrayId(2));
        assert_eq!(a.owner_used(OWNER), 0);
        assert_eq!(a.owner_quota(OWNER), Some(8192));
        a.set_owner_quota(OWNER, None);
        assert_eq!(a.owner_quota(OWNER), None);
    }

    #[test]
    fn charges_accumulate_and_release() {
        let mut a = Allocator::hint_guided();
        a.set_owner_quota(OWNER, Some(1000));
        charge(&mut a, OWNER, 10, 400).unwrap();
        charge(&mut a, OWNER, 11, 500).unwrap();
        assert_eq!(a.owner_used(OWNER), 900);
        a.retire(UArrayId(10));
        assert_eq!(a.owner_used(OWNER), 500);
        assert_eq!(a.owner_of(UArrayId(11)), Some(OWNER));
        assert_eq!(a.owner_of(UArrayId(10)), None);
    }

    #[test]
    fn exceeding_the_quota_fails_without_charging() {
        let mut a = Allocator::hint_guided();
        a.set_owner_quota(2, Some(100));
        charge(&mut a, 2, 1, 80).unwrap();
        let err = charge(&mut a, 2, 2, 30).unwrap_err();
        assert_eq!(err, QuotaError { owner: 2, requested: 30, in_use: 80, quota: 100 });
        assert_eq!(a.owner_used(2), 80);
        assert_eq!(a.owner_headroom(2), 20);
        assert_eq!(a.owner_headroom(7), u64::MAX);
        // Admission is all-or-nothing: two outputs that fit only one by one
        // are refused together, and nothing of them is placed.
        let both = [(UArrayId(3), 15), (UArrayId(4), 15)];
        assert!(a.admit(2, 0, &both, &HintSet::none()).is_err());
        assert_eq!((a.owner_used(2), a.report().live_uarrays), (80, 1));
        assert_eq!(a.owner_of(UArrayId(3)), None);
    }

    #[test]
    fn unconstrained_owners_always_fit() {
        let mut a = Allocator::hint_guided();
        assert_eq!(a.owner_headroom(9), u64::MAX);
        charge(&mut a, 9, 1, u64::MAX / 2).unwrap();
        assert_eq!(a.owner_quota(9), None);
        a.set_owner_quota(9, Some(10));
        a.set_owner_quota(9, None);
        charge(&mut a, 9, 2, 1 << 40).unwrap();
    }

    #[test]
    fn quotas_are_per_owner() {
        let mut a = Allocator::hint_guided();
        a.set_owner_quota(1, Some(100));
        a.set_owner_quota(2, Some(100));
        charge(&mut a, 1, 1, 100).unwrap();
        // Owner 1 is full; owner 2 is unaffected.
        assert!(charge(&mut a, 1, 2, 1).is_err());
        charge(&mut a, 2, 3, 100).unwrap();
        assert_eq!(a.owner_used(2), 100);
    }

    #[test]
    fn error_display_names_the_owner() {
        let e = QuotaError { owner: 5, requested: 1, in_use: 2, quota: 3 };
        assert!(e.to_string().contains("owner 5"));
    }

    #[test]
    fn release_owner_frees_everything_in_one_pass() {
        let mut a = Allocator::hint_guided();
        // Owner 1: one live array, one retired-but-stuck behind it (same
        // group via consumed-after), plus one in its own group. Owner 2: one
        // array that must survive untouched.
        admit(&mut a, 1, 0, None);
        let g_shared = admit(&mut a, 2, 0, after(1));
        assert!(a.retire(UArrayId(2)).is_empty(), "stuck behind live 1");
        charge(&mut a, OWNER, 3, 8192).unwrap();
        charge(&mut a, 2, 4, 4096).unwrap();
        let g_other = a.group_of(UArrayId(4)).unwrap();
        assert_ne!(g_shared, g_other);
        assert_eq!(a.owner_used(OWNER), 16384);

        let torn = a.release_owner(OWNER);
        assert_eq!(torn.reclaimed_bytes, 16384);
        assert_eq!(ids(&torn.arrays), vec![1, 2, 3]);
        assert_eq!(a.owner_used(OWNER), 0);
        // Owner 2's array is untouched; its group survives.
        assert_eq!(a.owner_used(2), 4096);
        assert_eq!(a.group_of(UArrayId(4)), Some(g_other));
        assert_eq!(a.group_of(UArrayId(1)), None);
        let r = a.report();
        assert_eq!(r.committed_bytes, 4096);
        assert_eq!(r.live_uarrays, 1);
        assert_eq!(r.live_groups, 1);
        assert_eq!(r.reclaimed_bytes, 16384);
        // A second teardown is a no-op.
        assert_eq!(a.release_owner(OWNER).reclaimed_bytes, 0);
    }

    #[test]
    fn release_owner_lists_only_the_owners_arrays() {
        let mut a = Allocator::hint_guided();
        charge(&mut a, 1, 10, 100).unwrap();
        charge(&mut a, 1, 11, 200).unwrap();
        charge(&mut a, 2, 12, 300).unwrap();
        let mut mine = a.release_owner(1).arrays;
        mine.sort_by_key(|(id, _)| *id);
        assert_eq!(mine, vec![(UArrayId(10), 100), (UArrayId(11), 200)]);
        assert!(a.release_owner(9).arrays.is_empty());
        assert_eq!(a.owner_of(UArrayId(12)), Some(2));
    }

    #[test]
    fn release_owner_reclaims_the_neighbour_fronts_it_exposes() {
        // One shared group: [owner 1 live, owner 2 retired, owner 2 live,
        // owner 2 retired].
        let mut a = Allocator::same_producer_baseline();
        admit(&mut a, 1, 5, None);
        for id in 2..=4 {
            a.admit(2, 5, &[(UArrayId(id), 4096)], &HintSet::none()).unwrap();
        }
        a.retire(UArrayId(2));
        a.retire(UArrayId(4));
        assert_eq!(a.report().stuck_bytes, 8192);
        let torn = a.release_owner(OWNER);
        // Owner 1's array and owner 2's exposed front are freed; owner 2's
        // 4 stays stuck behind its live 3.
        assert_eq!(ids(&torn.arrays), vec![1, 2]);
        assert_eq!(torn.reclaimed_bytes, 4096);
        assert_eq!(a.owner_used(2), 8192);
        let r = a.report();
        assert_eq!((r.committed_bytes, r.stuck_bytes, r.live_uarrays), (8192, 4096, 2));
        assert_eq!(r.reclaimed_bytes, 8192);
    }

    #[test]
    fn report_counts_live_uarrays() {
        let mut a = Allocator::hint_guided();
        admit(&mut a, 1, 0, None);
        admit(&mut a, 2, 0, None);
        assert_eq!(a.report().live_uarrays, 2);
        assert_eq!(a.report().live_groups, 2);
    }
}
