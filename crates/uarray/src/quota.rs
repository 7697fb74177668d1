//! Per-owner (tenant) memory quotas over the uArray allocator.
//!
//! The multi-tenant server admits many pipelines onto one TEE; the secure
//! carve-out they share is partitioned by *quotas* so one tenant filling its
//! budget cannot starve the others. The quota book charges every uArray's
//! committed bytes against the owner tag it was registered under and rejects
//! charges that would push an owner past its quota. Owners without an entry
//! are unconstrained (single-tenant deployments never touch this).

use crate::uarray::UArrayId;
use std::collections::HashMap;

/// Error returned when a charge would exceed an owner's quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaError {
    /// The owner tag that hit its quota.
    pub owner: u64,
    /// Bytes the charge requested.
    pub requested: u64,
    /// Bytes the owner had in use before the charge.
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

/// Per-owner usage bookkeeping and quota enforcement.
#[derive(Debug, Default)]
pub struct QuotaBook {
    /// Owner tag -> quota in bytes. Absent owners are unconstrained.
    quotas: HashMap<u64, u64>,
    /// Owner tag -> bytes currently charged.
    used: HashMap<u64, u64>,
    /// uArray -> (owner, bytes charged), so reclamation can release.
    charges: HashMap<UArrayId, (u64, u64)>,
}

impl QuotaBook {
    /// Create an empty book.
    pub fn new() -> Self {
        QuotaBook::default()
    }

    /// Install (or replace) an owner's quota.
    pub fn set_quota(&mut self, owner: u64, bytes: u64) {
        self.quotas.insert(owner, bytes);
    }

    /// Remove an owner's quota (it becomes unconstrained again).
    pub fn clear_quota(&mut self, owner: u64) {
        self.quotas.remove(&owner);
    }

    /// The owner's quota, if one is installed.
    pub fn quota_of(&self, owner: u64) -> Option<u64> {
        self.quotas.get(&owner).copied()
    }

    /// Bytes currently charged to an owner.
    pub fn used_by(&self, owner: u64) -> u64 {
        self.used.get(&owner).copied().unwrap_or(0)
    }

    /// Bytes the owner may still be charged (`u64::MAX` without a quota).
    pub fn headroom(&self, owner: u64) -> u64 {
        match self.quota_of(owner) {
            Some(quota) => quota.saturating_sub(self.used_by(owner)),
            None => u64::MAX,
        }
    }

    /// Whether charging `bytes` more would exceed the owner's quota.
    pub fn would_exceed(&self, owner: u64, bytes: u64) -> bool {
        match self.quota_of(owner) {
            Some(quota) => self.used_by(owner).saturating_add(bytes) > quota,
            None => false,
        }
    }

    /// Charge `bytes` for a uArray to an owner; fails without charging if the
    /// owner's quota would be exceeded.
    pub fn charge(&mut self, owner: u64, id: UArrayId, bytes: u64) -> Result<(), QuotaError> {
        let in_use = self.used_by(owner);
        if let Some(quota) = self.quota_of(owner) {
            if in_use.saturating_add(bytes) > quota {
                return Err(QuotaError { owner, requested: bytes, in_use, quota });
            }
        }
        *self.used.entry(owner).or_insert(0) += bytes;
        self.charges.insert(id, (owner, bytes));
        Ok(())
    }

    /// Release the charge recorded for a uArray (on reclamation). Unknown
    /// ids are a no-op: uArrays predating quota tracking carry no charge.
    pub fn release(&mut self, id: UArrayId) {
        if let Some((owner, bytes)) = self.charges.remove(&id) {
            if let Some(used) = self.used.get_mut(&owner) {
                *used = used.saturating_sub(bytes);
            }
        }
    }

    /// The owner a uArray was charged to, if any.
    pub fn owner_of(&self, id: UArrayId) -> Option<u64> {
        self.charges.get(&id).map(|(owner, _)| *owner)
    }

    /// Every uArray currently charged to an owner, with its charged bytes.
    /// The order is unspecified (teardown frees them all in one pass).
    pub fn charged_to(&self, owner: u64) -> Vec<(UArrayId, u64)> {
        self.charges
            .iter()
            .filter(|(_, (o, _))| *o == owner)
            .map(|(id, (_, bytes))| (*id, *bytes))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_release() {
        let mut q = QuotaBook::new();
        q.set_quota(1, 1000);
        q.charge(1, UArrayId(10), 400).unwrap();
        q.charge(1, UArrayId(11), 500).unwrap();
        assert_eq!(q.used_by(1), 900);
        q.release(UArrayId(10));
        assert_eq!(q.used_by(1), 500);
        assert_eq!(q.owner_of(UArrayId(11)), Some(1));
        assert_eq!(q.owner_of(UArrayId(10)), None);
    }

    #[test]
    fn exceeding_the_quota_fails_without_charging() {
        let mut q = QuotaBook::new();
        q.set_quota(2, 100);
        q.charge(2, UArrayId(1), 80).unwrap();
        let err = q.charge(2, UArrayId(2), 30).unwrap_err();
        assert_eq!(err, QuotaError { owner: 2, requested: 30, in_use: 80, quota: 100 });
        assert_eq!(q.used_by(2), 80);
        assert!(q.would_exceed(2, 21));
        assert!(!q.would_exceed(2, 20));
        assert_eq!(q.headroom(2), 20);
        assert_eq!(q.headroom(7), u64::MAX);
    }

    #[test]
    fn unconstrained_owners_always_fit() {
        let mut q = QuotaBook::new();
        assert!(!q.would_exceed(9, u64::MAX));
        q.charge(9, UArrayId(1), u64::MAX / 2).unwrap();
        assert_eq!(q.quota_of(9), None);
        q.set_quota(9, 10);
        q.clear_quota(9);
        assert!(!q.would_exceed(9, 1 << 40));
    }

    #[test]
    fn quotas_are_per_owner() {
        let mut q = QuotaBook::new();
        q.set_quota(1, 100);
        q.set_quota(2, 100);
        q.charge(1, UArrayId(1), 100).unwrap();
        // Owner 1 is full; owner 2 is unaffected.
        assert!(q.charge(1, UArrayId(2), 1).is_err());
        q.charge(2, UArrayId(3), 100).unwrap();
        assert_eq!(q.used_by(2), 100);
    }

    #[test]
    fn charged_to_lists_only_the_owners_arrays() {
        let mut q = QuotaBook::new();
        q.charge(1, UArrayId(10), 100).unwrap();
        q.charge(1, UArrayId(11), 200).unwrap();
        q.charge(2, UArrayId(12), 300).unwrap();
        let mut mine = q.charged_to(1);
        mine.sort_by_key(|(id, _)| *id);
        assert_eq!(mine, vec![(UArrayId(10), 100), (UArrayId(11), 200)]);
        assert!(q.charged_to(9).is_empty());
    }

    #[test]
    fn error_display_names_the_owner() {
        let e = QuotaError { owner: 5, requested: 1, in_use: 2, quota: 3 };
        assert!(e.to_string().contains("owner 5"));
    }
}
