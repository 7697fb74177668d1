//! The TEE pager: on-demand commitment of secure pages.
//!
//! uArrays grow by bumping an index; the physical memory behind the growth
//! is committed page-by-page inside the TEE. The pager charges committed
//! pages against the secure-memory budget (the TZASC carve-out) and records
//! the paging cost in the platform counters, so that memory-management time
//! shows up in the Figure 9 breakdown and memory usage in Figure 7/10.

use sbt_tz::{CostModel, SecureMemory, SecureMemoryError, TzStats};
use std::sync::Arc;

/// Page size used by the simulated TEE pager (4 KiB, as on ARMv8).
pub const PAGE_SIZE: u64 = 4096;

/// Error produced when the pager cannot commit more secure memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageError(pub SecureMemoryError);

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TEE pager: {}", self.0)
    }
}

impl std::error::Error for PageError {}

/// On-demand pager for secure memory.
pub struct TeePager {
    secure_mem: Arc<SecureMemory>,
    stats: Arc<TzStats>,
    cost: CostModel,
}

impl TeePager {
    /// Create a pager over a platform's secure memory and counters.
    pub fn new(secure_mem: Arc<SecureMemory>, stats: Arc<TzStats>, cost: CostModel) -> Self {
        TeePager { secure_mem, stats, cost }
    }

    /// Round a byte count up to whole pages.
    pub fn pages_for(bytes: u64) -> u64 {
        bytes.div_ceil(PAGE_SIZE)
    }

    /// Commit `pages` additional pages, charging the budget and the paging
    /// cost. Returns the simulated nanoseconds spent.
    pub fn commit_pages(&self, pages: u64) -> Result<u64, PageError> {
        if pages == 0 {
            return Ok(0);
        }
        self.secure_mem.charge(pages * PAGE_SIZE).map_err(PageError)?;
        let nanos = self.cost.tee_paging_nanos(pages as usize);
        self.stats.record_tee_paging(pages, nanos);
        Ok(nanos)
    }

    /// Release `pages` previously committed pages back to the budget.
    pub fn release_pages(&self, pages: u64) {
        if pages > 0 {
            self.secure_mem.release(pages * PAGE_SIZE);
        }
    }

    /// Bytes of secure memory currently committed (over the whole platform).
    pub fn committed_bytes(&self) -> u64 {
        self.secure_mem.in_use()
    }

    /// Whether the platform is under memory pressure (backpressure signal).
    pub fn under_pressure(&self) -> bool {
        self.secure_mem.under_pressure()
    }

    /// The underlying secure-memory tracker.
    pub fn secure_mem(&self) -> &Arc<SecureMemory> {
        &self.secure_mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pager(budget: u64) -> TeePager {
        TeePager::new(
            Arc::new(SecureMemory::new(budget)),
            Arc::new(TzStats::new()),
            CostModel::hikey(),
        )
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(TeePager::pages_for(0), 0);
        assert_eq!(TeePager::pages_for(1), 1);
        assert_eq!(TeePager::pages_for(4096), 1);
        assert_eq!(TeePager::pages_for(4097), 2);
        assert_eq!(TeePager::pages_for(12 * 1024), 3);
    }

    #[test]
    fn commit_charges_budget_and_cost() {
        let p = pager(1 << 20);
        let nanos = p.commit_pages(4).unwrap();
        assert!(nanos > 0);
        assert_eq!(p.committed_bytes(), 4 * PAGE_SIZE);
        p.release_pages(4);
        assert_eq!(p.committed_bytes(), 0);
    }

    #[test]
    fn commit_zero_pages_is_free() {
        let p = pager(1 << 20);
        assert_eq!(p.commit_pages(0).unwrap(), 0);
        assert_eq!(p.committed_bytes(), 0);
    }

    #[test]
    fn commit_fails_beyond_budget() {
        let p = pager(8 * PAGE_SIZE);
        p.commit_pages(8).unwrap();
        assert!(p.commit_pages(1).is_err());
        // Failed commit does not change accounting.
        assert_eq!(p.committed_bytes(), 8 * PAGE_SIZE);
    }

    #[test]
    fn pressure_reflects_budget_usage() {
        let p = pager(10 * PAGE_SIZE);
        assert!(!p.under_pressure());
        p.commit_pages(9).unwrap();
        assert!(p.under_pressure());
    }
}
