//! Secure-world DRAM budget (TZASC analogue).
//!
//! TrustZone's address-space controller partitions DRAM between the worlds;
//! the secure carve-out is small — tens to a couple hundred MB on typical
//! boards. The data plane's allocator must therefore keep a compact layout
//! and the engine must apply backpressure when ingestion outpaces secure
//! memory (§4.2). This module is the accounting authority for that budget.

use std::sync::atomic::{AtomicU64, Ordering};

/// The share of a memory budget, in percent, from which its user is under
/// pressure and its sources are slowed: the threshold of the platform's
/// secure carve-out and of every tenant's quota alike.
pub const BACKPRESSURE_PERCENT: u64 = 80;

/// Whether `in_use` bytes reach [`BACKPRESSURE_PERCENT`] of `budget`.
pub fn under_pressure(in_use: u64, budget: u64) -> bool {
    in_use as u128 * 100 >= budget as u128 * BACKPRESSURE_PERCENT as u128
}

/// Error returned when a reservation would exceed the secure-memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecureMemoryError {
    /// Bytes that were requested.
    pub requested: u64,
    /// Bytes currently in use.
    pub in_use: u64,
    /// Total budget in bytes.
    pub budget: u64,
}

impl std::fmt::Display for SecureMemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "secure memory exhausted: requested {} B with {} B in use of {} B budget",
            self.requested, self.in_use, self.budget
        )
    }
}

impl std::error::Error for SecureMemoryError {}

/// Byte-granular accounting of the secure-world DRAM carve-out.
///
/// The tracker is shared (behind `Arc`) between the TEE pager, the uArray
/// allocator and the engine's backpressure logic.
#[derive(Debug)]
pub struct SecureMemory {
    budget_bytes: u64,
    in_use: AtomicU64,
    high_water: AtomicU64,
}

impl SecureMemory {
    /// Create a tracker with the given budget; it signals backpressure from
    /// [`BACKPRESSURE_PERCENT`] of the budget.
    pub fn new(budget_bytes: u64) -> Self {
        SecureMemory { budget_bytes, in_use: AtomicU64::new(0), high_water: AtomicU64::new(0) }
    }

    /// The paper's evaluation platform: HiKey with 2 GB DRAM; OP-TEE's secure
    /// carve-out is modelled as 256 MB with backpressure at 80%.
    pub fn hikey_default() -> Self {
        SecureMemory::new(256 * 1024 * 1024)
    }

    /// Total budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget_bytes
    }

    /// Bytes currently charged.
    pub fn in_use(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Highest usage observed since creation (or the last [`reset_high_water`]).
    ///
    /// [`reset_high_water`]: SecureMemory::reset_high_water
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Reset the high-water mark to the current usage.
    pub fn reset_high_water(&self) {
        self.high_water.store(self.in_use(), Ordering::Relaxed);
    }

    /// Whether usage reaches [`BACKPRESSURE_PERCENT`] of the budget. The
    /// engine slows ingestion (backpressure to sources) while this holds.
    pub fn under_pressure(&self) -> bool {
        under_pressure(self.in_use(), self.budget_bytes)
    }

    /// Charge `bytes` against the budget. Fails without charging if the
    /// budget would be exceeded.
    pub fn charge(&self, bytes: u64) -> Result<(), SecureMemoryError> {
        let mut current = self.in_use.load(Ordering::Relaxed);
        loop {
            let next = current + bytes;
            if next > self.budget_bytes {
                return Err(SecureMemoryError {
                    requested: bytes,
                    in_use: current,
                    budget: self.budget_bytes,
                });
            }
            match self.in_use.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.high_water.fetch_max(next, Ordering::Relaxed);
                    return Ok(());
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Release `bytes` previously charged. Releasing more than is in use is
    /// a bookkeeping bug; the counter saturates at zero and debug builds
    /// assert.
    pub fn release(&self, bytes: u64) {
        let mut current = self.in_use.load(Ordering::Relaxed);
        loop {
            debug_assert!(current >= bytes, "releasing more secure memory than charged");
            let next = current.saturating_sub(bytes);
            match self.in_use.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_release_track_usage() {
        let m = SecureMemory::new(1000);
        m.charge(400).unwrap();
        assert_eq!(m.in_use(), 400);
        m.charge(500).unwrap();
        assert_eq!(m.in_use(), 900);
        m.release(300);
        assert_eq!(m.in_use(), 600);
        assert_eq!(m.high_water(), 900);
    }

    #[test]
    fn charge_fails_when_budget_exceeded() {
        let m = SecureMemory::new(1000);
        m.charge(900).unwrap();
        let err = m.charge(200).unwrap_err();
        assert_eq!(err.requested, 200);
        assert_eq!(err.in_use, 900);
        assert_eq!(err.budget, 1000);
        // The failed charge must not have been applied.
        assert_eq!(m.in_use(), 900);
    }

    #[test]
    fn backpressure_threshold() {
        let m = SecureMemory::new(1000);
        m.charge(799).unwrap();
        assert!(!m.under_pressure());
        m.charge(1).unwrap();
        assert!(m.under_pressure());
        m.release(200);
        assert!(!m.under_pressure());
        // The rule is exact at any budget, without overflow.
        assert!(under_pressure(u64::MAX / 5 * 4 + 1, u64::MAX));
        assert!(!under_pressure(u64::MAX / 5 * 4 - 1, u64::MAX));
    }

    #[test]
    fn high_water_reset() {
        let m = SecureMemory::new(1000);
        m.charge(500).unwrap();
        m.release(500);
        assert_eq!(m.high_water(), 500);
        m.reset_high_water();
        assert_eq!(m.high_water(), 0);
    }

    #[test]
    fn hikey_default_budget() {
        let m = SecureMemory::hikey_default();
        assert_eq!(m.budget(), 256 * 1024 * 1024);
        assert!(!m.under_pressure());
    }

    #[test]
    fn concurrent_charges_never_exceed_budget() {
        let m = std::sync::Arc::new(SecureMemory::new(10_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                let mut charged = 0u64;
                for _ in 0..1000 {
                    if m.charge(7).is_ok() {
                        charged += 7;
                    }
                }
                charged
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(m.in_use(), total);
        assert!(m.in_use() <= 10_000);
        assert!(m.high_water() <= 10_000);
    }
}
