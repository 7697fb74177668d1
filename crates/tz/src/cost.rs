//! World-switch and boundary-crossing cost model.
//!
//! The paper's profiling (Figure 9) attributes most of the isolation overhead
//! to world switches, and most of each switch to OP-TEE's software path
//! rather than the hardware trap ("a few thousand cycles per switch"). The
//! cost model charges:
//!
//! * a fixed number of cycles per TEE entry/exit pair (hardware + OP-TEE),
//! * a per-byte cost for copying buffers across the TEE boundary (only paid
//!   on the "via OS" ingress path — trusted IO avoids it), and
//! * a per-page cost for committing secure memory (on-demand paging in TEE,
//!   which §9.3 shows is much cheaper than normal-world `mmap`-style growth).
//!
//! Charges are expressed in CPU cycles and converted to nanoseconds with the
//! configured clock so harnesses can combine simulated overhead with measured
//! compute time. Defaults are calibrated to the paper's HiKey platform
//! (8 × Cortex-A53 @ 1.2 GHz).

use serde::{Deserialize, Serialize};

/// Cycle/byte cost parameters for the simulated platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// CPU clock in Hz; used to convert cycles to nanoseconds.
    pub cpu_hz: u64,
    /// Hardware cost of one full world switch (entry + exit), in cycles.
    pub hw_switch_cycles: u64,
    /// OP-TEE software cost of one full world switch (entry + exit), in
    /// cycles. The paper observes this dominates the hardware cost.
    pub optee_switch_cycles: u64,
    /// Cost per byte copied across the TEE boundary (via-OS ingress), cycles.
    pub boundary_copy_cycles_per_byte: u64,
    /// Cost of committing one 4 KiB page of secure memory in TEE, cycles.
    pub tee_page_commit_cycles: u64,
    /// Cost of committing one 4 KiB page in the normal world (page fault +
    /// kernel path), cycles. Used by the `std::vector`-style baseline.
    pub os_page_commit_cycles: u64,
    /// Cost of relocating one byte when a normal-world container grows by
    /// reallocation, cycles per byte.
    pub relocation_cycles_per_byte: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::hikey()
    }
}

impl CostModel {
    /// Cost model calibrated to the paper's HiKey evaluation platform.
    pub fn hikey() -> Self {
        CostModel {
            cpu_hz: 1_200_000_000,
            // "a few thousand cycles per switch" of hardware cost...
            hw_switch_cycles: 3_000,
            // ...with most of the switch overhead coming from OP-TEE.
            optee_switch_cycles: 45_000,
            // Copy into and out of a bounce buffer on an in-order core.
            boundary_copy_cycles_per_byte: 2,
            tee_page_commit_cycles: 600,
            // Anonymous-page fault + zeroing + allocator path in a commodity
            // OS on the same core.
            os_page_commit_cycles: 12_000,
            relocation_cycles_per_byte: 3,
        }
    }

    /// A zero-cost model: useful for the `Insecure` engine variant, which
    /// runs entirely in the normal world and pays no isolation costs.
    pub fn free() -> Self {
        CostModel {
            cpu_hz: 1_200_000_000,
            hw_switch_cycles: 0,
            optee_switch_cycles: 0,
            boundary_copy_cycles_per_byte: 0,
            tee_page_commit_cycles: 0,
            os_page_commit_cycles: 0,
            relocation_cycles_per_byte: 0,
        }
    }

    /// Total cycles of one world switch (entry + exit).
    pub fn switch_cycles(&self) -> u64 {
        self.hw_switch_cycles + self.optee_switch_cycles
    }

    /// Convert a cycle count into nanoseconds under this model's clock.
    pub fn cycles_to_nanos(&self, cycles: u64) -> u64 {
        if self.cpu_hz == 0 {
            return 0;
        }
        // cycles * 1e9 / hz, computed in u128 to avoid overflow.
        ((cycles as u128) * 1_000_000_000u128 / self.cpu_hz as u128) as u64
    }

    /// Nanoseconds charged for one world switch.
    pub fn switch_nanos(&self) -> u64 {
        self.cycles_to_nanos(self.switch_cycles())
    }

    /// Nanoseconds charged for copying `bytes` across the TEE boundary.
    pub fn boundary_copy_nanos(&self, bytes: usize) -> u64 {
        self.cycles_to_nanos(self.boundary_copy_cycles_per_byte * bytes as u64)
    }

    /// Nanoseconds charged for committing `pages` 4 KiB pages in the TEE.
    pub fn tee_paging_nanos(&self, pages: usize) -> u64 {
        self.cycles_to_nanos(self.tee_page_commit_cycles * pages as u64)
    }

    /// Nanoseconds charged for committing `pages` 4 KiB pages in the normal
    /// world.
    pub fn os_paging_nanos(&self, pages: usize) -> u64 {
        self.cycles_to_nanos(self.os_page_commit_cycles * pages as u64)
    }

    /// Nanoseconds charged for relocating `bytes` during container growth.
    pub fn relocation_nanos(&self, bytes: usize) -> u64 {
        self.cycles_to_nanos(self.relocation_cycles_per_byte * bytes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hikey_defaults_are_sane() {
        let m = CostModel::hikey();
        assert_eq!(m.cpu_hz, 1_200_000_000);
        assert!(m.optee_switch_cycles > m.hw_switch_cycles);
        // One switch at 1.2 GHz with 48k cycles is 40 µs.
        assert_eq!(m.switch_nanos(), 40_000);
    }

    #[test]
    fn cycle_conversion_rounds_down() {
        let m = CostModel { cpu_hz: 1_000_000_000, ..CostModel::hikey() };
        assert_eq!(m.cycles_to_nanos(1), 1);
        assert_eq!(m.cycles_to_nanos(1_000), 1_000);
        let m2 = CostModel { cpu_hz: 2_000_000_000, ..CostModel::hikey() };
        assert_eq!(m2.cycles_to_nanos(3), 1);
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = CostModel::free();
        assert_eq!(m.switch_nanos(), 0);
        assert_eq!(m.boundary_copy_nanos(1 << 20), 0);
        assert_eq!(m.tee_paging_nanos(1000), 0);
    }

    #[test]
    fn zero_hz_does_not_divide_by_zero() {
        let m = CostModel { cpu_hz: 0, ..CostModel::hikey() };
        assert_eq!(m.cycles_to_nanos(12345), 0);
    }

    #[test]
    fn copy_cost_scales_with_bytes() {
        let m = CostModel::hikey();
        assert!(m.boundary_copy_nanos(2_000_000) > m.boundary_copy_nanos(1_000_000));
    }

    #[test]
    fn tee_paging_is_cheaper_than_os_paging() {
        let m = CostModel::hikey();
        assert!(m.tee_paging_nanos(100) < m.os_paging_nanos(100));
    }
}
