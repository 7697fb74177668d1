//! Virtual address space management for uGroups.
//!
//! TrustZone TEEs on ARMv8 have a 256 TB virtual address space — four orders
//! of magnitude larger than the physical secure DRAM — so the allocator can
//! afford to reserve a virtual range *as large as the entire TEE DRAM* for
//! every uGroup and let them grow in place without ever colliding or
//! relocating (§6.2). This module tracks those reservations so the
//! evaluation can validate the paper's claim that virtual usage stays at a
//! few percent of the space.

/// Total TEE virtual address space modelled (256 TB, ARMv8 with 48-bit VA).
pub const TEE_VA_SPACE_BYTES: u64 = 256 * (1u64 << 40);

/// Tracker of virtual-address reservations made on behalf of uGroups.
#[derive(Debug)]
pub struct VirtualSpace {
    /// Size of the reservation handed to each uGroup.
    reservation_bytes: u64,
    /// Next free virtual address (bump reservation).
    next_addr: u64,
    /// Currently live reservations.
    live_reservations: u64,
    /// Peak number of simultaneously live reservations.
    peak_reservations: u64,
}

impl VirtualSpace {
    /// Create a tracker that hands out `reservation_bytes` per uGroup
    /// (the paper reserves the size of the entire TEE DRAM).
    pub fn new(reservation_bytes: u64) -> Self {
        VirtualSpace {
            reservation_bytes: reservation_bytes.max(1),
            next_addr: 0,
            live_reservations: 0,
            peak_reservations: 0,
        }
    }

    /// Reserve a fresh virtual range for a new uGroup, returning its base
    /// address. Reservations are never reused in-place (matching the bump
    /// behaviour of the paper's allocator); exhausting 256 TB would require
    /// billions of uGroups and indicates a logic error, so it panics.
    pub fn reserve(&mut self) -> u64 {
        let base = self.next_addr;
        self.next_addr = self
            .next_addr
            .checked_add(self.reservation_bytes)
            .expect("TEE virtual address space exhausted");
        assert!(
            self.next_addr <= TEE_VA_SPACE_BYTES,
            "TEE virtual address space exhausted ({} reservations)",
            self.live_reservations + 1
        );
        self.live_reservations += 1;
        self.peak_reservations = self.peak_reservations.max(self.live_reservations);
        base
    }

    /// Release a reservation (the address range is not recycled, only the
    /// live count drops — mirroring that the allocator tracks live uGroups,
    /// not address reuse).
    pub fn release(&mut self) {
        debug_assert!(self.live_reservations > 0, "releasing more reservations than made");
        self.live_reservations = self.live_reservations.saturating_sub(1);
    }

    /// Bytes of virtual address space currently reserved by live uGroups.
    pub fn reserved_bytes(&self) -> u64 {
        self.live_reservations * self.reservation_bytes
    }

    /// Fraction of the 256 TB TEE virtual space currently reserved, in
    /// percent (floating point for reporting).
    pub fn utilization_percent(&self) -> f64 {
        self.reserved_bytes() as f64 / TEE_VA_SPACE_BYTES as f64 * 100.0
    }

    /// Number of live reservations (== live uGroups).
    pub fn live_reservations(&self) -> u64 {
        self.live_reservations
    }

    /// Peak number of simultaneously live reservations.
    pub fn peak_reservations(&self) -> u64 {
        self.peak_reservations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_do_not_overlap() {
        let mut vs = VirtualSpace::new(1 << 20);
        let a = vs.reserve();
        let b = vs.reserve();
        let c = vs.reserve();
        assert_eq!(a, 0);
        assert_eq!(b, 1 << 20);
        assert_eq!(c, 2 << 20);
    }

    #[test]
    fn live_and_peak_counts() {
        let mut vs = VirtualSpace::new(1 << 30);
        vs.reserve();
        vs.reserve();
        vs.reserve();
        assert_eq!(vs.live_reservations(), 3);
        vs.release();
        assert_eq!(vs.live_reservations(), 2);
        assert_eq!(vs.peak_reservations(), 3);
        assert_eq!(vs.reserved_bytes(), 2 << 30);
    }

    #[test]
    fn utilization_stays_small_for_realistic_group_counts() {
        // 256 MB reservations (the TEE DRAM size), a few hundred live groups:
        // utilization must be far below 1% of 256 TB, validating the paper's
        // "1–5% of the virtual address space" headroom claim.
        let mut vs = VirtualSpace::new(256 << 20);
        for _ in 0..500 {
            vs.reserve();
        }
        assert!(vs.utilization_percent() < 1.0, "{}", vs.utilization_percent());
    }

    #[test]
    #[should_panic(expected = "virtual address space exhausted")]
    fn exhaustion_panics() {
        let mut vs = VirtualSpace::new(TEE_VA_SPACE_BYTES / 2 + 1);
        vs.reserve();
        vs.reserve();
    }
}
