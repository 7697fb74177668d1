//! Trusted IO (TZPC analogue) versus via-OS ingestion.
//!
//! TrustZone can assign IO peripherals to the secure world, so ingress data
//! can flow directly into the TEE without the untrusted OS touching it
//! (§2.1, §3.1). The alternative — the OS receives the (encrypted) bytes and
//! copies them across the TEE boundary — is what the `SBT IOviaOS` variant
//! of the evaluation measures. This module models both paths: the trusted
//! path charges nothing extra; the via-OS path charges a boundary copy plus
//! one extra world switch per delivered buffer.

use crate::cost::CostModel;
use crate::stats::TzStats;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How ingested bytes reach the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IngressPath {
    /// The peripheral is owned by the secure world; bytes land directly in
    /// TEE memory.
    TrustedIo,
    /// The untrusted OS receives the bytes and copies them into the TEE.
    ViaOs,
}

/// A unidirectional channel delivering ingress buffers to the secure world,
/// charging the costs appropriate for its [`IngressPath`].
pub struct IoChannel {
    path: IngressPath,
    cost: CostModel,
    stats: Arc<TzStats>,
}

impl IoChannel {
    /// Create a channel over the given path.
    pub fn new(path: IngressPath, cost: CostModel, stats: Arc<TzStats>) -> Self {
        IoChannel { path, cost, stats }
    }

    /// The path this channel models.
    pub fn path(&self) -> IngressPath {
        self.path
    }

    /// Deliver a buffer of `len` bytes to the secure world and return the
    /// simulated overhead in nanoseconds charged for the delivery.
    ///
    /// The caller owns moving the actual bytes (they are already in process
    /// memory); this call only accounts for what the hardware/OS path would
    /// cost.
    pub fn deliver(&self, len: usize) -> u64 {
        match self.path {
            IngressPath::TrustedIo => {
                self.stats.record_trusted_io(len as u64);
                0
            }
            IngressPath::ViaOs => {
                // The OS receives the buffer, then enters the TEE and copies
                // it across the boundary: one extra switch + a per-byte copy.
                let copy = self.cost.boundary_copy_nanos(len);
                let switch = self.cost.switch_nanos();
                self.stats.record_via_os(len as u64);
                self.stats.record_boundary_copy(len as u64, copy);
                self.stats.record_switch(switch);
                copy + switch
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(path: IngressPath) -> (IoChannel, Arc<TzStats>) {
        let stats = Arc::new(TzStats::new());
        (IoChannel::new(path, CostModel::hikey(), stats.clone()), stats)
    }

    #[test]
    fn trusted_io_is_free_and_counted() {
        let (ch, stats) = setup(IngressPath::TrustedIo);
        let cost = ch.deliver(1 << 20);
        assert_eq!(cost, 0);
        let snap = stats.snapshot();
        assert_eq!(snap.trusted_io_bytes, 1 << 20);
        assert_eq!(snap.via_os_bytes, 0);
        assert_eq!(snap.world_switches, 0);
    }

    #[test]
    fn via_os_charges_copy_and_switch() {
        let (ch, stats) = setup(IngressPath::ViaOs);
        let cost = ch.deliver(1 << 20);
        assert!(cost > 0);
        let snap = stats.snapshot();
        assert_eq!(snap.via_os_bytes, 1 << 20);
        assert_eq!(snap.boundary_copy_bytes, 1 << 20);
        assert_eq!(snap.world_switches, 1);
        assert_eq!(cost, snap.boundary_copy_nanos + snap.switch_nanos);
    }

    #[test]
    fn via_os_cost_scales_with_size() {
        let (ch, _) = setup(IngressPath::ViaOs);
        let small = ch.deliver(1_000);
        let large = ch.deliver(1_000_000);
        assert!(large > small);
    }

    #[test]
    fn path_accessor() {
        let (ch, _) = setup(IngressPath::TrustedIo);
        assert_eq!(ch.path(), IngressPath::TrustedIo);
    }
}
