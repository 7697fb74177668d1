//! Engine configuration and the evaluation's engine variants (Table 5).

use sbt_dataplane::DataPlaneConfig;
use sbt_tz::IngressPath;
use sbt_tz::PlatformConfig;
use sbt_uarray::{AllocatorConfig, PlacementPolicy};

/// The four engine variants compared throughout §9 (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineVariant {
    /// Full StreamBox-TZ: data plane in TEE, trusted IO, encrypted ingress
    /// and egress.
    Sbt,
    /// StreamBox-TZ with cleartext ingress (trusted source→edge link).
    SbtClearIngress,
    /// StreamBox-TZ ingesting through the untrusted OS (no trusted IO): the
    /// OS receives the encrypted data and copies it across the TEE boundary.
    SbtIoViaOs,
    /// Insecure baseline: everything in the normal world, cleartext ingress
    /// and egress, no isolation costs. Equivalent to StreamBox running
    /// StreamBox-TZ's optimized stream computations.
    Insecure,
}

impl EngineVariant {
    /// All four variants, in the order the figures list them.
    pub const ALL: [EngineVariant; 4] = [
        EngineVariant::Sbt,
        EngineVariant::SbtClearIngress,
        EngineVariant::SbtIoViaOs,
        EngineVariant::Insecure,
    ];

    /// Display label used by the harness output.
    pub fn label(&self) -> &'static str {
        match self {
            EngineVariant::Sbt => "StreamBox-TZ",
            EngineVariant::SbtClearIngress => "SBT ClearIngress",
            EngineVariant::SbtIoViaOs => "SBT IOviaOS",
            EngineVariant::Insecure => "Insecure",
        }
    }

    /// Whether sources encrypt the stream for this variant.
    pub fn encrypted_ingress(&self) -> bool {
        matches!(self, EngineVariant::Sbt | EngineVariant::SbtIoViaOs)
    }
}

/// Full engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// Which evaluation variant this engine models.
    pub variant: EngineVariant,
    /// Number of worker threads (CPU cores used).
    pub cores: usize,
    /// Secure-memory budget in bytes.
    pub secure_mem_bytes: u64,
    /// Data-plane keys, audit settings and allocator policy.
    pub dataplane: DataPlaneConfig,
}

impl EngineConfig {
    /// Configuration for a variant on an 8-core HiKey-like platform.
    pub fn for_variant(variant: EngineVariant, cores: usize) -> Self {
        EngineConfig {
            variant,
            cores: cores.max(1),
            secure_mem_bytes: 256 * 1024 * 1024,
            dataplane: DataPlaneConfig::default(),
        }
    }

    /// Disable hint-guided placement: the allocator takes the same-producer
    /// baseline policy (Figure 10 baseline).
    pub fn without_hints(mut self) -> Self {
        self.dataplane.allocator =
            AllocatorConfig { policy: PlacementPolicy::SameProducer, ..self.dataplane.allocator };
        self
    }

    /// Override the secure-memory budget.
    pub fn with_secure_mem(mut self, bytes: u64) -> Self {
        self.secure_mem_bytes = bytes;
        self
    }

    /// Derive the simulated platform configuration for this engine.
    pub fn platform_config(&self) -> PlatformConfig {
        let base =
            PlatformConfig::hikey().with_cores(self.cores).with_secure_mem(self.secure_mem_bytes);
        match self.variant {
            EngineVariant::Sbt | EngineVariant::SbtClearIngress => {
                base.with_ingress(IngressPath::TrustedIo)
            }
            EngineVariant::SbtIoViaOs => base.with_ingress(IngressPath::ViaOs),
            EngineVariant::Insecure => base.with_ingress(IngressPath::TrustedIo).with_free_costs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels_and_encryption() {
        assert_eq!(EngineVariant::ALL.len(), 4);
        assert!(EngineVariant::Sbt.encrypted_ingress());
        assert!(EngineVariant::SbtIoViaOs.encrypted_ingress());
        assert!(!EngineVariant::SbtClearIngress.encrypted_ingress());
        assert!(!EngineVariant::Insecure.encrypted_ingress());
        assert_eq!(EngineVariant::Sbt.label(), "StreamBox-TZ");
    }

    #[test]
    fn platform_config_follows_variant() {
        let sbt = EngineConfig::for_variant(EngineVariant::Sbt, 4).platform_config();
        assert_eq!(sbt.cores, 4);
        assert!(sbt.cost.optee_switch_cycles > 0);
        assert_eq!(sbt.ingress_path, IngressPath::TrustedIo);

        let via_os = EngineConfig::for_variant(EngineVariant::SbtIoViaOs, 4).platform_config();
        assert_eq!(via_os.ingress_path, IngressPath::ViaOs);

        let insecure = EngineConfig::for_variant(EngineVariant::Insecure, 4).platform_config();
        assert_eq!(insecure.cost.optee_switch_cycles, 0);
    }

    #[test]
    fn without_hints_switches_allocator_policy() {
        let default = EngineConfig::for_variant(EngineVariant::Sbt, 2);
        assert_ne!(default.dataplane.allocator.policy, PlacementPolicy::SameProducer);
        let cfg = default.without_hints();
        assert_eq!(cfg.dataplane.allocator.policy, PlacementPolicy::SameProducer);
    }

    #[test]
    fn cores_are_clamped_to_at_least_one() {
        assert_eq!(EngineConfig::for_variant(EngineVariant::Sbt, 0).cores, 1);
    }
}
