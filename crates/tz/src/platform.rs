//! The assembled simulated platform.
//!
//! A [`Platform`] bundles the cost model, the secure-memory budget, the
//! shared counters and the SMC interface, mirroring one physical edge board
//! (the paper's HiKey). The data plane and the engine both hold an
//! `Arc<Platform>`; benches construct one platform per engine variant.

use crate::cost::CostModel;
use crate::secure_mem::SecureMemory;
use crate::smc::SmcInterface;
use crate::stats::TzStats;
use crate::trusted_io::{IngressPath, IoChannel};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration for building a [`Platform`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Cost model for world switches, copies and paging.
    pub cost: CostModel,
    /// Secure-world DRAM budget in bytes.
    pub secure_mem_bytes: u64,
    /// How ingress data reaches the data plane.
    pub ingress_path: IngressPath,
    /// Number of CPU cores the engine may use.
    pub cores: usize,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig::hikey()
    }
}

impl PlatformConfig {
    /// The paper's HiKey board: 8 cores, 256 MB secure carve-out, trusted IO.
    pub fn hikey() -> Self {
        PlatformConfig {
            cost: CostModel::hikey(),
            secure_mem_bytes: 256 * 1024 * 1024,
            ingress_path: IngressPath::TrustedIo,
            cores: 8,
        }
    }

    /// Set the core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores.max(1);
        self
    }

    /// Set the ingress path.
    pub fn with_ingress(mut self, path: IngressPath) -> Self {
        self.ingress_path = path;
        self
    }

    /// Use a zero-cost model (for the `Insecure` baseline variant).
    pub fn with_free_costs(mut self) -> Self {
        self.cost = CostModel::free();
        self
    }

    /// Set the secure memory budget.
    pub fn with_secure_mem(mut self, bytes: u64) -> Self {
        self.secure_mem_bytes = bytes;
        self
    }
}

/// One simulated edge board.
pub struct Platform {
    config: PlatformConfig,
    stats: Arc<TzStats>,
    secure_mem: Arc<SecureMemory>,
    smc: Arc<SmcInterface>,
}

impl Platform {
    /// Build a platform from a configuration.
    pub fn new(config: PlatformConfig) -> Arc<Self> {
        let stats = Arc::new(TzStats::new());
        let secure_mem = Arc::new(SecureMemory::new(config.secure_mem_bytes));
        let smc = Arc::new(SmcInterface::new(config.cost, stats.clone()));
        Arc::new(Platform { config, stats, secure_mem, smc })
    }

    /// Build the default HiKey-like platform.
    pub fn hikey() -> Arc<Self> {
        Platform::new(PlatformConfig::hikey())
    }

    /// The configuration this platform was built from.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// The platform's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.config.cost
    }

    /// The platform's shared counters.
    pub fn stats(&self) -> &Arc<TzStats> {
        &self.stats
    }

    /// The secure-memory budget tracker.
    pub fn secure_mem(&self) -> &Arc<SecureMemory> {
        &self.secure_mem
    }

    /// The SMC interface used to reach the data plane TA.
    pub fn smc(&self) -> &Arc<SmcInterface> {
        &self.smc
    }

    /// Number of cores the engine should use on this platform.
    pub fn cores(&self) -> usize {
        self.config.cores
    }

    /// Build an IO channel following the configured ingress path.
    pub fn io_channel(&self) -> IoChannel {
        IoChannel::new(self.config.ingress_path, self.config.cost, self.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_platform_matches_hikey() {
        let p = Platform::hikey();
        assert_eq!(p.cores(), 8);
        assert_eq!(p.secure_mem().budget(), 256 * 1024 * 1024);
        assert_eq!(p.io_channel().path(), IngressPath::TrustedIo);
        assert_eq!(p.cost().cpu_hz, 1_200_000_000);
    }

    #[test]
    fn config_builders_apply() {
        let cfg = PlatformConfig::hikey()
            .with_cores(2)
            .with_ingress(IngressPath::ViaOs)
            .with_secure_mem(64 * 1024 * 1024)
            .with_free_costs();
        let p = Platform::new(cfg);
        assert_eq!(p.cores(), 2);
        assert_eq!(p.secure_mem().budget(), 64 * 1024 * 1024);
        assert_eq!(p.io_channel().path(), IngressPath::ViaOs);
        assert_eq!(p.cost().switch_nanos(), 0);
    }

    #[test]
    fn cores_is_at_least_one() {
        let cfg = PlatformConfig::hikey().with_cores(0);
        assert_eq!(cfg.cores, 1);
    }

    #[test]
    fn platform_components_share_stats() {
        let p = Platform::hikey();
        let session = p.smc().open_session();
        drop(session);
        assert_eq!(p.stats().snapshot().world_switches, 1);
        p.io_channel().deliver(100);
        assert_eq!(p.stats().snapshot().trusted_io_bytes, 100);
    }
}
