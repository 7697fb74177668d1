//! Tenant declarations and admission errors.

use sbt_dataplane::DataPlaneError;

/// Upper bound on a record-count checkpoint interval: intervals are compared
/// against event-counter *differences*, which must never be able to wrap the
/// signed arithmetic the DRR accounting shares.
pub const MAX_CHECKPOINT_INTERVAL_RECORDS: u64 = i64::MAX as u64;

/// What a tenant asks for at admission time.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Human-readable tenant name (must be unique on the server).
    pub name: String,
    /// TEE memory quota in bytes, enforced through the uArray allocator.
    pub quota_bytes: u64,
    /// Deficit round-robin weight (≥ 1): each refill round credits the
    /// tenant's lane `weight × drr_quantum` cycle-cost units, so a tenant
    /// with weight 2 gets twice the share of serviced cycle cost of a
    /// weight-1 tenant, however its traffic is cut into batches.
    pub weight: u32,
    /// Seal a checkpoint after this many newly ingested events (taken at
    /// the lane's next quiescent point in the serve loop). `None` disables
    /// record-driven checkpoints.
    pub checkpoint_every_records: Option<u64>,
}

impl TenantConfig {
    /// A tenant with the given name and quota, weight 1, no checkpoint
    /// policy.
    pub fn new(name: &str, quota_bytes: u64) -> Self {
        TenantConfig {
            name: name.to_string(),
            quota_bytes,
            weight: 1,
            checkpoint_every_records: None,
        }
    }

    /// Set the scheduling weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Request a checkpoint every `records` newly ingested events. The
    /// value is validated at admission, not here: zero or out-of-range
    /// intervals produce [`AdmissionError::InvalidCheckpointPolicy`], never
    /// a later panic.
    pub fn with_checkpoint_every_records(mut self, records: u64) -> Self {
        self.checkpoint_every_records = Some(records);
        self
    }

    /// Validate the checkpoint policy, returning the reason it is invalid.
    pub(crate) fn checkpoint_policy_error(&self) -> Option<&'static str> {
        match self.checkpoint_every_records {
            Some(0) => Some("checkpoint record interval must be nonzero"),
            Some(n) if n > MAX_CHECKPOINT_INTERVAL_RECORDS => {
                Some("checkpoint record interval overflows counter arithmetic")
            }
            _ => None,
        }
    }
}

/// Why the server refused to admit a tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The server already hosts its maximum number of tenants.
    ServerFull {
        /// The configured tenant cap.
        max_tenants: usize,
    },
    /// Admitting the tenant would overcommit the secure-memory carve-out.
    QuotaOvercommit {
        /// The quota the tenant requested.
        requested: u64,
        /// Unreserved secure-memory bytes remaining.
        available: u64,
    },
    /// A tenant with this name is already admitted.
    DuplicateName(String),
    /// The tenant asked for a zero-byte quota, which could never ingest.
    EmptyQuota,
    /// Pool-aware admission refused the tenant: with this tenant admitted,
    /// the worker pool could no longer meet every tenant's declared
    /// output-delay target (estimated in [`CycleCost`] units per
    /// millisecond against the pool's modelled capacity).
    ///
    /// [`CycleCost`]: sbt_engine::CycleCost
    DelayUnmeetable {
        /// Aggregate cycle demand per millisecond with the tenant admitted.
        required: u64,
        /// The pool's modelled capacity in cycles per millisecond.
        capacity: u64,
    },
    /// The tenant's checkpoint policy is malformed (zero or out-of-range
    /// interval): rejected here, at admission, rather than panicking in the
    /// serve loop when the interval is first consulted.
    InvalidCheckpointPolicy {
        /// Why the policy was refused.
        reason: &'static str,
    },
    /// A restore was requested for a tenant with no snapshot in the vault.
    NoCheckpoint,
    /// The data plane refused the registration.
    Rejected(DataPlaneError),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::ServerFull { max_tenants } => {
                write!(f, "server full ({max_tenants} tenants)")
            }
            AdmissionError::QuotaOvercommit { requested, available } => {
                write!(f, "quota overcommit: requested {requested} B, {available} B available")
            }
            AdmissionError::DuplicateName(name) => write!(f, "tenant name {name:?} already taken"),
            AdmissionError::EmptyQuota => write!(f, "tenant quota must be nonzero"),
            AdmissionError::DelayUnmeetable { required, capacity } => write!(
                f,
                "delay target unmeetable: {required} cycle units/ms required, \
                 pool sustains {capacity}"
            ),
            AdmissionError::InvalidCheckpointPolicy { reason } => {
                write!(f, "invalid checkpoint policy: {reason}")
            }
            AdmissionError::NoCheckpoint => {
                write!(f, "no checkpoint in the vault for this tenant")
            }
            AdmissionError::Rejected(e) => write!(f, "data plane rejected tenant: {e}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Why a lifecycle operation (evict / drain / rekey / resize) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LifecycleError {
    /// The tenant is not admitted (never was, or already departed).
    UnknownTenant,
    /// A quota resize asked for zero bytes, which could never ingest.
    EmptyQuota,
    /// Resizing the tenant's quota would overcommit the secure-memory
    /// carve-out against the other tenants' reservations.
    QuotaOvercommit {
        /// The quota the resize requested.
        requested: u64,
        /// Bytes available to this tenant (carve-out minus the others'
        /// reservations).
        available: u64,
    },
    /// The data plane refused the operation.
    Rejected(DataPlaneError),
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleError::UnknownTenant => write!(f, "tenant not admitted"),
            LifecycleError::EmptyQuota => write!(f, "tenant quota must be nonzero"),
            LifecycleError::QuotaOvercommit { requested, available } => {
                write!(
                    f,
                    "quota resize overcommit: requested {requested} B, {available} B available"
                )
            }
            LifecycleError::Rejected(e) => write!(f, "data plane rejected the operation: {e}"),
        }
    }
}

impl std::error::Error for LifecycleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_clamps_weight() {
        let t = TenantConfig::new("a", 1024).with_weight(0);
        assert_eq!(t.weight, 1);
        assert_eq!(t.quota_bytes, 1024);
        assert_eq!(TenantConfig::new("b", 1).weight, 1);
    }

    #[test]
    fn checkpoint_policy_validation_rejects_zero_and_overflow() {
        let ok = TenantConfig::new("a", 1024).with_checkpoint_every_records(10_000);
        assert!(ok.checkpoint_policy_error().is_none());
        assert!(TenantConfig::new("a", 1024).checkpoint_policy_error().is_none());
        // Zero intervals could never fire sanely; they are refused.
        assert!(TenantConfig::new("a", 1024)
            .with_checkpoint_every_records(0)
            .checkpoint_policy_error()
            .unwrap()
            .contains("nonzero"));
        // Out-of-range intervals would overflow downstream arithmetic.
        assert!(TenantConfig::new("a", 1024)
            .with_checkpoint_every_records(u64::MAX)
            .checkpoint_policy_error()
            .unwrap()
            .contains("overflow"));
        // The boundary value itself is valid.
        assert!(TenantConfig::new("a", 1024)
            .with_checkpoint_every_records(MAX_CHECKPOINT_INTERVAL_RECORDS)
            .checkpoint_policy_error()
            .is_none());
    }

    #[test]
    fn errors_display() {
        assert!(AdmissionError::ServerFull { max_tenants: 4 }.to_string().contains('4'));
        assert!(AdmissionError::QuotaOvercommit { requested: 10, available: 5 }
            .to_string()
            .contains("10"));
        assert!(AdmissionError::DuplicateName("x".into()).to_string().contains('x'));
        assert!(AdmissionError::InvalidCheckpointPolicy { reason: "zero" }
            .to_string()
            .contains("zero"));
        assert!(AdmissionError::NoCheckpoint.to_string().contains("vault"));
        assert!(LifecycleError::UnknownTenant.to_string().contains("not admitted"));
        assert!(LifecycleError::QuotaOvercommit { requested: 7, available: 3 }
            .to_string()
            .contains('7'));
        assert!(LifecycleError::Rejected(DataPlaneError::UnknownTenant)
            .to_string()
            .contains("rejected"));
        assert!(LifecycleError::EmptyQuota.to_string().contains("nonzero"));
    }
}
