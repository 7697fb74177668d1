//! Data plane error types.

use sbt_uarray::{PageError, UArrayError};

/// Errors surfaced across the data-plane interface.
///
/// Errors never carry protected data — only identifiers and sizes — so they
/// are safe to return to the untrusted control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataPlaneError {
    /// An opaque reference was not found in the live-reference table
    /// (fabricated, stale, or already retired).
    InvalidReference,
    /// The primitive was invoked with the wrong number or type of inputs.
    BadArguments(&'static str),
    /// The requested primitive is not implemented by this data plane build.
    UnsupportedPrimitive,
    /// The secure-memory budget is exhausted; the engine should apply
    /// backpressure and retry.
    OutOfSecureMemory,
    /// The ingress payload failed authentication or could not be parsed.
    BadIngress(&'static str),
    /// The named tenant has not been registered with the data plane.
    UnknownTenant,
    /// The operation would push the calling tenant past its TEE memory
    /// quota; the tenant's sources should be backpressured. Other tenants
    /// are unaffected.
    QuotaExceeded,
    /// A sealed checkpoint snapshot failed authentication or parsing
    /// (bit flip, torn/truncated write, tampered header, wrong platform).
    /// Restores fail closed; the message names the first check that failed.
    SnapshotRejected(&'static str),
    /// The snapshot was sealed under a key epoch older than the tenant's
    /// retirement horizon: the epoch has been retired for forward secrecy
    /// and the enclave refuses to act on state sealed under it.
    RetiredEpoch {
        /// The epoch the rejected snapshot was sealed under.
        epoch: u32,
        /// The tenant's current retirement horizon.
        horizon: u32,
    },
}

impl std::fmt::Display for DataPlaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataPlaneError::InvalidReference => write!(f, "invalid opaque reference"),
            DataPlaneError::BadArguments(msg) => write!(f, "bad arguments: {msg}"),
            DataPlaneError::UnsupportedPrimitive => write!(f, "unsupported primitive"),
            DataPlaneError::OutOfSecureMemory => write!(f, "secure memory exhausted"),
            DataPlaneError::BadIngress(msg) => write!(f, "bad ingress payload: {msg}"),
            DataPlaneError::UnknownTenant => write!(f, "unknown tenant"),
            DataPlaneError::QuotaExceeded => write!(f, "tenant memory quota exceeded"),
            DataPlaneError::SnapshotRejected(msg) => {
                write!(f, "checkpoint snapshot rejected: {msg}")
            }
            DataPlaneError::RetiredEpoch { epoch, horizon } => {
                write!(f, "key epoch {epoch} is retired (horizon {horizon})")
            }
        }
    }
}

impl std::error::Error for DataPlaneError {}

impl From<PageError> for DataPlaneError {
    fn from(_: PageError) -> Self {
        DataPlaneError::OutOfSecureMemory
    }
}

impl From<UArrayError> for DataPlaneError {
    fn from(e: UArrayError) -> Self {
        match e {
            UArrayError::OutOfSecureMemory(_) => DataPlaneError::OutOfSecureMemory,
            UArrayError::NotOpen(_) => DataPlaneError::BadArguments("uArray not open"),
            UArrayError::OverBudget { .. } => DataPlaneError::QuotaExceeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(DataPlaneError::InvalidReference.to_string().contains("opaque"));
        assert!(DataPlaneError::BadArguments("x").to_string().contains("x"));
        assert!(DataPlaneError::OutOfSecureMemory.to_string().contains("memory"));
    }

    #[test]
    fn conversions_map_to_oom() {
        let sm_err = sbt_tz::SecureMemoryError { requested: 1, in_use: 0, budget: 0 };
        let e: DataPlaneError = PageError(sm_err).into();
        assert_eq!(e, DataPlaneError::OutOfSecureMemory);
    }
}
