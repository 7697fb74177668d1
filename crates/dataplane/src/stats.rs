//! Data-plane execution statistics.
//!
//! The Figure 9 breakdown separates, for a GroupBy operator, the time spent
//! in actual computation inside the TEE, in world switches, and in TEE
//! memory management, as a function of the input batch size. The data plane
//! measures the first and third per invocation (the switch cost lives in the
//! `sbt-tz` counters) and accumulates them here.

use std::sync::atomic::Ordering;

/// Breakdown of one invocation's cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvocationBreakdown {
    /// Nanoseconds spent executing the primitive itself.
    pub compute_nanos: u64,
    /// Simulated nanoseconds spent committing pages for the outputs.
    pub memory_nanos: u64,
}

sbt_telemetry::counters! {
    /// Aggregate counters over a data plane's lifetime (registry section
    /// `plane`). The cost meters move as the TEE does the work, even for a
    /// command list that fails later; the outcome counts (events, bytes,
    /// egresses, audit records) move only when a list commits.
    pub struct DataPlaneStats in "plane" {
        /// Total primitive invocations.
        invocations,
        /// Total nanoseconds of primitive compute.
        compute_nanos,
        /// Total simulated nanoseconds of TEE memory management.
        memory_nanos,
        /// Total events ingested.
        events_ingested,
        /// Total bytes ingested (plaintext size).
        bytes_ingested,
        /// Total nanoseconds spent decrypting ingress data.
        decrypt_nanos,
        /// Total results egressed.
        egress_count,
        /// Total audit records generated.
        audit_records,
    }
    /// Point-in-time copy of [`DataPlaneStats`].
    pub struct DataPlaneSnapshot;
}

impl DataPlaneStats {
    /// Record one primitive invocation's breakdown.
    pub fn record_invocation(&self, breakdown: InvocationBreakdown) {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.compute_nanos.fetch_add(breakdown.compute_nanos, Ordering::Relaxed);
        self.memory_nanos.fetch_add(breakdown.memory_nanos, Ordering::Relaxed);
    }

    /// Record `nanos` spent decrypting one ingress batch.
    pub fn record_decrypt(&self, nanos: u64) {
        self.decrypt_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record what a committed command list published: `events` events and
    /// `bytes` bytes ingested, `egresses` results egressed and
    /// `audit_records` records appended.
    pub fn record_commit(&self, events: u64, bytes: u64, egresses: u64, audit_records: u64) {
        self.events_ingested.fetch_add(events, Ordering::Relaxed);
        self.bytes_ingested.fetch_add(bytes, Ordering::Relaxed);
        self.egress_count.fetch_add(egresses, Ordering::Relaxed);
        self.audit_records.fetch_add(audit_records, Ordering::Relaxed);
    }

    /// Record `n` audit records appended outside a command list
    /// (checkpoint and restore).
    pub fn record_audit(&self, n: u64) {
        self.audit_records.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = DataPlaneStats::new();
        s.record_invocation(InvocationBreakdown { compute_nanos: 100, memory_nanos: 10 });
        s.record_invocation(InvocationBreakdown { compute_nanos: 50, memory_nanos: 5 });
        s.record_decrypt(77);
        s.record_commit(1000, 12_000, 1, 3);
        let snap = s.snapshot();
        assert_eq!(snap.invocations, 2);
        assert_eq!(snap.compute_nanos, 150);
        assert_eq!(snap.memory_nanos, 15);
        assert_eq!(snap.events_ingested, 1000);
        assert_eq!(snap.bytes_ingested, 12_000);
        assert_eq!(snap.decrypt_nanos, 77);
        assert_eq!(snap.egress_count, 1);
        assert_eq!(snap.audit_records, 3);
    }

    #[test]
    fn default_snapshot_is_zero() {
        assert_eq!(DataPlaneStats::new().snapshot(), DataPlaneSnapshot::default());
    }
}
