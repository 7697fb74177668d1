//! Platform-wide counters for the simulated TrustZone substrate.
//!
//! The counters separate the cost categories that Figure 9 breaks down:
//! world switches, boundary copies, TEE memory management (paging), and the
//! number of SMC invocations. All counters are lock-free atomics so worker
//! threads can update them from the hot path without contention.

use std::sync::atomic::Ordering;

sbt_telemetry::counters! {
    /// Monotonic counters accumulated over the lifetime of a
    /// [`crate::Platform`] (registry section `tz`).
    pub struct TzStats in "tz" {
        /// Number of world switches (each counts one entry + exit pair).
        world_switches,
        /// Simulated nanoseconds spent in world switches.
        switch_nanos,
        /// Bytes copied across the TEE boundary (via-OS ingress and explicit
        /// parameter marshalling).
        boundary_copy_bytes,
        /// Simulated nanoseconds spent copying across the boundary.
        boundary_copy_nanos,
        /// 4 KiB pages committed by the TEE pager on behalf of uArrays.
        tee_pages_committed,
        /// Simulated nanoseconds spent in TEE paging / memory management.
        tee_paging_nanos,
        /// Number of SMC invocations (one per trusted-primitive call).
        smc_invocations,
        /// Bytes ingested through trusted IO (no boundary copy).
        trusted_io_bytes,
        /// Bytes ingested via the untrusted OS (boundary copy paid).
        via_os_bytes,
    }
    /// A point-in-time copy of [`TzStats`].
    pub struct StatSnapshot;
}

impl TzStats {
    /// Record one world switch costing `nanos` simulated nanoseconds.
    pub fn record_switch(&self, nanos: u64) {
        self.world_switches.fetch_add(1, Ordering::Relaxed);
        self.switch_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record a boundary copy of `bytes` costing `nanos`.
    pub fn record_boundary_copy(&self, bytes: u64, nanos: u64) {
        self.boundary_copy_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.boundary_copy_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record `pages` TEE pages committed costing `nanos`.
    pub fn record_tee_paging(&self, pages: u64, nanos: u64) {
        self.tee_pages_committed.fetch_add(pages, Ordering::Relaxed);
        self.tee_paging_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record one SMC invocation.
    pub fn record_invocation(&self) {
        self.smc_invocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `bytes` ingested through trusted IO.
    pub fn record_trusted_io(&self, bytes: u64) {
        self.trusted_io_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record `bytes` ingested via the untrusted OS.
    pub fn record_via_os(&self, bytes: u64) {
        self.via_os_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

impl StatSnapshot {
    /// Total simulated overhead in nanoseconds (switches + copies + paging).
    pub fn total_overhead_nanos(&self) -> u64 {
        self.switch_nanos + self.boundary_copy_nanos + self.tee_paging_nanos
    }

    /// The boundary *events* of this snapshot (or snapshot delta): how many
    /// times execution crossed the TEE boundary and how much data moved,
    /// independent of the modelled time cost. Benches report these so a
    /// regression in crossings is visible even when the cost model changes.
    pub fn boundary_events(&self) -> BoundaryEvents {
        BoundaryEvents {
            switches: self.world_switches,
            copied_bytes: self.boundary_copy_bytes,
            pages_committed: self.tee_pages_committed,
            invocations: self.smc_invocations,
        }
    }
}

/// Boundary-crossing event counts, independent of modelled time.
///
/// This is the unit every bench reports per batch: world switches made,
/// bytes copied across the boundary, secure pages committed, and SMC
/// invocations. Dividing by the batch's event count yields the
/// switches-per-event and copied-bytes-per-event figures the boundary gate
/// tracks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BoundaryEvents {
    /// World switches (entry + exit pairs).
    pub switches: u64,
    /// Bytes copied across the TEE boundary.
    pub copied_bytes: u64,
    /// 4 KiB secure pages committed.
    pub pages_committed: u64,
    /// SMC invocations.
    pub invocations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_events_view_extracts_counts() {
        let s = TzStats::new();
        s.record_switch(10);
        s.record_switch(10);
        s.record_boundary_copy(4096, 7);
        s.record_tee_paging(3, 5);
        s.record_invocation();
        let ev = s.snapshot().boundary_events();
        assert_eq!(
            ev,
            BoundaryEvents { switches: 2, copied_bytes: 4096, pages_committed: 3, invocations: 1 }
        );
    }

    #[test]
    fn counters_accumulate() {
        let s = TzStats::new();
        s.record_switch(100);
        s.record_switch(100);
        s.record_boundary_copy(4096, 10);
        s.record_tee_paging(2, 5);
        s.record_invocation();
        s.record_trusted_io(1000);
        s.record_via_os(2000);
        let snap = s.snapshot();
        assert_eq!(snap.world_switches, 2);
        assert_eq!(snap.switch_nanos, 200);
        assert_eq!(snap.boundary_copy_bytes, 4096);
        assert_eq!(snap.tee_pages_committed, 2);
        assert_eq!(snap.smc_invocations, 1);
        assert_eq!(snap.trusted_io_bytes, 1000);
        assert_eq!(snap.via_os_bytes, 2000);
        assert_eq!(snap.total_overhead_nanos(), 200 + 10 + 5);
    }

    #[test]
    fn delta_since_subtracts() {
        let s = TzStats::new();
        s.record_switch(50);
        let before = s.snapshot();
        s.record_switch(70);
        s.record_invocation();
        let after = s.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.world_switches, 1);
        assert_eq!(d.switch_nanos, 70);
        assert_eq!(d.smc_invocations, 1);
    }

    #[test]
    fn counter_source_mirrors_the_snapshot() {
        use sbt_telemetry::CounterSource;
        let s = TzStats::new();
        s.record_switch(100);
        s.record_boundary_copy(4096, 10);
        s.record_invocation();
        assert_eq!(s.section(), "tz");
        let mut pairs = Vec::new();
        s.collect(&mut |name, value| pairs.push((name.to_string(), value)));
        let get = |n: &str| pairs.iter().find(|(name, _)| name == n).unwrap().1;
        assert_eq!(get("world_switches"), 1);
        assert_eq!(get("switch_nanos"), 100);
        assert_eq!(get("boundary_copy_bytes"), 4096);
        assert_eq!(get("smc_invocations"), 1);
        assert_eq!(pairs.len(), 9);
    }

    #[test]
    fn smc_spans_reach_an_installed_tracer() {
        use crate::smc::{EntryFunction, SmcInterface};
        use sbt_telemetry::{SpanKind, Tracer};
        use std::sync::Arc;
        let stats = Arc::new(TzStats::new());
        let iface = Arc::new(SmcInterface::new(crate::CostModel::hikey(), stats));
        let tracer = Arc::new(Tracer::new(1, 64));
        tracer.set_enabled(true);
        iface.install_tracer(tracer.clone());
        let session = iface.open_session();
        session.invoke(EntryFunction::Initialize, || {}).unwrap();
        session.invoke(EntryFunction::InvokePrimitive, || {}).unwrap();
        let mut spans = Vec::new();
        tracer.drain(|s| spans.push(s));
        assert_eq!(spans.len(), 2); // init + invoke
        assert!(spans.iter().all(|s| s.kind == SpanKind::Smc && s.tenant == 0));
    }

    #[test]
    fn counters_are_thread_safe() {
        let s = std::sync::Arc::new(TzStats::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_switch(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().world_switches, 4000);
        assert_eq!(s.snapshot().switch_nanos, 4000);
    }
}
