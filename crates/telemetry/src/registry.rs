//! The metrics registry: one coherent snapshot of every counter set.
//!
//! Counter sets declared with [`counters!`](crate::counters!) (TZ stats,
//! data-plane stats, per-tenant gateways, DRR lanes, the executor) are
//! [`CounterSource`]s, directly or through their owner, and register with the
//! [`MetricsRegistry`] as weak references: when a gateway closes or a
//! serve loop returns, its source simply vanishes from the next snapshot
//! — no deregistration calls on teardown paths. The registry also owns
//! the [`Tracer`], the per-tenant latency histograms, and the
//! [`FlightRecorder`], so one handle threads all of telemetry through
//! the stack.

use crate::flight::{FlightDump, FlightReason, FlightRecorder};
use crate::hist::{LatencyHistogram, LatencyKind};
use crate::span::Tracer;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Version stamp embedded in every exported [`TelemetrySnapshot`].
pub const SNAPSHOT_VERSION: u32 = 1;

/// A subsystem that can contribute counters to a snapshot.
pub trait CounterSource: Send + Sync {
    /// Namespace for this source's counters, e.g. `"tz"`, `"plane"`,
    /// `"gateway.t3"`. Registering a second source with the same section
    /// replaces the first.
    fn section(&self) -> String;
    /// Emit `(name, value)` pairs; the registry prefixes names with
    /// `section() + "."`. Values are `i64` so signed meters (DRR lane
    /// deficits) fit alongside monotonic counts.
    fn collect(&self, emit: &mut dyn FnMut(&str, i64));
}

/// One named counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CounterEntry {
    /// Fully qualified `section.name`.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// Per-tenant latency quantiles for one [`LatencyKind`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TenantLatencyRow {
    /// Tenant id.
    pub tenant: u32,
    /// Latency kind name (`ingest_to_store` / `window_emit`).
    pub kind: String,
    /// Samples recorded.
    pub count: u64,
    /// Median, nanoseconds.
    pub p50_nanos: u64,
    /// 95th percentile, nanoseconds.
    pub p95_nanos: u64,
    /// 99th percentile, nanoseconds.
    pub p99_nanos: u64,
    /// Exact maximum, nanoseconds.
    pub max_nanos: u64,
}

/// The versioned, serde-exportable aggregate of all registered sources.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TelemetrySnapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// All counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// Per-tenant latency quantiles (tenants with at least one sample).
    pub latencies: Vec<TenantLatencyRow>,
    /// Spans dropped because tracer rings were full.
    pub spans_dropped: u64,
}

impl TelemetrySnapshot {
    /// Look up a counter by fully qualified name.
    pub fn counter(&self, name: &str) -> Option<i64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// A counter as unsigned nanoseconds/counts, defaulting to 0 when
    /// absent or negative.
    pub fn counter_u64(&self, name: &str) -> u64 {
        self.counter(name).map_or(0, |v| v.max(0) as u64)
    }

    /// Counter-wise difference `self - earlier`, matched by name (a
    /// counter absent from `earlier` passes through unchanged). Latency
    /// rows and drop counts are taken from `self`: histograms are
    /// cumulative, not differenced.
    pub fn delta_since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let counters = self
            .counters
            .iter()
            .map(|c| CounterEntry {
                name: c.name.clone(),
                value: c.value - earlier.counter(&c.name).unwrap_or(0),
            })
            .collect();
        TelemetrySnapshot {
            version: self.version,
            counters,
            latencies: self.latencies.clone(),
            spans_dropped: self.spans_dropped.saturating_sub(earlier.spans_dropped),
        }
    }
}

/// Per-tenant latency histograms, one per [`LatencyKind`].
struct TenantLatencies {
    ingest_to_store: LatencyHistogram,
    window_emit: LatencyHistogram,
}

impl TenantLatencies {
    fn new() -> TenantLatencies {
        TenantLatencies {
            ingest_to_store: LatencyHistogram::new(),
            window_emit: LatencyHistogram::new(),
        }
    }

    fn of(&self, kind: LatencyKind) -> &LatencyHistogram {
        match kind {
            LatencyKind::IngestToStore => &self.ingest_to_store,
            LatencyKind::WindowEmit => &self.window_emit,
        }
    }
}

/// The registry. Created once per data plane; cloned handles (`Arc`)
/// thread through gateways, engines, the server, and benches.
pub struct MetricsRegistry {
    tracer: Arc<Tracer>,
    flight: FlightRecorder,
    sources: RwLock<Vec<Weak<dyn CounterSource>>>,
    tenants: RwLock<HashMap<u32, Arc<TenantLatencies>>>,
    /// Tracer-origin stamp (nanos) of each tenant's last sealed checkpoint.
    checkpoints: RwLock<HashMap<u32, u64>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A registry with default tracer sizing (8 shards × 4096 spans) and
    /// flight rings of 256 spans per tenant. Telemetry starts disabled.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::with_sizes(8, 4096, 256)
    }

    /// A registry with explicit tracer shard count/ring capacity and
    /// flight-ring capacity.
    pub fn with_sizes(
        shards: usize,
        ring_capacity: usize,
        flight_capacity: usize,
    ) -> MetricsRegistry {
        MetricsRegistry {
            tracer: Arc::new(Tracer::new(shards, ring_capacity)),
            flight: FlightRecorder::new(flight_capacity),
            sources: RwLock::new(Vec::new()),
            tenants: RwLock::new(HashMap::new()),
            checkpoints: RwLock::new(HashMap::new()),
        }
    }

    /// Enable or disable all recording (spans *and* latency histograms).
    /// Disabled (the default), every hot-path hook is one relaxed atomic
    /// load and branch.
    pub fn set_enabled(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// The span tracer (shared so low layers like the SMC interface can
    /// hold it directly).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Register a counter source. Held weakly: the source drops out of
    /// future snapshots when its last strong reference goes away. A source
    /// with the same section replaces the previous one.
    pub fn register_source<S: CounterSource + 'static>(&self, source: &Arc<S>) {
        let section = source.section();
        let mut sources = self.sources.write();
        sources.retain(|w| w.upgrade().is_some_and(|s| s.section() != section));
        sources.push(Arc::downgrade(source) as Weak<dyn CounterSource>);
    }

    /// Pre-create the latency histograms for `tenant` so the first hot
    /// record takes no write lock.
    pub fn register_tenant(&self, tenant: u32) {
        self.tenants.write().entry(tenant).or_insert_with(|| Arc::new(TenantLatencies::new()));
    }

    /// Tear down all per-tenant telemetry rows: latency histograms, the
    /// flight-recorder ring, and the checkpoint gauge. Departed tenants
    /// must not linger in future snapshots.
    pub fn deregister_tenant(&self, tenant: u32) {
        self.tenants.write().remove(&tenant);
        self.checkpoints.write().remove(&tenant);
        self.flight.purge_tenant(tenant);
    }

    /// Note that `tenant` just sealed a checkpoint. Recorded even when
    /// telemetry is disabled: the gauge is recovery-critical and the
    /// record path is cold (one checkpoint per interval, not per event).
    pub fn note_checkpoint(&self, tenant: u32) {
        self.checkpoints.write().insert(tenant, self.tracer.now_nanos());
    }

    /// Nanoseconds since `tenant`'s last recorded checkpoint (`None` if
    /// it has never checkpointed or has been deregistered).
    pub fn last_checkpoint_age_nanos(&self, tenant: u32) -> Option<u64> {
        let stamp = *self.checkpoints.read().get(&tenant)?;
        Some(self.tracer.now_nanos().saturating_sub(stamp))
    }

    /// Record one latency sample. No-op when disabled; allocation-free
    /// for registered tenants (unknown tenants are registered lazily).
    pub fn record_latency(&self, tenant: u32, kind: LatencyKind, nanos: u64) {
        if !self.is_enabled() {
            return;
        }
        if let Some(lat) = self.tenants.read().get(&tenant) {
            lat.of(kind).record(nanos);
            return;
        }
        self.register_tenant(tenant);
        if let Some(lat) = self.tenants.read().get(&tenant) {
            lat.of(kind).record(nanos);
        }
    }

    /// Latency quantile rows for every tenant kind with ≥1 sample,
    /// sorted by (tenant, kind).
    pub fn latency_rows(&self) -> Vec<TenantLatencyRow> {
        let mut rows = Vec::new();
        for (&tenant, lat) in self.tenants.read().iter() {
            for kind in [LatencyKind::IngestToStore, LatencyKind::WindowEmit] {
                let h = lat.of(kind);
                if h.count() == 0 {
                    continue;
                }
                let s = h.snapshot();
                rows.push(TenantLatencyRow {
                    tenant,
                    kind: kind.name().to_string(),
                    count: s.count,
                    p50_nanos: s.p50(),
                    p95_nanos: s.p95(),
                    p99_nanos: s.p99(),
                    max_nanos: s.max,
                });
            }
        }
        rows.sort_by(|a, b| (a.tenant, &a.kind).cmp(&(b.tenant, &b.kind)));
        rows
    }

    /// Drain tracer rings into the flight recorder's per-tenant history.
    /// Collectors call this periodically; triggers call it implicitly.
    pub fn pump(&self) {
        let flight = &self.flight;
        self.tracer.drain(|span| flight.absorb(span));
    }

    /// Dump the recent span history of `tenant` because of `reason`
    /// (task panic, quota exhaustion, backpressure stall). Pumps the
    /// tracer first so the dump includes the freshest spans. The dump is
    /// also retained for [`MetricsRegistry::take_flight_dumps`].
    pub fn flight_trigger(&self, tenant: u32, reason: FlightReason) -> FlightDump {
        self.pump();
        self.flight.trigger(tenant, reason)
    }

    /// Take (and clear) the accumulated flight dumps.
    pub fn take_flight_dumps(&self) -> Vec<FlightDump> {
        self.flight.take_dumps()
    }

    /// One coherent snapshot: all live sources' counters (sorted by
    /// name), per-tenant latency quantiles, and the span drop count.
    /// Dead sources are pruned as a side effect.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut counters = Vec::new();
        {
            let mut sources = self.sources.write();
            sources.retain(|w| {
                let Some(src) = w.upgrade() else { return false };
                let section = src.section();
                src.collect(&mut |name, value| {
                    counters.push(CounterEntry { name: format!("{section}.{name}"), value });
                });
                true
            });
        }
        {
            let now = self.tracer.now_nanos();
            for (&tenant, &stamp) in self.checkpoints.read().iter() {
                counters.push(CounterEntry {
                    name: format!("checkpoint.t{tenant}.last_checkpoint_age_nanos"),
                    value: now.saturating_sub(stamp) as i64,
                });
            }
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        TelemetrySnapshot {
            version: SNAPSHOT_VERSION,
            counters,
            latencies: self.latency_rows(),
            spans_dropped: self.tracer.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct FakeSource {
        section: &'static str,
        value: AtomicU64,
    }

    impl CounterSource for FakeSource {
        fn section(&self) -> String {
            self.section.to_string()
        }
        fn collect(&self, emit: &mut dyn FnMut(&str, i64)) {
            emit("value", self.value.load(Ordering::Relaxed) as i64);
            emit("constant", 7);
        }
    }

    #[test]
    fn snapshot_aggregates_registered_sources() {
        let reg = MetricsRegistry::new();
        let a = Arc::new(FakeSource { section: "a", value: AtomicU64::new(10) });
        let b = Arc::new(FakeSource { section: "b", value: AtomicU64::new(20) });
        reg.register_source(&a);
        reg.register_source(&b);
        let snap = reg.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_eq!(snap.counter("a.value"), Some(10));
        assert_eq!(snap.counter("b.value"), Some(20));
        assert_eq!(snap.counter("b.constant"), Some(7));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn dropped_sources_vanish_from_snapshots() {
        let reg = MetricsRegistry::new();
        let a = Arc::new(FakeSource { section: "a", value: AtomicU64::new(1) });
        reg.register_source(&a);
        assert_eq!(reg.snapshot().counter("a.value"), Some(1));
        drop(a);
        assert_eq!(reg.snapshot().counter("a.value"), None);
    }

    #[test]
    fn same_section_replaces() {
        let reg = MetricsRegistry::new();
        let a1 = Arc::new(FakeSource { section: "a", value: AtomicU64::new(1) });
        let a2 = Arc::new(FakeSource { section: "a", value: AtomicU64::new(2) });
        reg.register_source(&a1);
        reg.register_source(&a2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.value"), Some(2));
        assert_eq!(snap.counters.iter().filter(|c| c.name == "a.value").count(), 1);
    }

    #[test]
    fn delta_since_matches_by_name() {
        let reg = MetricsRegistry::new();
        let a = Arc::new(FakeSource { section: "a", value: AtomicU64::new(100) });
        reg.register_source(&a);
        let before = reg.snapshot();
        a.value.store(175, Ordering::Relaxed);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(delta.counter("a.value"), Some(75));
        assert_eq!(delta.counter("a.constant"), Some(0));
    }

    #[test]
    fn latency_rows_report_quantiles_per_tenant() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        for v in 1..=100u64 {
            reg.record_latency(1, LatencyKind::WindowEmit, v * 1000);
        }
        reg.record_latency(2, LatencyKind::IngestToStore, 5_000);
        let rows = reg.latency_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].tenant, rows[0].kind.as_str()), (1, "window_emit"));
        assert_eq!(rows[0].count, 100);
        assert_eq!(rows[0].max_nanos, 100_000);
        assert!(rows[0].p50_nanos >= 50_000 && rows[0].p50_nanos <= 52_000);
        assert_eq!((rows[1].tenant, rows[1].kind.as_str()), (2, "ingest_to_store"));
    }

    #[test]
    fn disabled_registry_records_no_latency() {
        let reg = MetricsRegistry::new();
        reg.record_latency(1, LatencyKind::WindowEmit, 1234);
        assert!(reg.latency_rows().is_empty());
    }

    #[test]
    fn checkpoint_gauge_appears_in_snapshots_and_deregister_clears_it() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.register_tenant(3);
        reg.record_latency(3, LatencyKind::WindowEmit, 100);
        reg.note_checkpoint(3);
        let snap = reg.snapshot();
        let age = snap.counter("checkpoint.t3.last_checkpoint_age_nanos");
        assert!(age.is_some_and(|v| v >= 0));
        assert!(reg.last_checkpoint_age_nanos(3).is_some());
        assert!(reg.last_checkpoint_age_nanos(4).is_none());

        reg.deregister_tenant(3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("checkpoint.t3.last_checkpoint_age_nanos"), None);
        assert!(snap.latencies.is_empty());
        assert!(reg.last_checkpoint_age_nanos(3).is_none());
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        let a = Arc::new(FakeSource { section: "tz", value: AtomicU64::new(3) });
        reg.register_source(&a);
        reg.record_latency(1, LatencyKind::WindowEmit, 500);
        let json = serde_json::to_string(&reg.snapshot()).unwrap();
        assert!(json.contains("\"version\":1"));
        assert!(json.contains("tz.value"));
        assert!(json.contains("window_emit"));
    }
}
