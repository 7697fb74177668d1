//! Unified observability for the StreamBox-TZ pipeline.
//!
//! Four pieces, layered bottom-up:
//!
//! - [`span`]: lock-free sharded ring buffers recording typed [`Span`]s
//!   (ingest batch, decrypt, window fire, egress seal, SMC) with
//!   nanosecond timestamps and tenant tags. Workers never block: a full
//!   ring drops the span and counts it.
//! - [`hist`]: fixed-size log-bucketed (HDR-style) latency histograms,
//!   allocation-free on the record path and mergeable across workers,
//!   reporting p50/p95/p99/max.
//! - [`registry`]: the [`MetricsRegistry`] aggregates the workspace's
//!   siloed counters (TZ boundary events, gateway boundary, data-plane
//!   stats, DRR lane accounting, executor steal/park counts) behind one
//!   [`CounterSource`] trait into a versioned, serde-exportable
//!   [`TelemetrySnapshot`].
//! - [`flight`]: a bounded per-tenant ring of recent spans dumped to JSON
//!   on task panic, quota exhaustion, or backpressure stall.
//!
//! Telemetry is **off by default**: the disabled record path is a single
//! relaxed atomic load and branch, so production benches pay nothing unless
//! they opt in via [`MetricsRegistry::set_enabled`]. The benchmark's
//! `telemetry.trace_overhead_frac` measures what opting in costs.
//!
//! The crate deliberately depends only on the vendored `serde` and
//! `parking_lot` so the lowest layer (`sbt_tz`) can use it without a
//! dependency cycle; tenants are carried as raw `u32` ids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod hist;
pub mod registry;
pub mod span;

pub use flight::{FlightDump, FlightReason, FlightRecorder};
pub use hist::{HistogramSnapshot, LatencyHistogram, LatencyKind};
pub use registry::{
    CounterEntry, CounterSource, MetricsRegistry, TelemetrySnapshot, TenantLatencyRow,
    SNAPSHOT_VERSION,
};
pub use span::{
    decrypt_span_parts, decrypt_span_payload, seal_span_parts, seal_span_payload, SealStage, Span,
    SpanKind, SpanRing, Tracer,
};
