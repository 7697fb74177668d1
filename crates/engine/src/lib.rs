//! The StreamBox-TZ engine: untrusted control plane plus the declarative
//! programming surface (§2.2, §4.2 of the paper).
//!
//! Programmers assemble pipelines from high-level operators (Windowing,
//! GroupBy/Aggregate families, Distinct, TopK, Filter, temporal Join, …)
//! much like they would with a commodity stream engine. The engine compiles
//! each pipeline once into a [`WindowPlan`] over the data plane's trusted
//! primitives — the plan every window runs, and the one the verifier's
//! declaration is read from — and orchestrates its execution:
//!
//! * it ingests event batches and watermarks from sources, handing the bytes
//!   to the data plane through the platform's ingress path;
//! * it creates abundant task parallelism — per-batch primitives run on a
//!   pool of worker threads, all entering the one shared TEE concurrently —
//!   and attaches consumption hints so the TEE allocator can lay memory out
//!   compactly;
//! * it tracks watermarks and fires completed windows, inline or as an
//!   executor task whose [`JoinHandle`] the caller harvests; measures output
//!   delay, applies backpressure when the TEE reports memory pressure, and
//!   uploads results and audit segments.
//!
//! Crucially, the control plane never sees stream data: everything it holds
//! is an opaque reference. Every decision it makes (what to invoke, when, on
//! what) is reflected in the data plane's audit records and is therefore
//! checkable by the cloud verifier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod executor;
pub mod gateway;
pub mod metrics;
pub mod operators;
pub mod pipeline;
pub mod runner;
mod steps;

pub use config::{EngineConfig, EngineVariant};
pub use executor::{Executor, JoinHandle, TaskPanicked, TaskResult};
pub use gateway::{GatewayBoundary, TeeGateway};
pub use metrics::{CycleCost, EngineMetrics, WindowResult};
pub use operators::{Operator, PlanOp, WindowPlan};
pub use pipeline::Pipeline;
pub use runner::{Engine, IngestStatus, StreamSide};
