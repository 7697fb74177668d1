//! StreamBox-TZ in Rust: secure stream analytics at the edge with a
//! (simulated) ARM TrustZone TEE.
//!
//! This crate is the public façade of the workspace: it re-exports the
//! pieces an application developer uses to declare and run pipelines, the
//! cloud-side verification API, and — behind module paths — the substrates
//! (simulated TrustZone platform, uArray memory manager, trusted primitives,
//! crypto, workloads, baselines) for users who want to build on them
//! directly.
//!
//! # Quick start
//!
//! ```
//! use streambox_tz::prelude::*;
//!
//! // Declare a pipeline: 1-second windows, per-key sums, 500 ms target.
//! let pipeline = Pipeline::new("quickstart")
//!     .then(Operator::SumByKey)
//!     .target_delay_ms(500)
//!     .batch_events(5_000);
//!
//! // Run it on a simulated 4-core TrustZone edge platform.
//! let engine = Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, 4), pipeline);
//!
//! // Stream one window of synthetic telemetry through an encrypted link.
//! let chunks = synthetic_stream(1, 20_000, 64, 7);
//! let mut generator = Generator::new(
//!     GeneratorConfig { batch_events: 5_000 },
//!     Channel::encrypted_demo(),
//!     chunks,
//! );
//! while let Some(offer) = generator.next_offer() {
//!     match offer {
//!         Offer::Batch(batch) => { engine.ingest_group(&[batch], StreamSide::Left).unwrap(); }
//!         Offer::Watermark(wm) => engine.advance_watermark_on(wm, StreamSide::Left).unwrap(),
//!     }
//! }
//! assert_eq!(engine.results().len(), 1);
//!
//! // The cloud verifier replays the audit log and attests correctness.
//! let records: Vec<_> = engine
//!     .drain_audit_segments()
//!     .iter()
//!     .flat_map(|s| decompress_records(&s.compressed).unwrap())
//!     .collect();
//! let report = Verifier::new(engine.pipeline().spec()).replay(&records);
//! assert!(report.is_correct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sbt_attest as attest;
pub use sbt_baselines as baselines;
pub use sbt_crypto as crypto;
pub use sbt_dataplane as dataplane;
pub use sbt_engine as engine;
pub use sbt_primitives as primitives;
pub use sbt_server as server;
pub use sbt_telemetry as telemetry;
pub use sbt_types as types;
pub use sbt_tz as tz;
pub use sbt_uarray as uarray;
pub use sbt_workloads as workloads;

/// Everything needed to declare, run and verify a pipeline — or to serve
/// many of them multi-tenant over one shared TEE.
pub mod prelude {
    pub use sbt_attest::{
        decompress_records, verify_tenant_trail, verify_tenant_trail_parallel, DepartureReason,
        PipelineSpec, VerificationReport, Verifier,
    };
    pub use sbt_crypto::{KeySet, MasterSecret, TenantKeychain, VerifierKeySet};
    pub use sbt_dataplane::EgressMessage;
    pub use sbt_engine::{
        CycleCost, Engine, EngineConfig, EngineVariant, Executor, IngestStatus, JoinHandle,
        Operator, Pipeline, StreamSide, WindowPlan,
    };
    pub use sbt_server::{
        AdmissionError, DepartureReport, DrrAccounting, LifecycleError, Scheduler, ServeReport,
        ServerConfig, StreamServer, TenantConfig, TenantStream,
    };
    pub use sbt_telemetry::{
        FlightDump, FlightReason, LatencyKind, MetricsRegistry, SpanKind, TelemetrySnapshot,
        TenantLatencyRow,
    };
    pub use sbt_types::{Duration, Event, EventTime, PowerEvent, TenantId, Watermark, WindowSpec};
    pub use sbt_workloads::datasets::{
        intel_lab_stream, multi_tenant_streams, power_grid_stream, synthetic_stream, taxi_stream,
    };
    pub use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
    pub use sbt_workloads::transport::{Channel, ChannelConfig, WireFormat};
}
