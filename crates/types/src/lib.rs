//! Core stream-model types shared by every StreamBox-TZ crate.
//!
//! This crate deliberately contains only plain data types with no logic that
//! depends on the trust boundary: events, timestamps, watermarks, windows and
//! batch descriptors. Both the untrusted control plane and the trusted data
//! plane link against it, mirroring the paper's shared stream model (§2.2)
//! while keeping the shared surface to inert value types.
//!
//! The on-the-wire layouts follow the paper's evaluation setup: a generic
//! telemetry event is 3 × 32-bit fields (12 bytes) and the power-grid event is
//! 4 × 32-bit fields (16 bytes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod event;
pub mod keyed;
pub mod ops;
pub mod pool;
pub mod sink;
pub mod tenant;
pub mod time;
pub mod watermark;
pub mod window;

pub use batch::{BatchId, BatchMeta};
pub use event::{Event, PowerEvent, TaxiEvent, EVENT_BYTES, POWER_EVENT_BYTES};
pub use keyed::{KeyAgg, KeyValue};
pub use ops::PrimitiveKind;
pub use pool::{poll_wait, LanePool, LaneTask};
pub use sink::{infallible, RecordCount, RecordSink};
pub use tenant::TenantId;
pub use time::{Duration, EventTime, ProcessingTime};
pub use watermark::Watermark;
pub use window::{WindowAssignment, WindowId, WindowSpec, WindowedKey, MAX_WINDOWS_PER_EVENT};
