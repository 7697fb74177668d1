//! Remote attestation for StreamBox-TZ (§7 of the paper).
//!
//! The data plane, while being driven by the untrusted control plane,
//! generates **audit records** at the TEE boundary: data ingress/egress,
//! window assignments, watermark arrivals, and every trusted-primitive
//! execution (with its inputs, outputs and any consumption hints). The
//! records are timestamped, compressed with domain-specific **columnar
//! encoding** (delta coding for monotone columns, Huffman coding for skewed
//! ones), signed, and uploaded to the cloud. Encoding is *streaming*: the
//! in-TEE [`AuditLog`] delta/varint-codes every field into pre-laid-out
//! column buffers at append time (allocation-free on the steady state), so
//! flushing a segment is a cheap seal — store each small byte column as a
//! constant, static-table or raw block ([`huffman::encode_block`]), and
//! sign — rather than a batch re-encode. Neither the data plane nor the
//! cloud verifier fits a code or parses a code header.
//! [`ColumnarEncoder`] is the crate's one record encoder, and its format,
//! v4, is the one the verifier reads: a payload that does not open with
//! [`FORMAT_PREFIX`] and [`FORMAT_VERSION_STREAMING`] is rejected.
//!
//! A **cloud verifier** replays the records symbolically against its own
//! copy of the pipeline declaration to attest:
//!
//! * *correctness* — all ingested data flowed through the declared
//!   primitives of the declared pipeline, respecting windows and watermarks;
//! * *freshness* — output delays (watermark ingress → result egress) stayed
//!   below the deployment's target;
//! * *hint honesty* — the consumption hints the control plane supplied are
//!   well formed and did not systematically contradict the observed
//!   consumption order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod huffman;
pub mod log;
pub mod record;
pub mod trail;
pub mod varint;
pub mod verifier;

pub use columnar::{
    compress_records_streaming, decompress_records, ColumnarEncoder, FORMAT_PREFIX,
    FORMAT_VERSION_STREAMING,
};
pub use log::{AuditLog, LogSegment};
pub use record::{AuditRecord, DataRef, DepartureReason, PortList, UArrayRef, OP_CODE_CHECKPOINT};
pub use trail::{
    verify_tenant_trail, verify_tenant_trail_parallel, verify_tenant_trail_parallel_min_shard,
    TrailError, MIN_VERIFY_SHARD_BYTES,
};
pub use verifier::{FreshnessReport, PipelineSpec, VerificationReport, Verifier, Violation};
