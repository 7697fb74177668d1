//! The StreamBox-TZ trusted data plane (§3–§7 of the paper).
//!
//! The data plane is the only component that ever touches plaintext stream
//! data. It runs inside the (simulated) TrustZone secure world and exposes a
//! narrow, shared-nothing interface to the untrusted control plane:
//!
//! * **Ingress** — event batches arrive through trusted IO (or via the OS,
//!   paying a boundary copy), are decrypted with the key shared with the
//!   sources and parsed, in one serial pass per batch, and cut straight
//!   into their window arrays (or, through the single-call `ingress`, into
//!   one fresh uArray reserved up front), which are registered with the
//!   allocator. The control plane receives only opaque references.
//!   Multi-core ingest comes from concurrent batches, each its own ingress
//!   call.
//! * **Invoke** — the single entry function shared by all 23 trusted
//!   primitives: the control plane names a primitive, passes opaque input
//!   references, optional parameters and optional consumption hints; the
//!   data plane validates the references, runs the primitive, stores the
//!   outputs in new uArrays placed by the hint-guided allocator, and emits
//!   audit records.
//! * **Egress** — results are serialized, AES-encrypted, HMAC-signed and
//!   handed back for upload; an egress audit record is emitted and the audit
//!   log flushed.
//! * **Retire** — the control plane signals that it will no longer consume a
//!   reference; the data plane retires the uArray and reclaims memory in
//!   uGroup order. A bogus or premature retire can at worst waste memory or
//!   delay results — never corrupt them.
//!
//! The control plane reaches all four through [`DataPlane::call`]: a
//! [`Command`] list run inside one world switch, so a group's batches, or
//! a window's reduce, egress and retires, pay for the boundary once. A list succeeds or fails as a whole: a failed one
//! leaves no record, outcome count or output behind (only the cost meters
//! count the work it did).
//!
//! Opaque references are long random integers; every incoming reference is
//! validated against the table of live references, so fabricated references
//! are rejected (§3.2). All methods assert that they execute in the secure
//! world, which the SMC layer of `sbt-tz` establishes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod egress;
pub mod error;
pub mod opaque;
pub mod params;
pub mod plane;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use command::{Arg, Command, Reply};
pub use egress::{EgressMessage, Sealer};
pub use error::DataPlaneError;
pub use opaque::OpaqueRef;
pub use params::{InvokeOutput, PrimitiveParams};
pub use plane::{DataPlane, DataPlaneConfig, TenantMemory, TenantTeardown, AUDIT_SEGMENT_RECORDS};
pub use snapshot::{CheckpointManifest, RestoredTenant, SealedSnapshot, WindowArray};
pub use stats::{DataPlaneStats, InvocationBreakdown};
pub use store::StoredData;
