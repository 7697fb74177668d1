//! Simulated ARM TrustZone / OP-TEE substrate.
//!
//! StreamBox-TZ runs its data plane inside a TrustZone TEE managed by OP-TEE
//! on a HiKey board. This reproduction has no TrustZone hardware, so this
//! crate provides a faithful *functional and cost* model of the pieces the
//! paper's evaluation depends on:
//!
//! * **Worlds** — a normal (untrusted) and a secure world; CPU "cores"
//!   switch between them. Per-thread world tracking catches protocol bugs
//!   (e.g. the control plane touching secure state without an SMC).
//! * **World-switch cost** — each TEE entry/exit is charged a configurable
//!   number of cycles (hardware trap plus an OP-TEE software path, which the
//!   paper identifies as the dominant component). Costs accumulate in
//!   [`stats::TzStats`] and are converted to simulated nanoseconds so that
//!   harnesses can add them to measured compute time.
//! * **Secure memory (TZASC analogue)** — a byte budget for the secure-world
//!   DRAM carve-out, with high-water-mark accounting and a backpressure
//!   threshold (§4.2 "coping with secure memory shortage").
//! * **Trusted IO (TZPC analogue)** — an ingestion path that delivers bytes
//!   directly to the secure world versus a "via OS" path that pays an extra
//!   copy and boundary crossing (§3.1, evaluated in §9.3).
//! * **SMC interface** — sessions and numbered entry functions mirroring the
//!   four entry points exported by the StreamBox-TZ TA (§9.1).
//!
//! The crate knows nothing about streams; it is a reusable "TrustZone on a
//! workstation" substrate for the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod platform;
pub mod secure_mem;
pub mod smc;
pub mod stats;
pub mod trusted_io;
pub mod world;

pub use cost::CostModel;
pub use platform::{Platform, PlatformConfig};
pub use secure_mem::{under_pressure, SecureMemory, SecureMemoryError, BACKPRESSURE_PERCENT};
pub use smc::{EntryFunction, SmcError, SmcInterface, SmcSession};
pub use stats::{BoundaryEvents, StatSnapshot, TzStats};
pub use trusted_io::{IngressPath, IoChannel};
pub use world::{World, WorldGuard, WorldTracker};
