//! Multi-tenant stream serving: many pipelines, one shared TEE.
//!
//! The paper's engine runs a single pipeline whose tasks all enter one
//! shared TEE (§2.2, §4.2). Production edges serve many independent streams,
//! so this crate multiplexes N **tenants** — each an admitted pipeline with
//! its own control-plane engine — over one [`Platform`], one
//! [`DataPlane`] and one worker pool:
//!
//! * **Admission control** ([`StreamServer::admit`]): each tenant declares a
//!   TEE memory quota; the server refuses to overcommit the secure carve-out
//!   and caps the tenant count. Quotas are enforced inside the TEE through
//!   the uArray allocator's owner accounting.
//! * **Fair scheduling** ([`StreamServer::serve`]): tenant sources are
//!   served by deficit round-robin over their metered cycle cost; each
//!   tenant's batches and window tasks run on the shared worker pool,
//!   several in flight at once. Backpressure is per
//!   tenant — a tenant nearing its quota is slowed (and its overflowing
//!   batches rejected) without stalling the other tenants.
//! * **Isolation**: opaque-reference namespaces, audit-log segment streams,
//!   egress sequence numbers **and key material** are all per tenant; one
//!   tenant's control plane cannot invoke a primitive on another tenant's
//!   state, results seal under per-tenant derived keys, and the cloud
//!   verifies each tenant's audit trail independently under that tenant's
//!   keychain (`sbt_attest::verify_tenant_trail`).
//! * **Lifecycle** ([`StreamServer::evict`], [`StreamServer::drain`],
//!   [`StreamServer::rekey`], [`StreamServer::resize_quota`]): tenants
//!   come and go on a long-running edge. Draining runs the remaining
//!   windows to the watermark before teardown; eviction unwinds the
//!   scheduler lane mid-`serve`; either frees the tenant's references,
//!   uArrays and quota reservation in one pass, and the departed tenant's
//!   trail stays verifiable under its final epoch's keychain.
//! * **Crash recovery** ([`StreamServer::checkpoint`],
//!   [`StreamServer::restore_tenant`], [`StreamServer::retire_epochs`]):
//!   per-tenant snapshots seal inside the TEE, park as ciphertext in an
//!   untrusted [`CheckpointVault`] that outlives the server instance, and
//!   chain their hash into the signed trail — a replacement server restores
//!   mid-stream, rollback to a stale snapshot is detected by the cloud
//!   verifiers, and retired key epochs refuse old snapshots outright.
//!
//! The TCB story is unchanged: the server, like the engine, is untrusted
//! control-plane code. Everything it is trusted *not* to do is enforced by
//! the data plane, and everything it does is reflected in per-tenant audit
//! records.
//!
//! [`Platform`]: sbt_tz::Platform
//! [`DataPlane`]: sbt_dataplane::DataPlane

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod recovery;
pub mod sched;
pub mod server;
pub mod tenant;

pub use recovery::{CheckpointVault, VaultError, VaultFault};
pub use sched::{DrrAccounting, Scheduler, ServeReport, TenantProgress, TenantStream};
pub use server::{CheckpointReceipt, DepartureReport, ServerConfig, StreamServer};
pub use tenant::{AdmissionError, LifecycleError, TenantConfig};
