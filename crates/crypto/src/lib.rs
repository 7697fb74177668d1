//! From-scratch cryptographic substrate for StreamBox-TZ.
//!
//! The paper encrypts source→edge and edge→cloud streams with 128-bit AES and
//! signs egress results inside the TEE. This crate provides the minimal
//! primitives that the data plane needs for those paths — AES-128 in CTR
//! mode, SHA-256, HMAC-SHA-256 and HKDF key derivation — implemented
//! directly from the public
//! algorithm specifications (FIPS 197, FIPS 180-4, RFC 2104, RFC 5869) so that the
//! simulated trusted computing base carries no external dependencies.
//!
//! # Two back-ends, one surface
//!
//! The paper's HiKey runs AES and SHA-2 on the ARMv8 Crypto Extensions
//! inside OP-TEE, and its "< 25 % security overhead" is priced at that
//! speed. So each primitive here has two kernels behind one public API:
//!
//! * **hardware** (the private `hw` module): an AES-NI CTR kernel, eight
//!   counter blocks in flight, and a SHA-NI multi-block compression. Used
//!   on x86_64 CPUs that advertise `aes` + `sse4.1` (AES) and `sha` +
//!   `ssse3` + `sse4.1` (SHA-256) — each checked on its own, once per
//!   process, with `is_x86_feature_detected!`.
//! * **portable** ([`soft`]): word-parallel T-table AES-CTR and scalar
//!   SHA-256 in plain Rust. Used everywhere else, and kept as the oracle the
//!   hardware kernels are differentially tested against.
//!
//! [`backend()`] reports which one a process runs. Nothing selects it: no
//! Cargo feature, environment variable, constructor or global switch. The
//! two produce the same bytes (the NIST / RFC known-answer tests run against
//! both on every runner, and `tests/crypto_backends.rs` in the root package
//! holds them equal over arbitrary inputs), so ciphertexts, signatures,
//! sealed snapshots and audit trails are interchangeable between them.
//!
//! **Timing.** The hardware AES kernel is constant-time: `aesenc` has no
//! secret-dependent memory access or branch. The portable AES kernel is
//! not — its round tables are indexed by key- and data-dependent bytes, the
//! classic cache-timing channel — so a deployment that cares about co-resident
//! attackers should care which line [`backend()`] prints. SHA-256 and the
//! HMAC comparison ([`hmac::verify_hmac`]) are constant-time on both.
//!
//! **`unsafe`.** The crate denies `unsafe_code` except in `hw`, which holds
//! exactly three `unsafe` blocks: the calls of its three
//! `#[target_feature]` kernels, each guarded by the cached detection. The
//! kernels themselves are safe Rust over value intrinsics — no raw pointer,
//! transmute or alignment assumption.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ctr;
pub mod hmac;
#[allow(unsafe_code)]
mod hw;
pub mod kdf;
pub mod sha256;
pub mod sign;
#[doc(hidden)]
pub mod soft;

pub use aes::Aes128;
pub use ctr::{AesCtr, AesCtrCursor};
pub use hmac::{hmac_sha256, hmac_sha256_parts, Hmac};
pub use kdf::{
    hkdf_expand, hkdf_extract, KeySet, MasterSecret, SealingKeySet, TenantKeychain, VerifierKeySet,
};
pub use sha256::{sha256, Sha256};
pub use sign::{Signature, Signer, SigningKey};

/// Which kernel serves a primitive in this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// A CPU instruction-set extension, named (`"aes-ni"`, `"sha-ni"`).
    Hardware(&'static str),
    /// The portable Rust implementation.
    Portable,
}

impl Kernel {
    /// Whether this is a hardware kernel.
    pub fn is_hardware(self) -> bool {
        matches!(self, Kernel::Hardware(_))
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Kernel::Hardware(name) => name,
            Kernel::Portable => "portable",
        })
    }
}

/// The kernels behind AES ([`Aes128`], [`AesCtr`]) and SHA-256 ([`Sha256`],
/// [`Hmac`], [`SigningKey`]) in this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend {
    /// The AES kernel.
    pub aes: Kernel,
    /// The SHA-256 kernel.
    pub sha: Kernel,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "aes={} sha={}", self.aes, self.sha)
    }
}

/// Which back-end this process's crypto runs on. Decided once, from the
/// CPU's feature bits, the first time any primitive (or this function) is
/// used; there is no way to choose it. Anything that quotes a
/// crypto-dependent number should print it alongside.
pub fn backend() -> Backend {
    let pick = |has, name| if has { Kernel::Hardware(name) } else { Kernel::Portable };
    Backend { aes: pick(hw::has_aes(), "aes-ni"), sha: pick(hw::has_sha(), "sha-ni") }
}

/// A 128-bit symmetric key shared between sources, the edge TEE and the
/// cloud consumer.
pub type Key128 = [u8; 16];

/// A 128-bit nonce / initialization vector for CTR mode.
pub type Nonce = [u8; 16];
