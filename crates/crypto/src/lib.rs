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
//! These implementations favour clarity over constant-time hardening; the
//! reproduction measures the *throughput cost* of encryption on the data
//! path (a per-byte software cost), which this faithfully provides.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ctr;
pub mod hmac;
pub mod kdf;
pub mod sha256;
pub mod sign;

pub use aes::Aes128;
pub use ctr::{AesCtr, AesCtrCursor};
pub use hmac::{hmac_sha256, hmac_sha256_parts, Hmac};
pub use kdf::{
    hkdf_expand, hkdf_extract, KeySet, MasterSecret, SealingKeySet, TenantKeychain, VerifierKeySet,
};
pub use sha256::{sha256, Sha256};
pub use sign::{Signature, Signer, SigningKey};

/// A 128-bit symmetric key shared between sources, the edge TEE and the
/// cloud consumer.
pub type Key128 = [u8; 16];

/// A 128-bit nonce / initialization vector for CTR mode.
pub type Nonce = [u8; 16];
