//! Egress signing.
//!
//! At the pipeline egress, the data plane encrypts, signs, and sends results
//! to the cloud (§3.2). The reproduction uses HMAC-SHA-256 with a key shared
//! between the TEE and the cloud consumer; the same key also authenticates
//! the periodic audit-record uploads so the verifier can trust them.

use crate::hmac::{verify_hmac, Hmac};

/// A MAC over an egress message or an audit-record flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 32]);

/// A symmetric signing key shared between the edge TEE and the cloud.
///
/// Holds the keyed HMAC state (the two padded-key midstates), not the key
/// bytes: cloning is a plain copy and every signature skips the per-call
/// key padding.
#[derive(Clone)]
pub struct SigningKey {
    keyed: Hmac,
}

impl SigningKey {
    /// Construct a signing key from raw bytes.
    pub fn new(key: &[u8]) -> Self {
        SigningKey { keyed: Hmac::new(key) }
    }

    /// Start an incremental signature: pieces absorbed through
    /// [`Signer::update`] sign as their concatenation. The streaming egress
    /// sealer MACs ciphertext chunk by chunk through this.
    pub fn signer(&self) -> Signer {
        Signer(self.keyed.clone())
    }

    /// Sign a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_parts(&[message])
    }

    /// Verify a message/signature pair.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        self.verify_parts(&[message], signature)
    }

    /// Sign the concatenation of `parts` without materializing it —
    /// identical to [`sign`](Self::sign) over the joined bytes. Audit
    /// segments sign `header || compressed-payload`; this spares the
    /// signer (and verifier) a payload-sized copy per segment.
    pub fn sign_parts(&self, parts: &[&[u8]]) -> Signature {
        let mut signer = self.signer();
        for part in parts {
            signer.update(part);
        }
        signer.finish()
    }

    /// Verify a signature over the concatenation of `parts` (the
    /// counterpart of [`sign_parts`](Self::sign_parts)).
    pub fn verify_parts(&self, parts: &[&[u8]], signature: &Signature) -> bool {
        verify_hmac(&self.sign_parts(parts).0, &signature.0)
    }
}

/// An in-progress signature (see [`SigningKey::signer`]).
pub struct Signer(Hmac);

impl Signer {
    /// Absorb the next piece of the message.
    pub fn update(&mut self, data: &[u8]) {
        self.0.update(data);
    }

    /// Finish and return the signature over everything absorbed.
    pub fn finish(self) -> Signature {
        Signature(self.0.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_and_verify_round_trip() {
        let key = SigningKey::new(b"edge-cloud-shared-key");
        let msg = b"window 7 results: house 3 -> 4 plugs";
        let sig = key.sign(msg);
        assert!(key.verify(msg, &sig));
    }

    #[test]
    fn verification_fails_for_tampered_message() {
        let key = SigningKey::new(b"edge-cloud-shared-key");
        let sig = key.sign(b"original");
        assert!(!key.verify(b"tampered", &sig));
    }

    #[test]
    fn verification_fails_for_wrong_key() {
        let key_a = SigningKey::new(b"key-a");
        let key_b = SigningKey::new(b"key-b");
        let sig = key_a.sign(b"message");
        assert!(!key_b.verify(b"message", &sig));
    }

    #[test]
    fn signatures_differ_across_messages() {
        let key = SigningKey::new(b"k");
        assert_ne!(key.sign(b"a"), key.sign(b"b"));
    }

    #[test]
    fn incremental_signer_matches_contiguous_signature() {
        let key = SigningKey::new(b"edge-cloud-shared-key");
        let msg: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut signer = key.signer();
        for piece in msg.chunks(97) {
            signer.update(piece);
        }
        assert_eq!(signer.finish(), key.sign(&msg));
        // An untouched signer signs the empty message.
        assert_eq!(key.signer().finish(), key.sign(b""));
    }

    #[test]
    fn part_signatures_interchange_with_contiguous_ones() {
        let key = SigningKey::new(b"edge-cloud-shared-key");
        let sig = key.sign_parts(&[b"header|", b"", b"payload bytes"]);
        assert!(key.verify(b"header|payload bytes", &sig));
        assert!(key.verify_parts(&[b"header", b"|payload ", b"bytes"], &sig));
        assert!(!key.verify_parts(&[b"header|", b"payload bytes!"], &sig));
    }
}
