//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).

use crate::sha256::{sha256, Sha256};

const BLOCK_SIZE: usize = 64;

/// An incremental HMAC-SHA-256 computation.
///
/// A fresh one holds the SHA-256 midstates after the inner and outer padded
/// key blocks — the key's whole schedule, with no heap behind it. Keep it
/// and `clone` it per message: every MAC then starts from a plain copy of
/// the midstates, so a short message costs two compressions instead of the
/// four that re-deriving the pads would.
#[derive(Clone)]
pub struct Hmac {
    inner: Sha256,
    outer: Sha256,
}

impl Hmac {
    /// Start a MAC under `key` (keys longer than the block size are hashed
    /// first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        Hmac { inner, outer }
    }

    /// Absorb the next piece of the message: pieces MAC as their
    /// concatenation.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and return the 32-byte MAC.
    pub fn finalize(mut self) -> [u8; 32] {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }
}

/// Compute `HMAC-SHA-256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    hmac_sha256_parts(key, &[message])
}

/// Compute `HMAC-SHA-256(key, concat(parts))` without materializing the
/// concatenation: the incremental SHA-256 core absorbs each part in place.
/// Identical to [`hmac_sha256`] over the concatenated bytes.
pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    let mut mac = Hmac::new(key);
    for part in parts {
        mac.update(part);
    }
    mac.finalize()
}

/// Constant-length comparison of two MACs.
///
/// The comparison is branch-free over the full 32 bytes so that verification
/// time does not depend on where the first mismatching byte is.
pub fn verify_hmac(expected: &[u8; 32], actual: &[u8; 32]) -> bool {
    let mut diff = 0u8;
    for i in 0..32 {
        diff |= expected[i] ^ actual[i];
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{:02x}", b)).collect()
    }

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b_u8; 20];
        let msg = b"Hi There";
        assert_eq!(
            hex(&hmac_sha256(&key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaa_u8; 20];
        let msg = [0xdd_u8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 6: key larger than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa_u8; 131];
        let msg = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex(&hmac_sha256(&key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn parts_match_concatenation_across_splits() {
        // Same message split every way across 1..4 parts (including empty
        // parts) must produce the contiguous MAC.
        let msg = b"header:12|payload with enough bytes to cross a block boundary \
                    0123456789abcdef0123456789abcdef0123456789abcdef";
        let whole = hmac_sha256(b"split-key", msg);
        for a in 0..msg.len() {
            for b in a..msg.len() {
                assert_eq!(
                    hmac_sha256_parts(b"split-key", &[&msg[..a], &msg[a..b], &msg[b..]]),
                    whole,
                    "split at ({a},{b}) diverged"
                );
            }
        }
        assert_eq!(hmac_sha256_parts(b"split-key", &[]), hmac_sha256(b"split-key", b""));
    }

    #[test]
    fn one_keyed_state_serves_many_incremental_macs() {
        // The midstates are copied, never consumed: MACs cloned from one
        // keyed state are independent and equal the one-shot function.
        for key in [&b"k"[..], &[0xaa; 64], &[0xaa; 131]] {
            let keyed = Hmac::new(key);
            for msg in [&b""[..], b"Hi There", &[0xdd; 200]] {
                let mut mac = keyed.clone();
                for piece in msg.chunks(7) {
                    mac.update(piece);
                }
                assert_eq!(mac.finalize(), hmac_sha256(key, msg));
            }
        }
    }

    #[test]
    fn verify_detects_mismatch() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        assert!(verify_hmac(&a, &b));
        b[31] ^= 1;
        assert!(!verify_hmac(&a, &b));
    }
}
