//! SHA-256 (FIPS 180-4): buffering and padding over a block-compression
//! kernel.

use crate::{hw, soft};

/// SHA-256 round constants.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The initial hash value.
pub(crate) const IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: IV, buffer: [0u8; 64], buffer_len: 0, total_len: 0 }
    }

    /// Feed data into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Top up a partially full buffer first.
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Every whole block in one run, straight from the input.
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finalize and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit
        // length — one block, or two when the tail leaves no room for it.
        let mut tail = [0u8; 128];
        tail[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        tail[self.buffer_len] = 0x80;
        let padded = if self.buffer_len < 56 { 64 } else { 128 };
        tail[padded - 8..padded].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &tail[..padded]);
        digest_bytes(&self.state)
    }
}

/// The digest of a final state: its eight words, big-endian.
pub(crate) fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The one place SHA-256 picks its kernel: SHA-NI where the CPU has it,
/// otherwise the portable scalar rounds. `bytes` is whole blocks.
fn compress_blocks(state: &mut [u32; 8], bytes: &[u8]) {
    if !hw::sha256_compress_blocks(state, bytes) {
        soft::sha256_compress_blocks(state, bytes);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{:02x}", b)).collect()
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn both_kernels_compress_alike_from_any_state_over_any_block_count() {
        // The two kernels called directly, from a non-initial state, over
        // 0..=5 blocks (the hardware kernel keeps its state in registers
        // across the blocks of one call).
        let data: Vec<u8> = (0..5 * 64u32).map(|i| (i * 131 % 251) as u8).collect();
        for blocks in 0..=5 {
            let mut soft_state = IV.map(|w| w.rotate_left(blocks as u32) ^ 0x5bd1_e995);
            let mut hw_state = soft_state;
            soft::sha256_compress_blocks(&mut soft_state, &data[..blocks * 64]);
            if hw::sha256_compress_blocks(&mut hw_state, &data[..blocks * 64]) {
                assert_eq!(hw_state, soft_state, "{blocks} blocks");
            } else {
                assert!(!crate::backend().sha.is_hardware());
            }
        }
    }

    #[test]
    fn every_message_length_around_the_padding_boundaries_matches_the_oracle() {
        // 55/56 and 63/64 are where the padding grows a block; the oracle
        // pads a whole copy and shares no buffering with `Sha256`.
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 % 251) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(sha256(&data[..len]), soft::sha256(&[&data[..len]]), "len {len}");
        }
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }
}
