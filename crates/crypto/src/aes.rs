//! AES-128 block cipher (FIPS 197): the key schedule and the portable
//! rounds.
//!
//! Only encryption is provided; CTR mode (the only mode used on the
//! StreamBox-TZ data path) never needs block decryption. The key schedule
//! is the same bytes on either back-end — AES-NI consumes the eleven round
//! keys as they stand — so it is expanded once, portably, and the hardware
//! kernels in `hw` read it from here.

use crate::hw;

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// The word-parallel round table: `TE0[b]` packs one byte's SubBytes +
/// MixColumns contribution to a whole output column as
/// `(2·S[b]) | (S[b] << 8) | (S[b] << 16) | (3·S[b] << 24)`; contributions
/// for the other three row positions are byte rotations of the same word.
/// This turns a round into 16 table lookups and XORs on 32-bit words —
/// the software analogue of vectorizing the cipher (used only by the
/// multi-block [`Aes128::encrypt4`] hot path; the byte-wise single-block
/// path remains the reference the KATs pin down).
static TE0: [u32; 256] = build_te0();

const fn build_te0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i] as u32;
        let s2 = ((s << 1) ^ ((s >> 7) * 0x1b)) & 0xff;
        let s3 = s2 ^ s;
        t[i] = s2 | (s << 8) | (s << 16) | (s3 << 24);
        i += 1;
    }
    t
}

/// Multiply by x (i.e. {02}) in GF(2^8) with the AES reduction polynomial.
/// Branchless, so the compiler can vectorize MixColumns across lanes.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// The expanded key schedule: 11 round keys of 16 bytes each.
pub(crate) type RoundKeys = [[u8; 16]; 11];

/// AES-128 with a pre-expanded key schedule.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: RoundKeys,
    /// The same round keys as little-endian column words (the layout the
    /// word-parallel multi-block path consumes).
    round_key_cols: [[u32; 4]; 11],
}

impl Aes128 {
    /// Expand a 128-bit key into the 11 round keys.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // RotWord then SubWord then Rcon.
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        let mut round_key_cols = [[0u32; 4]; 11];
        for r in 0..11 {
            for c in 0..4 {
                round_keys[r][c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
                round_key_cols[r][c] = u32::from_le_bytes(w[r * 4 + c]);
            }
        }
        Aes128 { round_keys, round_key_cols }
    }

    pub(crate) fn round_keys(&self) -> &RoundKeys {
        &self.round_keys
    }

    /// Encrypt one 16-byte block in place (AES-NI where the CPU has it,
    /// otherwise [`encrypt_block_soft`](Aes128::encrypt_block_soft)).
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        if !hw::aes_encrypt_block(&self.round_keys, block) {
            self.encrypt_block_soft(block);
        }
    }

    /// The portable single-block encryption, byte-wise from the FIPS 197
    /// round description: the reference every other AES path in the crate is
    /// tested against.
    #[doc(hidden)]
    pub fn encrypt_block_soft(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[10]);
    }

    /// Encrypt a 16-byte block, returning the ciphertext.
    pub fn encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        let mut b = block;
        self.encrypt_block(&mut b);
        b
    }

    /// Encrypt four consecutive 16-byte blocks in lockstep (lane-parallel);
    /// the block function of the portable CTR kernel.
    ///
    /// Each AES round is applied across all four states before the next
    /// round begins, so the four independent data paths interleave: the
    /// compiler can keep all lanes in registers, hide the S-box load
    /// latency of one lane behind the arithmetic of the others, and
    /// auto-vectorize the XOR-heavy steps. This is the block-function shape
    /// the CTR hot loop wants (§9.3's vectorization lesson applied to the
    /// ingress/egress cipher rather than Sort).
    pub fn encrypt4(&self, blocks: &mut [u8; 64]) {
        // Each state is four little-endian column words; four states are
        // advanced in lockstep so each round's 64 independent table lookups
        // and XOR chains interleave freely.
        let mut s = [[0u32; 4]; 4];
        for (lane, state) in s.iter_mut().enumerate() {
            for (c, col) in state.iter_mut().enumerate() {
                let off = lane * 16 + c * 4;
                *col = u32::from_le_bytes(blocks[off..off + 4].try_into().unwrap());
            }
        }
        for state in s.iter_mut() {
            for (col, rk) in state.iter_mut().zip(self.round_key_cols[0]) {
                *col ^= rk;
            }
        }
        for round in 1..10 {
            let rk = &self.round_key_cols[round];
            for state in s.iter_mut() {
                *state = table_round(state, rk);
            }
        }
        let rk = &self.round_key_cols[10];
        for state in s.iter_mut() {
            *state = last_round(state, rk);
        }
        for (lane, state) in s.iter().enumerate() {
            for (c, col) in state.iter().enumerate() {
                let off = lane * 16 + c * 4;
                blocks[off..off + 4].copy_from_slice(&col.to_le_bytes());
            }
        }
    }
}

/// One full word-parallel AES round (SubBytes + ShiftRows + MixColumns +
/// AddRoundKey) over a four-column state. ShiftRows appears as the column
/// rotation in the input indices: output column `c` draws its row-`r` byte
/// from column `(c + r) % 4`.
#[inline]
fn table_round(s: &[u32; 4], rk: &[u32; 4]) -> [u32; 4] {
    let mut out = [0u32; 4];
    for (c, o) in out.iter_mut().enumerate() {
        *o = TE0[(s[c] & 0xff) as usize]
            ^ TE0[((s[(c + 1) & 3] >> 8) & 0xff) as usize].rotate_left(8)
            ^ TE0[((s[(c + 2) & 3] >> 16) & 0xff) as usize].rotate_left(16)
            ^ TE0[((s[(c + 3) & 3] >> 24) & 0xff) as usize].rotate_left(24)
            ^ rk[c];
    }
    out
}

/// The final round (no MixColumns): plain S-box lookups reassembled into
/// column words.
#[inline]
fn last_round(s: &[u32; 4], rk: &[u32; 4]) -> [u32; 4] {
    let mut out = [0u32; 4];
    for (c, o) in out.iter_mut().enumerate() {
        *o = (SBOX[(s[c] & 0xff) as usize] as u32)
            | (SBOX[((s[(c + 1) & 3] >> 8) & 0xff) as usize] as u32) << 8
            | (SBOX[((s[(c + 2) & 3] >> 16) & 0xff) as usize] as u32) << 16
            | (SBOX[((s[(c + 3) & 3] >> 24) & 0xff) as usize] as u32) << 24;
        *o ^= rk[c];
    }
    out
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// State is column-major: byte index = col*4 + row.
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 (== right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let i = c * 4;
        let a0 = state[i];
        let a1 = state[i + 1];
        let a2 = state[i + 2];
        let a3 = state[i + 3];
        let all = a0 ^ a1 ^ a2 ^ a3;
        state[i] = a0 ^ all ^ xtime(a0 ^ a1);
        state[i + 1] = a1 ^ all ^ xtime(a1 ^ a2);
        state[i + 2] = a2 ^ all ^ xtime(a2 ^ a3);
        state[i + 3] = a3 ^ all ^ xtime(a3 ^ a0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix C.1 example vector.
    #[test]
    fn fips197_appendix_c1_vector() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let plain: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt(plain), expected);
    }

    /// NIST SP 800-38A F.1.1 ECB-AES128 first block.
    #[test]
    fn nist_sp800_38a_ecb_first_block() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain: [u8; 16] = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let expected: [u8; 16] = [
            0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
            0xef, 0x97,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt(plain), expected);
    }

    #[test]
    fn encrypt4_matches_four_single_block_encryptions() {
        let aes = Aes128::new(&[0x42u8; 16]);
        let mut blocks = [0u8; 64];
        for (i, b) in blocks.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let mut expected = [0u8; 64];
        for lane in 0..4 {
            let single: [u8; 16] = blocks[lane * 16..lane * 16 + 16].try_into().unwrap();
            expected[lane * 16..lane * 16 + 16].copy_from_slice(&aes.encrypt(single));
        }
        aes.encrypt4(&mut blocks);
        assert_eq!(blocks, expected);
    }

    #[test]
    fn encryption_is_deterministic_and_key_dependent() {
        let block = [7u8; 16];
        let a = Aes128::new(&[1u8; 16]).encrypt(block);
        let b = Aes128::new(&[1u8; 16]).encrypt(block);
        let c = Aes128::new(&[2u8; 16]).encrypt(block);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, block);
    }

    #[test]
    fn xtime_matches_reference_values() {
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
        assert_eq!(xtime(0x80), 0x1b);
    }
}
