//! The hardware back-end: AES-NI and SHA-NI kernels on x86_64, selected at
//! run time.
//!
//! This module is the only place in the crate (and, outside the vendored
//! allocator shim, in the workspace) where `unsafe` appears, and it appears
//! exactly three times: each is the call of one `#[target_feature]` kernel
//! from a safe wrapper that has just checked — against a detection made
//! once per process — that the CPU has the features the kernel was compiled
//! for. The kernels themselves are safe Rust: they use only the value
//! intrinsics of `core::arch` (no loads or stores through pointers), move
//! bytes in and out of vector registers through `[u8; 16]` values, and index
//! slices with ordinary bounds checks. There is no raw pointer, no layout
//! cast and no alignment assumption to get wrong.
//!
//! Every wrapper returns `false` without touching its arguments when the
//! hardware path is not available (a CPU without the extension, or any
//! target other than x86_64); the caller then runs the portable kernel in
//! [`crate::soft`], which is also the oracle the differential tests compare
//! this module against.

use crate::aes::RoundKeys;
use crate::Nonce;

/// Whether the AES-NI kernels can run on this CPU (decided once).
pub(crate) fn has_aes() -> bool {
    detected().0
}

/// Whether the SHA-NI kernel can run on this CPU (decided once).
pub(crate) fn has_sha() -> bool {
    detected().1
}

/// `(aes, sha)`: the features each kernel's `#[target_feature]` list names,
/// probed on first use and never again.
fn detected() -> (bool, bool) {
    static DETECTED: std::sync::OnceLock<(bool, bool)> = std::sync::OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let sse41 = std::arch::is_x86_feature_detected!("sse4.1");
            let ssse3 = std::arch::is_x86_feature_detected!("ssse3");
            (
                sse41 && std::arch::is_x86_feature_detected!("aes"),
                sse41 && ssse3 && std::arch::is_x86_feature_detected!("sha"),
            )
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            (false, false)
        }
    })
}

/// Encrypt one block with AES-NI. Returns `false` (block untouched) when the
/// hardware path is unavailable.
pub(crate) fn aes_encrypt_block(keys: &RoundKeys, block: &mut [u8; 16]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if has_aes() {
        // SAFETY: `has_aes()` just confirmed the CPU supports `aes` and
        // `sse4.1`, the only requirement of this `#[target_feature]` call.
        unsafe { x86::aes_encrypt_block(keys, block) };
        return true;
    }
    let _ = (keys, block);
    false
}

/// XOR the CTR keystream of `keys`/`nonce` from counter block `start_block`
/// over `src` into `dst` (`src = None`: over `dst` in place) with AES-NI.
/// Returns `false` (`dst` untouched) when the hardware path is unavailable.
pub(crate) fn ctr_xor(
    keys: &RoundKeys,
    nonce: &Nonce,
    start_block: u32,
    src: Option<&[u8]>,
    dst: &mut [u8],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if has_aes() {
        // SAFETY: `has_aes()` just confirmed the CPU supports `aes` and
        // `sse4.1`, the only requirement of this `#[target_feature]` call.
        unsafe { x86::ctr_xor(keys, nonce, start_block, src, dst) };
        return true;
    }
    let _ = (keys, nonce, start_block, src, dst);
    false
}

/// Run the SHA-256 compression function over every 64-byte block of `bytes`
/// with SHA-NI. Returns `false` (`state` untouched) when the hardware path is
/// unavailable.
pub(crate) fn sha256_compress_blocks(state: &mut [u32; 8], bytes: &[u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if has_sha() {
        // SAFETY: `has_sha()` just confirmed the CPU supports `sha`, `ssse3`
        // and `sse4.1`, the only requirement of this `#[target_feature]` call.
        unsafe { x86::sha256_compress_blocks(state, bytes) };
        return true;
    }
    let _ = (state, bytes);
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::aes::RoundKeys;
    use crate::sha256::K;
    use crate::Nonce;
    use std::arch::x86_64::*;

    /// Counter blocks encrypted per iteration of the CTR loop. `aesenc` has a
    /// latency of several cycles and a throughput of one or two per cycle;
    /// eight independent blocks keep the unit full.
    const STRIDE: usize = 8;

    /// 16 bytes → register (byte `i` of the slice is byte `i` of the lane
    /// order `_mm_storeu_si128` would write).
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn load(bytes: &[u8; 16]) -> __m128i {
        let lo = i64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let hi = i64::from_le_bytes(bytes[8..].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi, lo)
    }

    /// Register → 16 bytes, the inverse of [`load`].
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn store(v: __m128i) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&_mm_extract_epi64::<0>(v).to_le_bytes());
        out[8..].copy_from_slice(&_mm_extract_epi64::<1>(v).to_le_bytes());
        out
    }

    #[inline]
    #[target_feature(enable = "aes,sse4.1")]
    fn load_keys(keys: &RoundKeys) -> [__m128i; 11] {
        let mut k = [_mm_setzero_si128(); 11];
        for (k, bytes) in k.iter_mut().zip(keys) {
            *k = load(bytes);
        }
        k
    }

    /// The ten AES rounds over `N` independent blocks, round by round so the
    /// blocks' `aesenc`s interleave.
    #[inline]
    #[target_feature(enable = "aes,sse4.1")]
    fn encrypt_blocks<const N: usize>(k: &[__m128i; 11], mut b: [__m128i; N]) -> [__m128i; N] {
        for b in b.iter_mut() {
            *b = _mm_xor_si128(*b, k[0]);
        }
        for rk in &k[1..10] {
            for b in b.iter_mut() {
                *b = _mm_aesenc_si128(*b, *rk);
            }
        }
        for b in b.iter_mut() {
            *b = _mm_aesenclast_si128(*b, k[10]);
        }
        b
    }

    #[target_feature(enable = "aes,sse4.1")]
    pub(super) fn aes_encrypt_block(keys: &RoundKeys, block: &mut [u8; 16]) {
        let [out] = encrypt_blocks(&load_keys(keys), [load(block)]);
        *block = store(out);
    }

    #[target_feature(enable = "aes,sse4.1")]
    pub(super) fn ctr_xor(
        keys: &RoundKeys,
        nonce: &Nonce,
        start_block: u32,
        src: Option<&[u8]>,
        dst: &mut [u8],
    ) {
        let k = load_keys(keys);
        // The counter block is the nonce with its last four bytes replaced
        // by the big-endian block index: in register terms, the index,
        // byte-swapped, in the top 32-bit lane.
        let nonce_lo = i64::from_le_bytes(nonce[..8].try_into().expect("8 bytes"));
        let nonce_mid = u32::from_le_bytes(nonce[8..12].try_into().expect("4 bytes"));
        let counter = |ctr: u32| {
            let hi = u64::from(nonce_mid) | u64::from(ctr.swap_bytes()) << 32;
            _mm_set_epi64x(hi as i64, nonce_lo)
        };

        let len = dst.len();
        let mut ctr = start_block;
        let mut off = 0;
        while len - off >= 16 * STRIDE {
            let mut ks = [_mm_setzero_si128(); STRIDE];
            for (lane, ks) in ks.iter_mut().enumerate() {
                *ks = counter(ctr.wrapping_add(lane as u32));
            }
            let ks = encrypt_blocks(&k, ks);
            let input: &[u8; 16 * STRIDE] = match src {
                Some(src) => &src[off..off + 16 * STRIDE],
                None => &dst[off..off + 16 * STRIDE],
            }
            .try_into()
            .expect("one stride");
            let mut out = [0u8; 16 * STRIDE];
            for (lane, ks) in ks.iter().enumerate() {
                let block: &[u8; 16] =
                    input[lane * 16..lane * 16 + 16].try_into().expect("one block");
                out[lane * 16..lane * 16 + 16]
                    .copy_from_slice(&store(_mm_xor_si128(load(block), *ks)));
            }
            dst[off..off + 16 * STRIDE].copy_from_slice(&out);
            ctr = ctr.wrapping_add(STRIDE as u32);
            off += 16 * STRIDE;
        }
        // The tail, under one stride: a block at a time, the last possibly
        // partial (zero-padded into a block, the padding never written back).
        while off < len {
            let n = (len - off).min(16);
            let mut block = [0u8; 16];
            block[..n].copy_from_slice(match src {
                Some(src) => &src[off..off + n],
                None => &dst[off..off + n],
            });
            let [ks] = encrypt_blocks(&k, [counter(ctr)]);
            let out = store(_mm_xor_si128(load(&block), ks));
            dst[off..off + n].copy_from_slice(&out[..n]);
            ctr = ctr.wrapping_add(1);
            off += n;
        }
    }

    /// SHA-256 over whole blocks with the SHA extensions. `sha256rnds2`
    /// wants the eight working variables as two registers `ABEF` and `CDGH`;
    /// the state is shuffled into that layout once, stays in it across every
    /// block of the call, and is shuffled back at the end.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn sha256_compress_blocks(state: &mut [u32; 8], bytes: &[u8]) {
        debug_assert!(bytes.len().is_multiple_of(64));
        let word = |i: usize| state[i] as i32;
        let dcba = _mm_set_epi32(word(3), word(2), word(1), word(0));
        let hgfe = _mm_set_epi32(word(7), word(6), word(5), word(4));
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
        // Big-endian message words → little-endian lanes.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        for block in bytes.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // m[g % 4] holds message words 4g..4g+4 while round group g runs.
            let mut m = [_mm_setzero_si128(); 4];
            for g in 0..16 {
                if g < 4 {
                    let quad: &[u8; 16] = block[g * 16..g * 16 + 16].try_into().expect("16 bytes");
                    m[g] = _mm_shuffle_epi8(load(quad), byte_swap);
                }
                let cur = m[g % 4];
                let k = _mm_set_epi32(
                    K[4 * g + 3] as i32,
                    K[4 * g + 2] as i32,
                    K[4 * g + 1] as i32,
                    K[4 * g] as i32,
                );
                let wk = _mm_add_epi32(cur, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                if (3..15).contains(&g) {
                    // Finish the schedule for group g + 1: add w[t-7], then
                    // the σ1 half.
                    let w7 = _mm_alignr_epi8::<4>(cur, m[(g + 3) % 4]);
                    let next = (g + 1) % 4;
                    m[next] = _mm_sha256msg2_epu32(_mm_add_epi32(m[next], w7), cur);
                }
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                if (1..13).contains(&g) {
                    // Start the schedule for group g + 3: the σ0 half.
                    let prev = (g + 3) % 4;
                    m[prev] = _mm_sha256msg1_epu32(m[prev], cur);
                }
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        state[0] = _mm_extract_epi32::<0>(dcba) as u32;
        state[1] = _mm_extract_epi32::<1>(dcba) as u32;
        state[2] = _mm_extract_epi32::<2>(dcba) as u32;
        state[3] = _mm_extract_epi32::<3>(dcba) as u32;
        state[4] = _mm_extract_epi32::<0>(hgfe) as u32;
        state[5] = _mm_extract_epi32::<1>(hgfe) as u32;
        state[6] = _mm_extract_epi32::<2>(hgfe) as u32;
        state[7] = _mm_extract_epi32::<3>(hgfe) as u32;
    }
}
