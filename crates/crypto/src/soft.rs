//! The portable kernels: T-table AES-CTR and scalar SHA-256.
//!
//! These run wherever the hardware back-end (`hw`) does not — a CPU without
//! AES-NI / SHA-NI, and every target other than x86_64 — and they are the
//! oracle the hardware kernels are differentially tested against, which is
//! why they are reachable (hidden from the docs) from tests and benches
//! outside the crate. They are not a switch: nothing in the crate's API
//! selects them; [`crate::backend`] reports which path a process runs.

use crate::aes::Aes128;
use crate::sha256::K;
use crate::Nonce;

/// The counter block for block index `ctr`: the nonce with its last 32 bits
/// replaced by the big-endian index.
pub(crate) fn counter_block(nonce: &Nonce, ctr: u32) -> [u8; 16] {
    let mut block = *nonce;
    block[12..16].copy_from_slice(&ctr.to_be_bytes());
    block
}

/// XOR the CTR keystream of `round_keys`/`nonce`, from counter block
/// `start_block`, over `src` into `dst` — or over `dst` in place when `src`
/// is `None`. `src`, when given, must be as long as `dst`.
///
/// Four counter blocks are expanded into one 64-byte keystream batch by
/// [`Aes128::encrypt4`] (lane-parallel table rounds) and consumed with
/// whole-word XORs; a tail under 64 bytes goes block by block. The src→dst
/// form copies each 64 bytes across just before XORing them in place.
pub fn ctr_xor(
    round_keys: &Aes128,
    nonce: &Nonce,
    start_block: u32,
    src: Option<&[u8]>,
    dst: &mut [u8],
) {
    for (i, chunk) in dst.chunks_mut(64).enumerate() {
        if let Some(src) = src {
            chunk.copy_from_slice(&src[i * 64..i * 64 + chunk.len()]);
        }
        let ctr = start_block.wrapping_add(4 * i as u32);
        if chunk.len() == 64 {
            let mut ks = [0u8; 64];
            for (lane, block) in ks.chunks_exact_mut(16).enumerate() {
                block.copy_from_slice(&counter_block(nonce, ctr.wrapping_add(lane as u32)));
            }
            round_keys.encrypt4(&mut ks);
            for (b, k) in chunk.chunks_exact_mut(8).zip(ks.chunks_exact(8)) {
                let word = u64::from_ne_bytes(b.try_into().unwrap())
                    ^ u64::from_ne_bytes(k.try_into().unwrap());
                b.copy_from_slice(&word.to_ne_bytes());
            }
        } else {
            for (lane, block) in chunk.chunks_mut(16).enumerate() {
                let mut ks = counter_block(nonce, ctr.wrapping_add(lane as u32));
                round_keys.encrypt_block_soft(&mut ks);
                for (b, k) in block.iter_mut().zip(ks) {
                    *b ^= k;
                }
            }
        }
    }
}

/// Run the SHA-256 compression function (FIPS 180-4 §6.2.2) over every
/// 64-byte block of `bytes`, whose length must be a multiple of 64.
pub fn sha256_compress_blocks(state: &mut [u32; 8], bytes: &[u8]) {
    debug_assert!(bytes.len().is_multiple_of(64));
    for block in bytes.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (w, word) in w.iter_mut().zip(block.chunks_exact(4)) {
            *w = u32::from_be_bytes(word.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 of the concatenation of `parts` on the portable kernel.
/// An oracle, not a hasher: it pads a copy of the whole message and
/// compresses it in one call, sharing nothing with [`crate::Sha256`]'s
/// buffering.
pub fn sha256(parts: &[&[u8]]) -> [u8; 32] {
    let mut message = parts.concat();
    let bit_len = (message.len() as u64).wrapping_mul(8);
    message.push(0x80);
    message.resize((message.len() + 8).next_multiple_of(64) - 8, 0);
    message.extend_from_slice(&bit_len.to_be_bytes());
    let mut state = crate::sha256::IV;
    sha256_compress_blocks(&mut state, &message);
    crate::sha256::digest_bytes(&state)
}

/// `HMAC-SHA-256(key, concat(parts))` (RFC 2104) over [`sha256`]: the oracle
/// for [`crate::Hmac`] and everything signed through it.
pub fn hmac_sha256(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(&sha256(&[key]));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let ipad = key_block.map(|b| b ^ 0x36);
    let opad = key_block.map(|b| b ^ 0x5c);
    let mut inner: Vec<&[u8]> = vec![&ipad];
    inner.extend_from_slice(parts);
    sha256(&[&opad, &sha256(&inner)])
}
