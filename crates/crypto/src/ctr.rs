//! AES-128 CTR mode.
//!
//! CTR turns the block cipher into a stream cipher: encryption and decryption
//! are the same keystream XOR, which is what the data plane uses for both
//! ingress decryption and egress encryption. The 128-bit counter block is the
//! nonce with its last 32 bits replaced by a big-endian block counter.

use crate::aes::Aes128;
use crate::{hw, soft, Key128, Nonce};

/// AES-128-CTR stream cipher context.
pub struct AesCtr {
    cipher: Aes128,
    nonce: Nonce,
}

impl AesCtr {
    /// Create a CTR context from a key and a per-stream nonce.
    pub fn new(key: &Key128, nonce: &Nonce) -> Self {
        AesCtr { cipher: Aes128::new(key), nonce: *nonce }
    }

    /// The one place CTR picks its kernel: AES-NI, eight counter blocks in
    /// flight, where the CPU has it; otherwise the portable T-table kernel.
    /// `src = None` is the in-place form.
    fn xor_keystream(&self, start_block: u32, src: Option<&[u8]>, dst: &mut [u8]) {
        if !hw::ctr_xor(self.cipher.round_keys(), &self.nonce, start_block, src, dst) {
            soft::ctr_xor(&self.cipher, &self.nonce, start_block, src, dst);
        }
    }

    /// XOR `data` with the keystream starting at block `start_block`,
    /// in place. Applying the same call twice restores the original data.
    ///
    /// This is the TEE boundary's hot loop: every ingress decrypt and egress
    /// encrypt runs through it or through
    /// [`apply_keystream_into`](AesCtr::apply_keystream_into).
    pub fn apply_keystream_at(&self, data: &mut [u8], start_block: u32) {
        self.xor_keystream(start_block, None, data);
    }

    /// XOR `src` with the keystream starting at block `start_block`, writing
    /// the result into `dst` without touching `src`. The two slices must
    /// have the same length.
    ///
    /// This is the zero-copy ingest primitive: the data plane reserves the
    /// uArray destination first and decrypts the ciphertext straight into it,
    /// so no staging buffer ever holds the plaintext.
    pub fn apply_keystream_into(&self, src: &[u8], dst: &mut [u8], start_block: u32) {
        assert_eq!(src.len(), dst.len(), "keystream source/destination length mismatch");
        self.xor_keystream(start_block, Some(src), dst);
    }

    /// The unbatched reference implementation: one counter block expanded by
    /// the byte-wise portable cipher and XORed at a time, byte by byte. Kept
    /// as the oracle of the batched kernels and so the `vectorization`
    /// harness can quote their win; the data path never calls this.
    pub fn apply_keystream_scalar_at(&self, data: &mut [u8], start_block: u32) {
        let mut ctr = start_block;
        for chunk in data.chunks_mut(16) {
            let mut ks = soft::counter_block(&self.nonce, ctr);
            self.cipher.encrypt_block_soft(&mut ks);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= *k;
            }
            ctr = ctr.wrapping_add(1);
        }
    }

    /// XOR `data` with the keystream starting at block 0, in place.
    pub fn apply_keystream(&self, data: &mut [u8]) {
        self.apply_keystream_at(data, 0);
    }

    /// The keystream block index covering `byte_offset` of a stream that
    /// began at `start_block`. CTR counters wrap modulo 2³², matching the
    /// source side's counter arithmetic. `byte_offset` must be block-aligned
    /// (a mid-block seek has no counter-block representation).
    pub fn block_at(start_block: u32, byte_offset: usize) -> u32 {
        assert!(byte_offset.is_multiple_of(16), "keystream seek offset must be block-aligned");
        start_block.wrapping_add((byte_offset / 16) as u32)
    }

    /// Position a streaming cursor at `block`: the cursor's next keystream
    /// byte is byte 0 of that counter block, exactly as if the stream had
    /// been consumed up to there. This is what makes CTR splittable — every
    /// sub-range of a payload can be decrypted independently by seeking its
    /// own cursor to [`block_at`](AesCtr::block_at)`(start, offset)`.
    pub fn seek_to_block(&self, block: u32) -> AesCtrCursor<'_> {
        AesCtrCursor { ctr: self, block }
    }

    /// Encrypt a buffer, returning a new vector.
    pub fn encrypt(&self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply_keystream(&mut out);
        out
    }

    /// Decrypt a buffer, returning a new vector (identical to [`encrypt`]
    /// because CTR is an XOR stream, provided for readability at call sites).
    ///
    /// [`encrypt`]: AesCtr::encrypt
    pub fn decrypt(&self, data: &[u8]) -> Vec<u8> {
        self.encrypt(data)
    }
}

/// A keystream cursor created by [`AesCtr::seek_to_block`]: applies the
/// keystream to successive windows, advancing its counter block as it goes.
///
/// Each application advances the cursor by the number of *whole* blocks the
/// window consumed, rounded up — so after applying a window whose length is
/// not a multiple of 16 the cursor sits on the next block boundary. That is
/// the discipline streaming consumers already follow (only the final window
/// of a stream may be partial), and it keeps a sequence of block-aligned
/// window applications byte-identical to one contiguous application.
pub struct AesCtrCursor<'c> {
    ctr: &'c AesCtr,
    block: u32,
}

impl AesCtrCursor<'_> {
    /// The counter block the next keystream byte comes from.
    pub fn block(&self) -> u32 {
        self.block
    }

    /// XOR `src` with the keystream at the cursor, writing into `dst`
    /// (same contract as [`AesCtr::apply_keystream_into`]), then advance.
    pub fn apply_into(&mut self, src: &[u8], dst: &mut [u8]) {
        self.ctr.apply_keystream_into(src, dst, self.block);
        self.block = self.block.wrapping_add(src.len().div_ceil(16) as u32);
    }

    /// XOR `data` with the keystream at the cursor in place (same contract
    /// as [`AesCtr::apply_keystream_at`]), then advance.
    pub fn apply_in_place(&mut self, data: &mut [u8]) {
        self.ctr.apply_keystream_at(data, self.block);
        self.block = self.block.wrapping_add(data.len().div_ceil(16) as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, first block.
    #[test]
    fn nist_ctr_vector_first_block() {
        let key: Key128 = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        // The NIST vector uses the full 16-byte initial counter block below;
        // our nonce layout overwrites the last 4 bytes with the block index,
        // so set those last 4 bytes via start_block instead.
        let nonce: Nonce = [
            0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0x00, 0x00,
            0x00, 0x00,
        ];
        let ctr = AesCtr::new(&key, &nonce);
        let mut data = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        // Initial counter in the NIST vector ends with fcfdfeff.
        ctr.apply_keystream_at(&mut data, 0xfcfdfeff);
        let expected = [
            0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26, 0x1b, 0xef, 0x68, 0x64, 0x99, 0x0d,
            0xb6, 0xce,
        ];
        assert_eq!(data, expected);
    }

    #[test]
    fn round_trip_restores_plaintext() {
        let ctr = AesCtr::new(&[9u8; 16], &[3u8; 16]);
        let plain: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let enc = ctr.encrypt(&plain);
        assert_ne!(enc, plain);
        assert_eq!(ctr.decrypt(&enc), plain);
    }

    #[test]
    fn different_nonces_yield_different_ciphertexts() {
        let plain = vec![0u8; 64];
        let a = AesCtr::new(&[1u8; 16], &[1u8; 16]).encrypt(&plain);
        let b = AesCtr::new(&[1u8; 16], &[2u8; 16]).encrypt(&plain);
        assert_ne!(a, b);
    }

    #[test]
    fn partial_final_block_is_handled() {
        let ctr = AesCtr::new(&[5u8; 16], &[6u8; 16]);
        let plain = vec![0xAB; 21]; // not a multiple of 16
        let enc = ctr.encrypt(&plain);
        assert_eq!(enc.len(), 21);
        assert_eq!(ctr.decrypt(&enc), plain);
    }

    /// Both kernels, called directly: the portable one always, the hardware
    /// one wherever this runner has it.
    type Kernel = fn(&AesCtr, u32, Option<&[u8]>, &mut [u8]) -> bool;
    const KERNELS: [(&str, Kernel); 2] = [
        ("portable", |c, start, src, dst| {
            soft::ctr_xor(&c.cipher, &c.nonce, start, src, dst);
            true
        }),
        ("hardware", |c, start, src, dst| {
            hw::ctr_xor(c.cipher.round_keys(), &c.nonce, start, src, dst)
        }),
    ];

    #[test]
    fn each_kernel_matches_the_scalar_reference_at_every_length() {
        let ctr = AesCtr::new(&[0x11u8; 16], &[0x22u8; 16]);
        // Cover: empty, sub-block, the 4-block (portable) and 8-block
        // (hardware) strides with and without tails, and counters that wrap
        // inside a stride.
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 100, 127, 128, 129, 255, 1000, 4096] {
            for start in [0u32, 1, 0xFFFF_FFF8, 0xFFFF_FFFB, 0xFFFF_FFFE, u32::MAX] {
                let plain: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let mut slow = plain.clone();
                ctr.apply_keystream_scalar_at(&mut slow, start);
                for (name, kernel) in KERNELS {
                    let mut in_place = plain.clone();
                    if !kernel(&ctr, start, None, &mut in_place) {
                        assert_eq!(in_place, plain, "an absent kernel must not touch its output");
                        continue;
                    }
                    assert_eq!(in_place, slow, "{name} in place, len {len} start {start:#x}");
                    let mut into = vec![0u8; len];
                    kernel(&ctr, start, Some(&plain), &mut into);
                    assert_eq!(into, slow, "{name} into, len {len} start {start:#x}");
                }
            }
        }
    }

    #[test]
    fn keystream_into_matches_in_place_at_every_length() {
        let ctr = AesCtr::new(&[0x11u8; 16], &[0x22u8; 16]);
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 100, 128, 1000, 4096] {
            for start in [0u32, 1, 0xFFFF_FFFE] {
                let src: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let mut in_place = src.clone();
                ctr.apply_keystream_at(&mut in_place, start);
                let mut out = vec![0u8; len];
                ctr.apply_keystream_into(&src, &mut out, start);
                assert_eq!(out, in_place, "len {len} start {start}");
            }
        }
    }

    #[test]
    fn keystream_into_leaves_source_untouched() {
        let ctr = AesCtr::new(&[7u8; 16], &[8u8; 16]);
        let src: Vec<u8> = (0..200u32).map(|i| (i % 256) as u8).collect();
        let snapshot = src.clone();
        let mut dst = vec![0u8; src.len()];
        ctr.apply_keystream_into(&src, &mut dst, 5);
        assert_eq!(src, snapshot);
        // Round trip: decrypting the output restores the source.
        let mut back = vec![0u8; dst.len()];
        ctr.apply_keystream_into(&dst, &mut back, 5);
        assert_eq!(back, src);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn keystream_into_rejects_mismatched_lengths() {
        let ctr = AesCtr::new(&[1u8; 16], &[2u8; 16]);
        let src = [0u8; 16];
        let mut dst = [0u8; 8];
        ctr.apply_keystream_into(&src, &mut dst, 0);
    }

    #[test]
    fn seeked_cursor_windows_match_one_contiguous_application() {
        // The seekable-keystream property the egress seal lanes rely on:
        // splitting a stream at block-aligned boundaries and decrypting each
        // sub-range through its own seeked cursor is byte-identical to one
        // contiguous pass.
        let ctr = AesCtr::new(&[0x4Au8; 16], &[0x5Bu8; 16]);
        for (len, window) in [(4096usize, 96usize), (1000, 48), (4080, 4080), (337, 64)] {
            for start in [0u32, 7, 0xFFFF_FFF0] {
                let src: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
                let mut reference = vec![0u8; len];
                ctr.apply_keystream_into(&src, &mut reference, start);
                // Stream the same bytes through window-sized cursor steps,
                // restarting a fresh cursor at every window via block_at.
                let mut streamed = vec![0u8; len];
                for (i, (s, d)) in src.chunks(window).zip(streamed.chunks_mut(window)).enumerate() {
                    let mut cursor = ctr.seek_to_block(AesCtr::block_at(start, i * window));
                    cursor.apply_into(s, d);
                }
                assert_eq!(streamed, reference, "len {len} window {window} start {start}");
            }
        }
    }

    #[test]
    fn cursor_advances_across_windows_and_partial_tails() {
        let ctr = AesCtr::new(&[0x4Au8; 16], &[0x5Bu8; 16]);
        let src: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
        let mut reference = vec![0u8; 200];
        ctr.apply_keystream_into(&src, &mut reference, 3);
        // One cursor consuming successive block-aligned windows, ending with
        // a partial tail (200 = 64 + 128 + 8).
        let mut cursor = ctr.seek_to_block(3);
        assert_eq!(cursor.block(), 3);
        let mut out = vec![0u8; 200];
        cursor.apply_into(&src[..64], &mut out[..64]);
        assert_eq!(cursor.block(), 7);
        cursor.apply_into(&src[64..192], &mut out[64..192]);
        assert_eq!(cursor.block(), 15);
        cursor.apply_into(&src[192..], &mut out[192..]);
        // Partial tail (8 bytes) still advances a whole block.
        assert_eq!(cursor.block(), 16);
        assert_eq!(out, reference);
        // And the in-place variant round-trips the same bytes.
        let mut back = out.clone();
        let mut cursor = ctr.seek_to_block(3);
        cursor.apply_in_place(&mut back);
        assert_eq!(back, src);
    }

    #[test]
    fn block_at_wraps_like_the_counter() {
        assert_eq!(AesCtr::block_at(0, 0), 0);
        assert_eq!(AesCtr::block_at(5, 160), 15);
        // The counter wraps modulo 2^32, as the source side's does.
        assert_eq!(AesCtr::block_at(u32::MAX, 32), 1);
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn block_at_rejects_mid_block_offsets() {
        AesCtr::block_at(0, 8);
    }

    #[test]
    fn keystream_blocks_are_position_dependent() {
        let ctr = AesCtr::new(&[5u8; 16], &[6u8; 16]);
        let mut a = vec![0u8; 16];
        let mut b = vec![0u8; 16];
        ctr.apply_keystream_at(&mut a, 0);
        ctr.apply_keystream_at(&mut b, 1);
        assert_ne!(a, b);
    }
}
