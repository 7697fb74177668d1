//! `active == portable`: differential properties of `sbt_crypto`'s two
//! back-ends.
//!
//! "Active" is the public API — AES-NI and SHA-NI kernels on a CPU that has
//! them (`sbt_crypto::backend()` says which ran), the portable kernels
//! otherwise. "Portable" is `sbt_crypto::soft`, the T-table / scalar
//! kernels and the HMAC composed from them. Every byte the system seals,
//! signs or decrypts goes through one of the two, so equality here is what
//! makes a ciphertext, signature, snapshot or audit trail produced on one
//! back-end valid on the other.
//!
//! (These live in the root package because `sbt_crypto` itself has no
//! dependencies, dev-dependencies included.)

use proptest::collection::vec;
use proptest::prelude::*;
use sbt_crypto::{soft, Aes128, AesCtr, Hmac, Sha256, SigningKey};

fn block(bytes: &[u8]) -> [u8; 16] {
    bytes.try_into().expect("16 bytes")
}

/// Counter starts: anywhere, and biased onto the wrap (a hardware stride of
/// eight blocks starting in `0xffff_fff8..=0xffff_ffff` wraps inside it).
fn start_block() -> impl Strategy<Value = u32> {
    prop_oneof![2 => any::<u32>(), 2 => 0xffff_fff8u32..=0xffff_ffff, 1 => 0u32..16]
}

/// Feed `data` to `sink` cut at `cuts` (each taken modulo what is left).
fn feed_split(data: &[u8], cuts: &[usize], mut sink: impl FnMut(&[u8])) {
    let mut rest = data;
    for &cut in cuts {
        let (head, tail) = rest.split_at(cut % (rest.len() + 1));
        sink(head);
        rest = tail;
    }
    sink(rest);
}

#[test]
fn ctr_agrees_at_every_length_through_the_wrap() {
    // Every length 0..=4096 — every residue mod 16 (partial block), mod 64
    // (portable stride) and mod 128 (hardware stride) — from starts that put
    // the 2³² wrap at every position inside a stride.
    let (key, nonce) = ([0x3Cu8; 16], [0xA7u8; 16]);
    let ctr = AesCtr::new(&key, &nonce);
    let round_keys = Aes128::new(&key);
    let data: Vec<u8> = (0..4096u32).map(|i| (i * 89 % 251) as u8).collect();
    for len in 0..=data.len() {
        let start = 0xffff_fff0u32.wrapping_add(len as u32 % 24);
        let mut expected = data[..len].to_vec();
        soft::ctr_xor(&round_keys, &nonce, start, None, &mut expected);
        let mut in_place = data[..len].to_vec();
        ctr.apply_keystream_at(&mut in_place, start);
        assert_eq!(in_place, expected, "in place, len {len} start {start:#x}");
        let mut into = vec![0u8; len];
        ctr.apply_keystream_into(&data[..len], &mut into, start);
        assert_eq!(into, expected, "into, len {len} start {start:#x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn ctr_active_equals_portable_in_place_and_into(
        key in vec(any::<u8>(), 16..17),
        nonce in vec(any::<u8>(), 16..17),
        start in start_block(),
        data in vec(any::<u8>(), 0..4097),
    ) {
        let (key, nonce) = (block(&key), block(&nonce));
        let round_keys = Aes128::new(&key);
        let mut expected = data.clone();
        soft::ctr_xor(&round_keys, &nonce, start, None, &mut expected);
        let mut portable_into = vec![0u8; data.len()];
        soft::ctr_xor(&round_keys, &nonce, start, Some(&data), &mut portable_into);
        prop_assert_eq!(&portable_into, &expected);

        let ctr = AesCtr::new(&key, &nonce);
        let mut in_place = data.clone();
        ctr.apply_keystream_at(&mut in_place, start);
        prop_assert_eq!(&in_place, &expected);
        let mut into = vec![0u8; data.len()];
        ctr.apply_keystream_into(&data, &mut into, start);
        prop_assert_eq!(&into, &expected);
        // And it is an involution: the same call decrypts.
        ctr.apply_keystream_at(&mut in_place, start);
        prop_assert_eq!(in_place, data);
    }

    #[test]
    fn cursor_over_block_aligned_splits_equals_one_contiguous_call(
        key in vec(any::<u8>(), 16..17),
        nonce in vec(any::<u8>(), 16..17),
        start in start_block(),
        data in vec(any::<u8>(), 0..4097),
        pieces in vec(0usize..40, 0..12),
    ) {
        let (key, nonce) = (block(&key), block(&nonce));
        let mut expected = data.clone();
        soft::ctr_xor(&Aes128::new(&key), &nonce, start, None, &mut expected);

        let ctr = AesCtr::new(&key, &nonce);
        let mut cursor = ctr.seek_to_block(start);
        let mut out = vec![0u8; data.len()];
        let mut off = 0;
        // Whole-block pieces of arbitrary size, then whatever is left (only
        // the last piece of a stream may be partial).
        for blocks in pieces {
            let n = (blocks * 16).min((data.len() - off) / 16 * 16);
            cursor.apply_into(&data[off..off + n], &mut out[off..off + n]);
            prop_assert_eq!(cursor.block(), AesCtr::block_at(start, off + n));
            off += n;
        }
        cursor.apply_into(&data[off..], &mut out[off..]);
        prop_assert_eq!(&out, &expected);

        // The in-place cursor walks the same keystream.
        let mut cursor = ctr.seek_to_block(start);
        let (head, tail) = out.split_at_mut(off);
        cursor.apply_in_place(head);
        cursor.apply_in_place(tail);
        prop_assert_eq!(out, data);
    }

    #[test]
    fn sha256_active_equals_portable_under_any_update_split(
        data in vec(any::<u8>(), 0..2049),
        cuts in vec(0usize..300, 0..10),
    ) {
        let mut hasher = Sha256::new();
        feed_split(&data, &cuts, |piece| hasher.update(piece));
        prop_assert_eq!(hasher.finalize(), soft::sha256(&[&data]));
    }

    #[test]
    fn hmac_midstates_cloned_per_message_equal_the_portable_mac(
        key_len in prop_oneof![Just(0usize), Just(20usize), Just(64usize), Just(131usize)],
        key_byte in any::<u8>(),
        messages in vec(vec(any::<u8>(), 0..700), 1..5),
        cuts in vec(0usize..200, 0..6),
    ) {
        let key: Vec<u8> = (0..key_len).map(|i| key_byte.wrapping_add(i as u8)).collect();
        // One keyed state serves every message: the midstates are copied,
        // never consumed.
        let keyed = Hmac::new(&key);
        let signing = SigningKey::new(&key);
        for message in &messages {
            let expected = soft::hmac_sha256(&key, &[message]);
            let mut mac = keyed.clone();
            feed_split(message, &cuts, |piece| mac.update(piece));
            prop_assert_eq!(mac.finalize(), expected);
            let mut signer = signing.signer();
            feed_split(message, &cuts, |piece| signer.update(piece));
            prop_assert_eq!(signer.finish().0, expected);
        }
    }
}
