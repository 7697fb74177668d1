//! Known-answer tests for the crypto substrate against published vectors:
//!
//! - SHA-256: FIPS 180-4 / NIST CAVP example messages,
//! - HMAC-SHA-256: RFC 4231 test cases 1-4, 6, 7,
//! - AES-128: FIPS 197 Appendix C.1 and NIST SP 800-38A F.1.1 (ECB),
//! - AES-128-CTR: NIST SP 800-38A F.5.1 / F.5.2, all four blocks.
//!
//! These pin the implementations bit-for-bit so later optimization passes
//! (vectorized block processing, key-schedule caching, …) cannot silently
//! change behavior.
//!
//! Every vector runs against **both back-ends** on every runner: the public
//! API (AES-NI / SHA-NI where the CPU has them — `sbt_crypto::backend()`
//! says which) and the portable kernels in `sbt_crypto::soft`.

use sbt_crypto::{hmac_sha256, sha256, soft, Aes128, AesCtr, Sha256, SigningKey};

type Sha256Fn = fn(&[u8]) -> [u8; 32];
type HmacFn = fn(&[u8], &[u8]) -> [u8; 32];
type AesFn = fn(&Aes128, [u8; 16]) -> [u8; 16];
type CtrFn = fn(&[u8; 16], &[u8; 16], u32, &mut [u8]);

/// SHA-256 on the active back-end and on the portable kernel.
const SHA256: [(&str, Sha256Fn); 2] =
    [("active", sha256), ("portable", |data| soft::sha256(&[data]))];

/// HMAC-SHA-256 on the active back-end and on the portable kernel.
const HMAC: [(&str, HmacFn); 2] =
    [("active", hmac_sha256), ("portable", |key, data| soft::hmac_sha256(key, &[data]))];

/// AES-128 block encryption on the active back-end and byte-wise portable.
const AES: [(&str, AesFn); 2] = [
    ("active", |cipher, block| cipher.encrypt(block)),
    ("portable", |cipher, mut block| {
        cipher.encrypt_block_soft(&mut block);
        block
    }),
];

/// In-place CTR at `start_block` on the active back-end and on the portable
/// kernel.
const CTR: [(&str, CtrFn); 2] = [
    ("active", |key, nonce, start, data| AesCtr::new(key, nonce).apply_keystream_at(data, start)),
    ("portable", |key, nonce, start, data| {
        soft::ctr_xor(&Aes128::new(key), nonce, start, None, data)
    }),
];

#[test]
fn the_backend_is_reported() {
    // Not an assertion about the runner — a line in the test log saying
    // which kernels "active" meant in this run.
    println!("sbt_crypto backend: {}", sbt_crypto::backend());
}

/// Decode a hex string (whitespace tolerated) into bytes.
fn hex(s: &str) -> Vec<u8> {
    let compact: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    assert!(compact.len().is_multiple_of(2), "odd-length hex literal");
    (0..compact.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&compact[i..i + 2], 16).expect("valid hex"))
        .collect()
}

fn hex16(s: &str) -> [u8; 16] {
    hex(s).try_into().expect("16-byte hex literal")
}

fn hex32(s: &str) -> [u8; 32] {
    hex(s).try_into().expect("32-byte hex literal")
}

// ---------------------------------------------------------------- SHA-256

#[test]
fn sha256_fips_180_4_empty_message() {
    for (backend, sha256) in SHA256 {
        assert_eq!(
            sha256(b""),
            hex32("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            "{backend}"
        );
    }
}

#[test]
fn sha256_fips_180_4_abc() {
    for (backend, sha256) in SHA256 {
        assert_eq!(
            sha256(b"abc"),
            hex32("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            "{backend}"
        );
    }
}

#[test]
fn sha256_fips_180_4_two_block_message() {
    for (backend, sha256) in SHA256 {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            hex32("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
            "{backend}"
        );
    }
}

#[test]
fn sha256_fips_180_4_one_million_a() {
    let data = vec![b'a'; 1_000_000];
    for (backend, sha256) in SHA256 {
        assert_eq!(
            sha256(&data),
            hex32("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
            "{backend}"
        );
    }
}

#[test]
fn sha256_incremental_update_matches_one_shot() {
    // Feed a message through `update` in awkward chunk sizes, crossing the
    // 64-byte block boundary at several offsets.
    let data: Vec<u8> = (0..1013u32).map(|i| (i % 251) as u8).collect();
    for chunk in [1usize, 7, 63, 64, 65, 200] {
        let mut hasher = Sha256::new();
        for part in data.chunks(chunk) {
            hasher.update(part);
        }
        assert_eq!(hasher.finalize(), sha256(&data), "chunk size {chunk}");
    }
}

// ----------------------------------------------------------- HMAC-SHA-256

#[test]
fn hmac_rfc4231_case_1() {
    for (backend, hmac_sha256) in HMAC {
        assert_eq!(
            hmac_sha256(&[0x0b; 20], b"Hi There"),
            hex32("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
            "{backend}"
        );
    }
}

#[test]
fn hmac_rfc4231_case_2() {
    for (backend, hmac_sha256) in HMAC {
        assert_eq!(
            hmac_sha256(b"Jefe", b"what do ya want for nothing?"),
            hex32("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
            "{backend}"
        );
    }
}

#[test]
fn hmac_rfc4231_case_3() {
    for (backend, hmac_sha256) in HMAC {
        assert_eq!(
            hmac_sha256(&[0xaa; 20], &[0xdd; 50]),
            hex32("773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
            "{backend}"
        );
    }
}

#[test]
fn hmac_rfc4231_case_4() {
    for (backend, hmac_sha256) in HMAC {
        assert_eq!(
            hmac_sha256(&hex("0102030405060708090a0b0c0d0e0f10111213141516171819"), &[0xcd; 50]),
            hex32("82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
            "{backend}"
        );
    }
}

#[test]
fn hmac_rfc4231_case_6_key_larger_than_block() {
    for (backend, hmac_sha256) in HMAC {
        assert_eq!(
            hmac_sha256(&[0xaa; 131], b"Test Using Larger Than Block-Size Key - Hash Key First"),
            hex32("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
            "{backend}"
        );
    }
}

#[test]
fn hmac_rfc4231_case_7_key_and_data_larger_than_block() {
    let msg: &[u8] = b"This is a test using a larger than block-size key and a larger \
than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
    for (backend, hmac_sha256) in HMAC {
        assert_eq!(
            hmac_sha256(&[0xaa; 131], msg),
            hex32("9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
            "{backend}"
        );
    }
}

#[test]
fn signing_key_is_plain_hmac_sha256() {
    // Pin SigningKey to the RFC 4231 vector so a future key-derivation change
    // is a loud, deliberate decision rather than a silent drift.
    let key = SigningKey::new(&[0x0b; 20]);
    let sig = key.sign(b"Hi There");
    assert_eq!(sig.0, hex32("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"));
    assert!(key.verify(b"Hi There", &sig));
    assert!(!key.verify(b"Hi there", &sig));
}

// ------------------------------------------------------------- AES-128

#[test]
fn aes128_fips197_appendix_c1() {
    let cipher = Aes128::new(&hex16("000102030405060708090a0b0c0d0e0f"));
    for (backend, encrypt) in AES {
        let out = encrypt(&cipher, hex16("00112233445566778899aabbccddeeff"));
        assert_eq!(out, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"), "{backend}");
    }
}

/// The standard SP 800-38A key and four-block plaintext.
const SP800_38A_KEY: &str = "2b7e151628aed2a6abf7158809cf4f3c";
const SP800_38A_BLOCKS: [&str; 4] = [
    "6bc1bee22e409f96e93d7e117393172a",
    "ae2d8a571e03ac9c9eb76fac45af8e51",
    "30c81c46a35ce411e5fbc1191a0a52ef",
    "f69f2445df4f9b17ad2b417be66c3710",
];

#[test]
fn aes128_sp800_38a_f11_ecb_blocks() {
    let expected = [
        "3ad77bb40d7a3660a89ecaf32466ef97",
        "f5d3d58503b9699de785895a96fdbaaf",
        "43b1cd7f598ece23881b00e3ed030688",
        "7b0c785e27e8ad3f8223207104725dd4",
    ];
    let cipher = Aes128::new(&hex16(SP800_38A_KEY));
    for (backend, encrypt) in AES {
        for (plain, cipher_hex) in SP800_38A_BLOCKS.iter().zip(expected) {
            assert_eq!(encrypt(&cipher, hex16(plain)), hex16(cipher_hex), "{backend}");
        }
    }
}

// ----------------------------------------------------------- AES-128-CTR

/// SP 800-38A F.5 uses the initial counter block f0f1...feff. Our CTR layout
/// keeps the first 12 nonce bytes and replaces the last 4 with the block
/// index, so the vector maps onto nonce=f0..fb|0000 + start_block=fcfdfeff.
const NIST_CTR_NONCE: &str = "f0f1f2f3f4f5f6f7f8f9fafb00000000";
const NIST_CTR_START: u32 = 0xfcfdfeff;

fn nist_ctr() -> (AesCtr, u32) {
    (AesCtr::new(&hex16(SP800_38A_KEY), &hex16(NIST_CTR_NONCE)), NIST_CTR_START)
}

#[test]
fn aes128_ctr_sp800_38a_f51_encrypt_all_blocks() {
    let expected = hex("874d6191b620e3261bef6864990db6ce\
         9806f66b7970fdff8617187bb9fffdff\
         5ae4df3edbd5d35e5b4f09020db03eab\
         1e031dda2fbe03d1792170a0f3009cee");
    for (backend, ctr_xor) in CTR {
        let mut data: Vec<u8> = SP800_38A_BLOCKS.iter().flat_map(|b| hex(b)).collect();
        ctr_xor(&hex16(SP800_38A_KEY), &hex16(NIST_CTR_NONCE), NIST_CTR_START, &mut data);
        assert_eq!(data, expected, "{backend}");
    }
}

#[test]
fn aes128_ctr_sp800_38a_f52_decrypt_all_blocks() {
    let ciphertext = hex("874d6191b620e3261bef6864990db6ce\
         9806f66b7970fdff8617187bb9fffdff\
         5ae4df3edbd5d35e5b4f09020db03eab\
         1e031dda2fbe03d1792170a0f3009cee");
    let plaintext: Vec<u8> = SP800_38A_BLOCKS.iter().flat_map(|b| hex(b)).collect();
    for (backend, ctr_xor) in CTR {
        let mut data = ciphertext.clone();
        ctr_xor(&hex16(SP800_38A_KEY), &hex16(NIST_CTR_NONCE), NIST_CTR_START, &mut data);
        assert_eq!(data, plaintext, "{backend}");
    }
}

#[test]
fn aes128_ctr_keystream_positions_are_independent_of_call_granularity() {
    // Encrypting in one call or block-by-block with explicit positions must
    // agree — this is what lets the data plane decrypt batches out of order.
    let (ctr, start) = nist_ctr();
    let mut whole: Vec<u8> = SP800_38A_BLOCKS.iter().flat_map(|b| hex(b)).collect();
    ctr.apply_keystream_at(&mut whole, start);

    let mut pieces = Vec::new();
    for (i, b) in SP800_38A_BLOCKS.iter().enumerate() {
        let mut block = hex(b);
        ctr.apply_keystream_at(&mut block, start + i as u32);
        pieces.extend_from_slice(&block);
    }
    assert_eq!(whole, pieces);
}
