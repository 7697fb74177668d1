//! Criterion benchmarks for the crypto substrate on the data path:
//! AES-128-CTR (ingress decryption / egress encryption), SHA-256 and
//! HMAC-SHA-256 (egress signing and audit-segment authentication) — and,
//! side by side, the active back-end (`sbt_crypto::backend()`, hardware
//! where the CPU has AES-NI / SHA-NI) against the portable kernels it falls
//! back to.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sbt_crypto::{hmac_sha256, sha256, soft, Aes128, AesCtr, SigningKey};

fn bench_aes_ctr(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes128_ctr");
    group.sample_size(10);
    for &size in &[64 * 1024usize, 1024 * 1024] {
        let data = vec![0xA5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("encrypt_{}kb", size / 1024), |b| {
            let ctr = AesCtr::new(&[7u8; 16], &[9u8; 16]);
            b.iter(|| ctr.encrypt(&data));
        });
    }
    group.finish();
}

fn bench_hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashes");
    group.sample_size(10);
    let data = vec![0x5Au8; 256 * 1024];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256_256kb", |b| b.iter(|| sha256(&data)));
    group.bench_function("hmac_sha256_256kb", |b| b.iter(|| hmac_sha256(b"key", &data)));
    group.bench_function("sign_and_verify_256kb", |b| {
        let key = SigningKey::new(b"edge-cloud-key");
        b.iter(|| {
            let sig = key.sign(&data);
            assert!(key.verify(&data, &sig));
        })
    });
    group.finish();
}

/// CTR and HMAC on the active back-end and on the portable kernels, at a
/// short, a medium and a long message each (per-call cost shows at the
/// short end, per-byte cost at the long end).
fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("backends[{}]", sbt_crypto::backend()));
    group.sample_size(10);
    let (key, nonce) = ([7u8; 16], [9u8; 16]);
    for &size in &[4 * 1024usize, 64 * 1024, 1024 * 1024] {
        let mut data = vec![0xA5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("ctr_active_{}kb", size / 1024), |b| {
            let ctr = AesCtr::new(&key, &nonce);
            b.iter(|| ctr.apply_keystream_at(&mut data, 0));
        });
        group.bench_function(format!("ctr_portable_{}kb", size / 1024), |b| {
            let round_keys = Aes128::new(&key);
            b.iter(|| soft::ctr_xor(&round_keys, &nonce, 0, None, &mut data));
        });
    }
    for &size in &[64usize, 4 * 1024, 256 * 1024] {
        let data = vec![0x5Au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("hmac_active_{size}b"), |b| {
            let signing = SigningKey::new(b"edge-cloud-key");
            b.iter(|| signing.sign(&data));
        });
        group.bench_function(format!("hmac_portable_{size}b"), |b| {
            b.iter(|| soft::hmac_sha256(b"edge-cloud-key", &[&data]));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_aes_ctr, bench_hashes, bench_backends);
criterion_main!(benches);
