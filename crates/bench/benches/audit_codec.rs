//! Criterion benchmarks for the audit-record codec (columnar compression,
//! decompression, and the gzip-like baseline) and the verifier's replay rate.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sbt_attest::{decompress_records, ColumnarEncoder, PipelineSpec, Verifier};
use sbt_baselines::lz77;
use sbt_bench::synthetic_audit_records;
use sbt_types::PrimitiveKind;

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("audit_codec");
    group.sample_size(10);
    let records = synthetic_audit_records(100, 10);
    let raw: Vec<u8> = {
        let mut buf = Vec::new();
        for r in &records {
            r.to_row_bytes(&mut buf);
        }
        buf
    };
    group.throughput(Throughput::Elements(records.len() as u64));
    let mut encoder = ColumnarEncoder::with_capacity(records.len());
    let mut out = Vec::new();
    group.bench_function("columnar_compress", |b| {
        b.iter(|| {
            for r in &records {
                encoder.append(r);
            }
            out.clear();
            encoder.seal_into(&mut out);
            std::hint::black_box(&out);
        })
    });
    let compressed = sbt_attest::compress_records_streaming(&records);
    group.bench_function("columnar_decompress", |b| {
        b.iter(|| decompress_records(&compressed).unwrap())
    });
    group.bench_function("gzip_like_compress", |b| b.iter(|| lz77::compress(&raw)));
    group.finish();
}

fn bench_verifier(c: &mut Criterion) {
    let mut group = c.benchmark_group("verifier_replay");
    group.sample_size(10);
    let records = synthetic_audit_records(200, 10);
    let spec =
        PipelineSpec::new("winsum", vec![PrimitiveKind::Sort, PrimitiveKind::SumCnt], 10_000);
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("replay", |b| {
        let verifier = Verifier::new(spec.clone());
        b.iter(|| {
            let report = verifier.replay(&records);
            assert!(report.is_correct());
            report
        })
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_verifier);
criterion_main!(benches);
