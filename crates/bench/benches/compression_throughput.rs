//! Audit-log compression throughput: MB/s of the gzip-like LZ77+Huffman
//! baseline (encode and decode) over realistic audit-record row bytes, with
//! the domain-specific columnar codec (`ColumnarEncoder`, format v4)
//! alongside. Columnar entries run at the data plane's production segment
//! granularity (`AUDIT_SEGMENT_RECORDS`), which is the rate the ingest
//! path actually experiences; a whole-stream entry is kept for the
//! large-batch comparison.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sbt_attest::{decompress_records, ColumnarEncoder};
use sbt_baselines::lz77;
use sbt_bench::synthetic_audit_records;
use sbt_dataplane::AUDIT_SEGMENT_RECORDS;

fn bench_compression_throughput(c: &mut Criterion) {
    let records = synthetic_audit_records(50, 32);
    let mut rows = Vec::new();
    for r in &records {
        r.to_row_bytes(&mut rows);
    }
    let raw_bytes = rows.len() as u64;

    let mut group = c.benchmark_group("audit_compression");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(raw_bytes));

    // The gzip-like LZ77+Huffman baseline, encode and decode.
    group.bench_function("lz77_huffman_encode", |b| b.iter(|| lz77::compress(&rows)));
    let lz = lz77::compress(&rows);
    group.bench_function("lz77_huffman_decode", |b| {
        b.iter(|| lz77::decompress(&lz).expect("round-trips"))
    });

    // The columnar encoder at production segment granularity, reused across
    // seals as the audit log uses it.
    let mut encoder = ColumnarEncoder::with_capacity(AUDIT_SEGMENT_RECORDS);
    let mut out = Vec::new();
    group.bench_function("columnar_encode", |b| {
        b.iter(|| {
            for chunk in records.chunks(AUDIT_SEGMENT_RECORDS) {
                for r in chunk {
                    encoder.append(r);
                }
                out.clear();
                encoder.seal_into(&mut out);
                std::hint::black_box(&out);
            }
        })
    });
    let segments: Vec<Vec<u8>> = records
        .chunks(AUDIT_SEGMENT_RECORDS)
        .map(|chunk| {
            for r in chunk {
                encoder.append(r);
            }
            encoder.seal()
        })
        .collect();
    group.bench_function("columnar_decode", |b| {
        b.iter(|| {
            for seg in &segments {
                std::hint::black_box(decompress_records(seg).expect("round-trips"));
            }
        })
    });

    // Whole-stream single segment for the large-batch comparison.
    group.bench_function("columnar_encode_onebatch", |b| {
        b.iter(|| {
            for r in &records {
                encoder.append(r);
            }
            out.clear();
            encoder.seal_into(&mut out);
            std::hint::black_box(&out);
        })
    });
    group.finish();

    let columnar: usize = segments.iter().map(Vec::len).sum();
    println!(
        "audit_compression: raw {} B, lz77+huffman {} B ({:.1}x), columnar {} B ({:.1}x) \
         [{}-record segments]",
        raw_bytes,
        lz.len(),
        raw_bytes as f64 / lz.len().max(1) as f64,
        columnar,
        raw_bytes as f64 / columnar.max(1) as f64,
        AUDIT_SEGMENT_RECORDS,
    );
}

criterion_group!(benches, bench_compression_throughput);
criterion_main!(benches);
