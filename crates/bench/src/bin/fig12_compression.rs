//! Figure 12: columnar compression of audit records — raw versus compressed
//! upload bandwidth for WinSum and Power at two input batch sizes (10 K and
//! 100 K events), plus the comparison against a gzip-like general-purpose
//! compressor. The paper reports 5x–6.7x compression, about 1.9x better
//! than gzip.
//!
//! Since the streaming-codec rewrite the figure also reproduces the codec
//! upgrade itself: every row quotes the legacy batch (v1) codec and the
//! streaming (v3) `ColumnarEncoder` side by side — compression ratio and
//! encode throughput at the data plane's 256-record segment granularity —
//! so the ≥2x encode win is part of the reproduced evaluation. Power's
//! per-key average sorts every partition under a consumed-in-parallel
//! hint, so its rows also show what v3's hint words save over v1's
//! verbatim 64-bit ones.
//!
//! Run with `cargo run --release -p sbt-bench --bin fig12_compression`.

use sbt_attest::record::AuditRecord;
use sbt_attest::{compress_records, decompress_records, lz77, ColumnarEncoder};
use sbt_bench::{best_secs, drive, print_table, BenchId, RunScale};
use sbt_engine::{Engine, EngineConfig, EngineVariant, StreamSide};
use serde::Serialize;

/// The data plane's default `audit_flush_threshold`.
const SEGMENT_RECORDS: usize = 256;

#[derive(Serialize)]
struct CompressionRow {
    bench: String,
    batch_events: usize,
    records_per_sec: f64,
    raw_kb_per_sec: f64,
    compressed_kb_per_sec: f64,
    ratio: f64,
    streaming_ratio: f64,
    gzip_like_ratio: f64,
    encode_mb_per_sec_batch: f64,
    encode_mb_per_sec_streaming: f64,
}

fn run(bench: BenchId, batch_events: usize, scale: RunScale) -> CompressionRow {
    let engine =
        Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, 8), bench.pipeline(batch_events));
    let chunks = bench.stream(scale.windows, scale.events_per_window, 42);
    drive(&engine, chunks, EngineVariant::Sbt, batch_events, StreamSide::Left);

    // Decompress the uploaded segments back into the raw record stream so we
    // can compare codecs on identical input.
    let segments = engine.drain_audit_segments();
    let records: Vec<AuditRecord> = segments
        .iter()
        .flat_map(|s| decompress_records(&s.compressed).expect("segments decode"))
        .collect();
    let raw_bytes = AuditRecord::raw_size(&records);

    // Both codec generations at production segment granularity.
    let batch_segments: Vec<Vec<u8>> =
        records.chunks(SEGMENT_RECORDS).map(compress_records).collect();
    let mut encoder = ColumnarEncoder::with_capacity(SEGMENT_RECORDS);
    let streaming_segments: Vec<Vec<u8>> = records
        .chunks(SEGMENT_RECORDS)
        .map(|chunk| {
            for r in chunk {
                encoder.append(r);
            }
            encoder.seal()
        })
        .collect();
    let columnar: usize = batch_segments.iter().map(Vec::len).sum();
    let streaming: usize = streaming_segments.iter().map(Vec::len).sum();

    let batch_secs = best_secs(10, || {
        for chunk in records.chunks(SEGMENT_RECORDS) {
            std::hint::black_box(compress_records(chunk));
        }
    });
    let mut out = Vec::new();
    let streaming_secs = best_secs(10, || {
        for chunk in records.chunks(SEGMENT_RECORDS) {
            for r in chunk {
                encoder.append(r);
            }
            out.clear();
            encoder.seal_into(&mut out);
            std::hint::black_box(&out);
        }
    });

    let mut raw_rows = Vec::new();
    for r in &records {
        r.to_row_bytes(&mut raw_rows);
    }
    let gzip_like = lz77::compress(&raw_rows);

    // The stream covers `windows` seconds of event time; normalize to per
    // second of stream.
    let stream_secs = scale.windows as f64;
    CompressionRow {
        bench: bench.name().to_string(),
        batch_events,
        records_per_sec: records.len() as f64 / stream_secs,
        raw_kb_per_sec: raw_bytes as f64 / 1024.0 / stream_secs,
        compressed_kb_per_sec: streaming as f64 / 1024.0 / stream_secs,
        ratio: raw_bytes as f64 / columnar.max(1) as f64,
        streaming_ratio: raw_bytes as f64 / streaming.max(1) as f64,
        gzip_like_ratio: raw_bytes as f64 / gzip_like.len().max(1) as f64,
        encode_mb_per_sec_batch: raw_bytes as f64 / batch_secs / 1e6,
        encode_mb_per_sec_streaming: raw_bytes as f64 / streaming_secs / 1e6,
    }
}

fn main() {
    // Audit-record rates are per second of stream time, so this harness
    // favours many windows over huge windows: the record stream reaches a
    // steady state and the codec sees enough records to amortize headers.
    let base = RunScale::from_env();
    let scale = RunScale {
        windows: if base.events_per_window >= 1_000_000 { 10 } else { 20 },
        events_per_window: base.events_per_window.min(200_000),
        batch_events: base.batch_events,
    };
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for bench in [BenchId::WinSum, BenchId::Power] {
        for batch in [10_000usize, 100_000] {
            let batch = batch.min(scale.events_per_window);
            let row = run(bench, batch, scale);
            table.push(vec![
                row.bench.clone(),
                format!("{}K", row.batch_events / 1000),
                format!("{:.0}", row.records_per_sec),
                format!("{:.2}", row.raw_kb_per_sec),
                format!("{:.2}", row.compressed_kb_per_sec),
                format!("{:.1}x", row.ratio),
                format!("{:.1}x", row.streaming_ratio),
                format!("{:.1}x", row.gzip_like_ratio),
                format!("{:.0}", row.encode_mb_per_sec_batch),
                format!("{:.0}", row.encode_mb_per_sec_streaming),
            ]);
            rows.push(row);
        }
    }
    print_table(
        "Figure 12 — audit-record compression (per second of stream time; old vs new codec)",
        &[
            "benchmark",
            "batch",
            "records/s",
            "raw KB/s",
            "compressed KB/s",
            "v1 ratio",
            "v3 ratio",
            "gzip-like ratio",
            "v1 enc MB/s",
            "v3 enc MB/s",
        ],
        &table,
    );
    println!(
        "\nExpectation from the paper: 5x-6.7x columnar compression, ~1.9x better than gzip;\n\
         smaller batches and simpler pipelines generate records (and savings) at higher rates.\n\
         The streaming (v3) codec matches or beats the batch (v1) ratio (a tier-1 test pins\n\
         this); its encode speed is the benchmark's attest.append_ns_per_record and\n\
         attest.seal_us_per_segment."
    );
    sbt_bench::dump_json("fig12_compression", &rows);
}
