//! Figure 12: columnar compression of audit records — raw versus compressed
//! upload bandwidth for WinSum and Power at two input batch sizes (10 K and
//! 100 K events), plus the comparison against a gzip-like general-purpose
//! compressor. The paper reports 5x–6.7x compression, about 1.9x better
//! than gzip.
//!
//! The columnar side is the data plane's own encoder, `ColumnarEncoder`
//! (format v4), sealing at the data plane's 256-record segment
//! granularity; its encode throughput is reported beside the ratio. The
//! gzip-like side is `sbt_baselines::lz77` over the records' raw row bytes,
//! one segment-free stream.
//!
//! The bin checks the paper's claim: it exits non-zero unless the columnar
//! ratio beats the gzip-like one on every row.
//!
//! Run with `cargo run --release -p sbt_bench --bin fig12_compression`.

use sbt_attest::record::AuditRecord;
use sbt_attest::{decompress_records, ColumnarEncoder};
use sbt_baselines::lz77;
use sbt_bench::{best_secs, drive, print_table, BenchId, RunScale};
use sbt_dataplane::AUDIT_SEGMENT_RECORDS;
use sbt_engine::{Engine, EngineConfig, EngineVariant, StreamSide};
use serde::Serialize;

#[derive(Serialize)]
struct CompressionRow {
    bench: String,
    batch_events: usize,
    records_per_sec: f64,
    raw_kb_per_sec: f64,
    compressed_kb_per_sec: f64,
    ratio: f64,
    gzip_like_ratio: f64,
    encode_mb_per_sec: f64,
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

    // The data plane's encoder at production segment granularity.
    let mut encoder = ColumnarEncoder::with_capacity(AUDIT_SEGMENT_RECORDS);
    let mut out = Vec::new();
    let mut columnar = 0usize;
    let encode_secs = best_secs(10, || {
        columnar = 0;
        for chunk in records.chunks(AUDIT_SEGMENT_RECORDS) {
            for r in chunk {
                encoder.append(r);
            }
            out.clear();
            encoder.seal_into(&mut out);
            columnar += out.len();
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
        compressed_kb_per_sec: columnar as f64 / 1024.0 / stream_secs,
        ratio: raw_bytes as f64 / columnar.max(1) as f64,
        gzip_like_ratio: raw_bytes as f64 / gzip_like.len().max(1) as f64,
        encode_mb_per_sec: raw_bytes as f64 / encode_secs / 1e6,
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
                format!("{:.1}x", row.gzip_like_ratio),
                format!("{:.1}x", row.ratio / row.gzip_like_ratio),
                format!("{:.0}", row.encode_mb_per_sec),
            ]);
            rows.push(row);
        }
    }
    print_table(
        "Figure 12 — audit-record compression (per second of stream time; columnar vs gzip-like)",
        &[
            "benchmark",
            "batch",
            "records/s",
            "raw KB/s",
            "compressed KB/s",
            "columnar ratio",
            "gzip-like ratio",
            "columnar / gzip-like",
            "enc MB/s",
        ],
        &table,
    );
    println!(
        "\nExpectation from the paper: 5x-6.7x columnar compression, ~1.9x better than gzip;\n\
         smaller batches and simpler pipelines generate records (and savings) at higher rates.\n\
         The columnar codec is the data plane's v4 encoder; its encode speed is also the\n\
         benchmark's attest.append_ns_per_record and attest.seal_us_per_segment."
    );
    sbt_bench::dump_json("fig12_compression", &rows);
    let behind: Vec<String> = rows
        .iter()
        .filter(|r| r.ratio <= r.gzip_like_ratio)
        .map(|r| format!("{} {}K", r.bench, r.batch_events / 1000))
        .collect();
    if !behind.is_empty() {
        eprintln!("columnar does not beat gzip-like on: {}", behind.join(", "));
        std::process::exit(1);
    }
}
