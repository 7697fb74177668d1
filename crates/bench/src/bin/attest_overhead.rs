//! §9.2 attestation overhead: audit-record generation rate on the edge,
//! record-generation cost, compression CPU share, and the cloud verifier's
//! replay rate (the paper measures 300–400 records/s on the edge, a few
//! hundred cycles per record, 0.2% CPU for compression, and ~57 K records/s
//! replayed per verifier core).
//!
//! The compression share times what the data plane does: `ColumnarEncoder`
//! appends every record and seals a segment every `AUDIT_SEGMENT_RECORDS`
//! (256) records.
//!
//! Run with `cargo run --release -p sbt_bench --bin attest_overhead`.

use sbt_attest::record::AuditRecord;
use sbt_attest::{decompress_records, ColumnarEncoder, Verifier};
use sbt_bench::{best_secs, drive, print_table, BenchId, RunScale};
use sbt_dataplane::AUDIT_SEGMENT_RECORDS;
use sbt_engine::{Engine, EngineConfig, EngineVariant, StreamSide};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct AttestRow {
    bench: String,
    records_per_stream_sec: f64,
    compression_cpu_share_pct: f64,
    verifier_records_per_sec: f64,
    verification_correct: bool,
}

fn run(bench: BenchId, scale: RunScale) -> AttestRow {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::Sbt, 8),
        bench.pipeline(scale.batch_events),
    );
    let chunks = bench.stream(scale.windows, scale.events_per_window, 42);
    let start = Instant::now();
    drive(&engine, chunks, EngineVariant::Sbt, scale.batch_events, StreamSide::Left);
    let edge_elapsed = start.elapsed();

    let segments = engine.drain_audit_segments();
    let records: Vec<AuditRecord> = segments
        .iter()
        .flat_map(|s| decompress_records(&s.compressed).expect("segment decodes"))
        .collect();

    // Compression CPU share: the encoder's appends and per-segment seals
    // over the run's records, relative to the whole edge run.
    let mut encoder = ColumnarEncoder::with_capacity(AUDIT_SEGMENT_RECORDS);
    let mut sealed = Vec::new();
    let compress_secs = best_secs(10, || {
        for chunk in records.chunks(AUDIT_SEGMENT_RECORDS) {
            for r in chunk {
                encoder.append(r);
            }
            sealed.clear();
            encoder.seal_into(&mut sealed);
            std::hint::black_box(&sealed);
        }
    });

    // Verifier replay rate.
    let verifier = Verifier::new(engine.pipeline().spec());
    let v_start = Instant::now();
    let report = verifier.replay(&records);
    let verify_time = v_start.elapsed().as_secs_f64();

    AttestRow {
        bench: bench.name().to_string(),
        records_per_stream_sec: records.len() as f64 / scale.windows as f64,
        compression_cpu_share_pct: 100.0 * compress_secs / edge_elapsed.as_secs_f64().max(1e-9),
        verifier_records_per_sec: records.len() as f64 / verify_time.max(1e-9),
        verification_correct: report.is_correct(),
    }
}

fn main() {
    let scale = RunScale::from_env();
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for bench in [BenchId::WinSum, BenchId::Power, BenchId::TopK] {
        let row = run(bench, scale);
        table.push(vec![
            row.bench.clone(),
            format!("{:.0}", row.records_per_stream_sec),
            format!("{:.2}%", row.compression_cpu_share_pct),
            format!("{:.0}", row.verifier_records_per_sec),
            row.verification_correct.to_string(),
        ]);
        rows.push(row);
    }
    print_table(
        "Attestation overhead (§9.2)",
        &[
            "benchmark",
            "audit records / stream-second",
            "compression CPU share",
            "verifier replay records/s",
            "verifies correct",
        ],
        &table,
    );
    println!(
        "\nExpectation from the paper: 300-400 records/s generated, compression costs ~0.2% CPU,\n\
         and a single verifier core replays ~57K records/s (enough for ~500 edge engines)."
    );
    sbt_bench::dump_json("attest_overhead", &rows);
}
