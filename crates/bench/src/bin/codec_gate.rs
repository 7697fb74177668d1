//! CI gate for the audit-log codec: the streaming (format-v2) columnar
//! encoder must stay ≥ `SBT_CODEC_GATE_MIN`× (default 2×) faster than the
//! recorded legacy baseline — the batch (format-v1) codec re-measured on
//! the same machine, which anchors the gate to hardware-independent ground
//! truth — at an equal-or-better compression ratio, and both payloads must
//! round-trip.
//!
//! The gate measures two segment granularities:
//!
//! * **production** — the data plane's `audit_flush_threshold` default of
//!   256 records, where the streaming encoder's ~2.7× advantage lives and
//!   is gated at `SBT_CODEC_GATE_MIN`;
//! * **large-segment** — 16 K-record segments, formerly the ROADMAP's known
//!   gap (streaming encode was only ~1.1–1.3× v1 there). Entropy-code
//!   recycling across seals, incremental static-table costing at append
//!   time (against flat per-encoder code-length tables, not the shared
//!   lazy statics), and word-at-a-time varint/bitstream writes closed it
//!   to a measured ~1.45× median (1.30× worst case under host contention)
//!   on the reference box; the regime is gated at
//!   `SBT_CODEC_GATE_MIN_LARGE` (default 1.25×, under the measured worst
//!   case with margin) and recorded in the committed `BENCH_codec.json`,
//!   so further work tightens a number, not a guess.
//!
//! Per segment, the legacy codec re-walks the record batch and builds
//! per-column Huffman trees, while the streaming encoder has already
//! columnar-coded every field at append time and only entropy-codes the
//! byte columns against precomputed static tables at seal.
//!
//! Each regime also measures **cloud-side trail verification** over the
//! same stream — authenticate + decompress + stitch a multi-segment signed
//! trail — serially and fanned across an `Executor` pool
//! (`SBT_CODEC_GATE_VERIFY_WORKERS`, default 8 or the host's core count if
//! lower). The parallel verifier must reach `SBT_CODEC_GATE_VERIFY_PAR_MIN`
//! × serial throughput (default 1.0× on multi-core hosts; 0.8× on a single
//! hardware thread, where the gate can only bound orchestration overhead,
//! not demonstrate speedup). Two kinds of row are recorded but not gated,
//! because their ratio compares a path with itself or with the scheduler:
//! a row whose workers outnumber the host's cores (`oversubscribed`), and
//! a row whose trail carries too little payload for the parallel verifier
//! to fan out at all (`fans_out: false`, under two
//! `MIN_VERIFY_SHARD_BYTES` shards — it then *is* the serial verifier).
//!
//! Exits nonzero if:
//! * either codec fails to decode back to the input records (any regime);
//! * either verifier rejects a clean trail, or they disagree (any regime);
//! * the streaming compression ratio drops below the batch ratio;
//! * a regime's streaming encode speedup falls under its threshold;
//! * a regime's parallel-verify speedup falls under its threshold (rows
//!   that are oversubscribed or do not fan out excepted).
//!
//! Besides the verdict it writes `BENCH_codec.json` at the repo root — a
//! committed, machine-readable record of both regimes — plus the usual
//! copy under `target/evaluation/`.
//!
//! Run with `cargo run --release -p sbt_bench --bin codec_gate`.

use sbt_attest::{
    compress_records, decompress_records, verify_tenant_trail, verify_tenant_trail_parallel,
    AuditRecord, ColumnarEncoder, LogSegment, MIN_VERIFY_SHARD_BYTES,
};
use sbt_bench::{best_secs, synthetic_audit_records};
use sbt_crypto::{SigningKey, TenantKeychain};
use sbt_engine::Executor;
use sbt_types::TenantId;
use serde::Serialize;
use std::sync::Arc;

/// Records per segment: the data plane's default `audit_flush_threshold`.
const SEGMENT_RECORDS: usize = 256;
/// The large-segment regime where the streaming encoder's edge narrows.
const LARGE_SEGMENT_RECORDS: usize = 16 * 1024;

/// One (segment size) regime's measurements, serialized to
/// `BENCH_codec.json`.
#[derive(Serialize)]
struct RegimeRow {
    label: &'static str,
    segment_records: usize,
    records: usize,
    raw_kb: f64,
    batch_encode_mbps: f64,
    streaming_encode_mbps: f64,
    encode_speedup: f64,
    batch_decode_mbps: f64,
    streaming_decode_mbps: f64,
    decode_speedup: f64,
    batch_ratio: f64,
    streaming_ratio: f64,
    min_encode_speedup: f64,
    segments: usize,
    verify_serial_mbps: f64,
    verify_parallel_mbps: f64,
    verify_workers: usize,
    /// More verify workers than the host has cores: recorded, not gated.
    oversubscribed: bool,
    /// Whether the parallel verifier splits this trail at all; when it
    /// does not, the row times the serial path twice and is not gated.
    fans_out: bool,
    verify_speedup: f64,
    min_verify_speedup: f64,
}

#[derive(Serialize)]
struct CodecReport {
    generated_by: &'static str,
    regimes: Vec<RegimeRow>,
    pass: bool,
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Round-trip, time and ratio one segment-size regime; exits on a
/// correctness failure, returns the measurements for gating.
fn run_regime(
    label: &'static str,
    records: &[AuditRecord],
    segment_records: usize,
    iters: u32,
    min_encode_speedup: f64,
    verify_workers: usize,
    min_verify_speedup: f64,
) -> RegimeRow {
    let raw_bytes = AuditRecord::raw_size(records) as f64;

    // Correctness first: both formats must round-trip exactly, segment by
    // segment.
    let mut encoder = ColumnarEncoder::with_capacity(segment_records);
    let mut batch_bytes = 0usize;
    let mut streaming_bytes = 0usize;
    for chunk in records.chunks(segment_records) {
        let batch_payload = compress_records(chunk);
        for r in chunk {
            encoder.append(r);
        }
        let streaming_payload = encoder.seal();
        batch_bytes += batch_payload.len();
        streaming_bytes += streaming_payload.len();
        for (name, payload) in
            [("batch(v1)", &batch_payload), ("streaming(v2)", &streaming_payload)]
        {
            match decompress_records(payload) {
                Ok(decoded) if decoded == chunk => {}
                Ok(_) => {
                    eprintln!("codec gate [{label}]: {name} segment decoded to different records");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("codec gate [{label}]: {name} segment failed to decode: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    // Throughput at segment granularity; the streaming encoder is reused
    // across seals exactly as the audit log uses it (buffers warm). Batch
    // and streaming are timed in alternating rounds, keeping each codec's
    // best round: on a busy host the CPU's effective speed drifts even
    // within one process, so timing one codec to completion and then the
    // other can hand the second a faster (or slower) machine. Interleaving
    // lets both codecs sample the same speed neighborhoods, which is what
    // makes the *ratio* stable enough to gate tightly.
    let rounds = 5u32;
    let per_round = iters.div_ceil(rounds);
    let mut batch_secs = f64::INFINITY;
    let mut streaming_secs = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..rounds {
        batch_secs = batch_secs.min(best_secs(per_round, || {
            for chunk in records.chunks(segment_records) {
                std::hint::black_box(compress_records(chunk));
            }
        }));
        streaming_secs = streaming_secs.min(best_secs(per_round, || {
            for chunk in records.chunks(segment_records) {
                for r in chunk {
                    encoder.append(r);
                }
                out.clear();
                encoder.seal_into(&mut out);
                std::hint::black_box(&out);
            }
        }));
    }

    // Decode throughput over the same segments.
    let batch_payloads: Vec<Vec<u8>> =
        records.chunks(segment_records).map(compress_records).collect();
    let streaming_payloads: Vec<Vec<u8>> = records
        .chunks(segment_records)
        .map(|chunk| {
            for r in chunk {
                encoder.append(r);
            }
            encoder.seal()
        })
        .collect();
    let mut decode_batch_secs = f64::INFINITY;
    let mut decode_streaming_secs = f64::INFINITY;
    for _ in 0..rounds {
        decode_batch_secs = decode_batch_secs.min(best_secs(per_round, || {
            for p in &batch_payloads {
                std::hint::black_box(decompress_records(p).expect("decodes"));
            }
        }));
        decode_streaming_secs = decode_streaming_secs.min(best_secs(per_round, || {
            for p in &streaming_payloads {
                std::hint::black_box(decompress_records(p).expect("decodes"));
            }
        }));
    }

    // Cloud-side trail verification over the same stream: sign each
    // streaming segment into a trail, then authenticate + decode + stitch it
    // serially and fanned over an `Executor` pool. Correctness first — both
    // verifiers must accept the trail and return the original records.
    let tenant = TenantId(1);
    let key = SigningKey::new(b"codec-gate-verify");
    let keychain = TenantKeychain::single(tenant.0, key.clone());
    let trail: Arc<Vec<LogSegment>> = Arc::new(
        records
            .chunks(segment_records)
            .zip(&streaming_payloads)
            .enumerate()
            .map(|(seq, (chunk, payload))| {
                LogSegment::new_signed(
                    tenant,
                    0,
                    seq as u64,
                    payload.clone(),
                    AuditRecord::raw_size(chunk),
                    chunk.len(),
                    &key,
                )
            })
            .collect(),
    );
    let pool = Executor::new(verify_workers);
    let serial_records = verify_tenant_trail(&trail, tenant, &keychain);
    let parallel_records = verify_tenant_trail_parallel(&trail, tenant, &keychain, &pool);
    match (&serial_records, &parallel_records) {
        (Ok(s), Ok(p)) if s == records && p == records => {}
        _ => {
            eprintln!(
                "codec gate [{label}]: trail verification diverged or rejected a clean trail \
                 (serial ok: {}, parallel ok: {})",
                serial_records.is_ok(),
                parallel_records.is_ok()
            );
            std::process::exit(1);
        }
    }
    let mut verify_serial_secs = f64::INFINITY;
    let mut verify_parallel_secs = f64::INFINITY;
    for _ in 0..rounds {
        verify_serial_secs = verify_serial_secs.min(best_secs(per_round, || {
            std::hint::black_box(
                verify_tenant_trail(&trail, tenant, &keychain).expect("trail verifies"),
            );
        }));
        verify_parallel_secs = verify_parallel_secs.min(best_secs(per_round, || {
            std::hint::black_box(
                verify_tenant_trail_parallel(&trail, tenant, &keychain, &pool)
                    .expect("trail verifies"),
            );
        }));
    }

    let mbps = |secs: f64| raw_bytes / secs / 1e6;
    RegimeRow {
        label,
        segment_records,
        records: records.len(),
        raw_kb: raw_bytes / 1024.0,
        batch_encode_mbps: mbps(batch_secs),
        streaming_encode_mbps: mbps(streaming_secs),
        encode_speedup: mbps(streaming_secs) / mbps(batch_secs),
        batch_decode_mbps: mbps(decode_batch_secs),
        streaming_decode_mbps: mbps(decode_streaming_secs),
        decode_speedup: mbps(decode_streaming_secs) / mbps(decode_batch_secs),
        batch_ratio: raw_bytes / batch_bytes as f64,
        streaming_ratio: raw_bytes / streaming_bytes as f64,
        min_encode_speedup,
        segments: trail.len(),
        verify_serial_mbps: mbps(verify_serial_secs),
        verify_parallel_mbps: mbps(verify_parallel_secs),
        verify_workers,
        oversubscribed: verify_workers > host_cores(),
        fans_out: verify_workers > 1
            && trail.len() > 1
            && trail.iter().map(|s| s.compressed.len()).sum::<usize>() / MIN_VERIFY_SHARD_BYTES > 1,
        verify_speedup: mbps(verify_parallel_secs) / mbps(verify_serial_secs),
        min_verify_speedup,
    }
}

fn main() {
    let iters: u32 =
        std::env::var("SBT_CODEC_GATE_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(30);
    let min_speedup = env_f64("SBT_CODEC_GATE_MIN", 2.0);
    let min_large_speedup = env_f64("SBT_CODEC_GATE_MIN_LARGE", 1.25);
    let cores = host_cores();
    let verify_workers = env_f64("SBT_CODEC_GATE_VERIFY_WORKERS", 8.min(cores) as f64) as usize;
    // The parallel-verify floor depends on the machine: with one hardware
    // thread, fanning out cannot win and pool threads add scheduler jitter
    // — measured 0.85–1.09x serial across runs on the single-core
    // reference box — so the gate there only guards against pathological
    // orchestration overhead (within 20% of serial). On real multi-core
    // verifier hosts, parallel must be at least as fast as serial.
    let min_verify_speedup =
        env_f64("SBT_CODEC_GATE_VERIFY_PAR_MIN", if cores > 1 { 1.0 } else { 0.8 });

    // Production granularity: the stream the codec benches always measured.
    let records = synthetic_audit_records(50, 32);
    // Large segments: enough records for two full 16 K segments, so the
    // regime times steady-state large-segment seals, not one warm-up.
    let large_records = synthetic_audit_records(250, 32);

    let regimes = vec![
        run_regime(
            "production",
            &records,
            SEGMENT_RECORDS,
            iters,
            min_speedup,
            verify_workers,
            min_verify_speedup,
        ),
        run_regime(
            "large-segment",
            &large_records,
            LARGE_SEGMENT_RECORDS,
            iters,
            min_large_speedup,
            verify_workers,
            min_verify_speedup,
        ),
    ];

    let mut failures = Vec::new();
    for r in &regimes {
        println!(
            "=== audit codec gate [{}] ({} records, {:.0} raw KB, {}-record segments) ===",
            r.label, r.records, r.raw_kb, r.segment_records
        );
        println!(
            "encode:  batch {:8.0} MB/s   streaming {:8.0} MB/s   ({:.2}x, min {:.2}x)",
            r.batch_encode_mbps, r.streaming_encode_mbps, r.encode_speedup, r.min_encode_speedup,
        );
        println!(
            "decode:  batch {:8.0} MB/s   streaming {:8.0} MB/s   ({:.2}x)",
            r.batch_decode_mbps, r.streaming_decode_mbps, r.decode_speedup,
        );
        println!(
            "ratio:   batch {:8.2}x        streaming {:8.2}x",
            r.batch_ratio, r.streaming_ratio
        );
        println!(
            "verify:  serial {:7.0} MB/s   {}-worker {:9.0} MB/s   ({:.2}x, min {:.2}x, {} segments){}",
            r.verify_serial_mbps,
            r.verify_workers,
            r.verify_parallel_mbps,
            r.verify_speedup,
            r.min_verify_speedup,
            r.segments,
            match (r.oversubscribed, r.fans_out) {
                (true, _) => ", oversubscribed: not gated",
                (false, false) => ", trail too small to fan out: not gated",
                (false, true) => "",
            },
        );

        if r.streaming_ratio < r.batch_ratio {
            failures.push(format!(
                "[{}] streaming ratio {:.3}x regressed below the batch baseline {:.3}x",
                r.label, r.streaming_ratio, r.batch_ratio
            ));
        }
        if r.encode_speedup < r.min_encode_speedup {
            failures.push(format!(
                "[{}] streaming encode is only {:.2}x the batch baseline (required ≥ {:.2}x)",
                r.label, r.encode_speedup, r.min_encode_speedup
            ));
        }
        if r.fans_out && !r.oversubscribed && r.verify_speedup < r.min_verify_speedup {
            failures.push(format!(
                "[{}] {}-worker verify is only {:.2}x serial (required ≥ {:.2}x)",
                r.label, r.verify_workers, r.verify_speedup, r.min_verify_speedup
            ));
        }
    }

    let report = CodecReport {
        generated_by: "cargo run --release -p sbt_bench --bin codec_gate",
        regimes,
        pass: failures.is_empty(),
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_codec.json", json + "\n") {
                eprintln!("could not write BENCH_codec.json: {e}");
            } else {
                eprintln!("(codec record written to BENCH_codec.json)");
            }
        }
        Err(e) => eprintln!("could not serialize codec report: {e}"),
    }
    sbt_bench::dump_json("codec_gate", &report);

    if !report.pass {
        for f in &failures {
            eprintln!("codec gate FAILED: {f}");
        }
        std::process::exit(1);
    }
    println!("codec gate OK");
}
