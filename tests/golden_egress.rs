//! Golden egress and trail digests: what each benchmark pipeline egresses,
//! pinned as one SHA-256 over its result ciphertexts, and what it attests,
//! pinned as one SHA-256 over its decoded trail.
//!
//! WinSum, TopK(10), Join and Filter 1 % run through one engine each, and a
//! four-tenant round (WinSum, WinSum, TopK, Filter, with policy
//! checkpoints) runs through `StreamServer::serve_with`, all at the
//! benchmark's shapes scaled down, window-aligned batches and seed 42. Each
//! runs on 1 and on 3 workers (W = 2 and 4), and both must give the pinned
//! digest: how a window's batches are grouped, laid out and fired inside
//! the TEE may change, what leaves it may not. A change that means to move
//! egress re-pins a digest here and says why.
//!
//! The trail digest is taken over the run's records with every array id
//! erased and every timestamp zeroed, sorted: parallel lists mint ids and
//! append their records in the order they commit, so only the record
//! multiset is a function of the input (and of W, which sets how many
//! arrays a window is). A change that moves only pages — where a primitive
//! writes, not what it reads or produces — leaves it unchanged; a declared
//! trail change re-pins it and says why.

use sbt_attest::{decompress_records, AuditRecord, DataRef, LogSegment, UArrayRef};
use sbt_crypto::sha256::Sha256;
use sbt_crypto::MasterSecret;
use sbt_dataplane::EgressMessage;
use sbt_engine::{Engine, EngineConfig, EngineVariant, Pipeline, StreamSide};
use sbt_server::{Scheduler, ServerConfig, StreamServer, TenantConfig, TenantStream};
use sbt_types::TenantId;
use sbt_workloads::datasets::StreamChunk;
use sbt_workloads::datasets::{intel_lab_stream, multi_tenant_streams, synthetic_stream};
use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
use sbt_workloads::transport::{Channel, Delivery};

const SEED: u64 = 42;
const WINDOWS: u32 = 3;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One SHA-256 over the ciphertexts of `results`, in egress order.
fn digest<'a>(results: impl IntoIterator<Item = &'a EgressMessage>) -> String {
    let mut hasher = Sha256::new();
    for message in results {
        hasher.update(&message.ciphertext);
    }
    hex(&hasher.finalize())
}

/// One SHA-256 over the records of `trail`, ids erased, timestamps zeroed
/// and a consumed-after hint's predecessor erased (it is an id), one
/// record per line, sorted. A checkpoint record's hash covers the sealed
/// window arrays, ids included, so it is erased too.
fn trail_digest(trail: &[LogSegment]) -> String {
    let erased = UArrayRef(0);
    let mut lines: Vec<String> = trail
        .iter()
        .flat_map(|s| decompress_records(&s.compressed).expect("the segment decodes"))
        .map(|record| match record {
            AuditRecord::Ingress { data, .. } => {
                let data = match data {
                    DataRef::UArray(_) => DataRef::UArray(erased),
                    watermark => watermark,
                };
                AuditRecord::Ingress { ts_ms: 0, data }
            }
            AuditRecord::Egress { .. } => AuditRecord::Egress { ts_ms: 0, data: erased },
            AuditRecord::Windowing { win_no, .. } => {
                AuditRecord::Windowing { ts_ms: 0, input: erased, win_no, output: erased }
            }
            AuditRecord::Execution { op, inputs, outputs, hints, .. } => AuditRecord::Execution {
                ts_ms: 0,
                op,
                inputs: inputs.iter().map(|_| erased).collect(),
                outputs: outputs.iter().map(|_| erased).collect(),
                hints: hints.into_iter().map(|h| if h >> 63 == 0 { 0 } else { h }).collect(),
            },
            AuditRecord::Rekey { epoch, .. } => AuditRecord::Rekey { ts_ms: 0, epoch },
            AuditRecord::Departure { reason, .. } => AuditRecord::Departure { ts_ms: 0, reason },
            AuditRecord::Checkpoint { seq, resumed, .. } => {
                AuditRecord::Checkpoint { ts_ms: 0, seq, resumed, hash: [0; 32] }
            }
        })
        .map(|record| format!("{record:?}"))
        .collect();
    lines.sort_unstable();
    let mut hasher = Sha256::new();
    for line in &lines {
        hasher.update(line.as_bytes());
        hasher.update(b"\n");
    }
    hex(&hasher.finalize())
}

/// A run's egress and trail digests.
type Digests = (String, String);

/// Each window's batches and its watermark, as a source sends them.
fn wire(chunks: Vec<StreamChunk>, batch: usize) -> Vec<(Vec<Delivery>, Offer)> {
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: batch }, Channel::encrypted_demo(), chunks);
    let (mut windows, mut batches) = (Vec::new(), Vec::new());
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(delivery) => batches.push(delivery),
            watermark => windows.push((std::mem::take(&mut batches), watermark)),
        }
    }
    windows
}

/// Drive one engine as the benchmark does: per window, each side's batches
/// through `ingest_many`, then each side's watermark; returns the digests
/// of what it egressed and what it attested.
fn engine_digests(
    pipeline: Pipeline,
    workers: usize,
    left: Vec<StreamChunk>,
    right: Vec<StreamChunk>,
    batch: usize,
) -> Digests {
    let engine = Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, workers), pipeline);
    let mut sides = vec![(StreamSide::Left, wire(left, batch))];
    if !right.is_empty() {
        sides.push((StreamSide::Right, wire(right, batch)));
    }
    for w in 0..WINDOWS as usize {
        for (side, windows) in &sides {
            engine.ingest_many(windows[w].0.clone(), *side).expect("the window ingests");
        }
        for (side, windows) in &sides {
            let Offer::Watermark(wm) = windows[w].1 else { unreachable!("a window ends") };
            engine.advance_watermark_on(wm, *side).expect("the window fires");
        }
    }
    assert_eq!(engine.results_len(), WINDOWS as usize);
    (digest(&engine.results()), trail_digest(&engine.drain_audit_segments()))
}

/// Check `run` gives the `egress` digest on 1 and on 3 workers, and the
/// `trails` digests, one per worker count.
fn pinned_on_both(egress: &str, trails: [&str; 2], run: impl Fn(usize) -> Digests) {
    for (workers, trail) in [1, 3].into_iter().zip(trails) {
        let (egressed, attested) = run(workers);
        assert_eq!(egressed, egress, "egress on {workers} worker(s)");
        assert_eq!(attested, trail, "trail on {workers} worker(s)");
    }
}

#[test]
fn winsum_egress_is_pinned() {
    pinned_on_both(
        "177f92398eb75842186f606eb1bec5eb156e71208e44344b0df53edd94a39a8a",
        [
            "d32db1781ca5cadf3b246e30d12be2eb595566236da031bc56af06da86fcb1c4",
            "00e01169345ac40bc90b140c16bb867ac8f6be9be6d71e494b919be2f880a03b",
        ],
        |workers| {
            let chunks = intel_lab_stream(WINDOWS, 20_000, SEED);
            engine_digests(
                Pipeline::winsum_benchmark().batch_events(5_000),
                workers,
                chunks,
                vec![],
                5_000,
            )
        },
    );
}

#[test]
fn topk_egress_is_pinned() {
    pinned_on_both(
        "5bcffd09e6fdea3978c35991d56525e1d9b87806c0fcca980744a42fffac0144",
        [
            // The reduce names the window's sorted runs: no `MergeK`.
            "27c960348cc31fbd216e89c87c10d6b94cc0ef5a95dfa64e41c58833acca18ee",
            "4292e933730522a8a3244754f6aa3def0caf9f7395d05d960820dcbe15e7b950",
        ],
        |workers| {
            let chunks = synthetic_stream(WINDOWS, 10_000, 1_000, SEED);
            let pipeline = Pipeline::topk_benchmark(10).batch_events(2_500);
            engine_digests(pipeline, workers, chunks, vec![], 2_500)
        },
    );
}

#[test]
fn join_egress_is_pinned() {
    pinned_on_both(
        "732a61e8ac35a0bd1b1732a36bff9680a1f9ad0de48299a2ae8998e3d49351b8",
        [
            // The join names both sides' sorted runs: no `MergeK`.
            "5062ca0526a902414730b74157b42ef7a0475b53324ea26dddacc5287196b606",
            "5062ca0526a902414730b74157b42ef7a0475b53324ea26dddacc5287196b606",
        ],
        |workers| {
            let left = synthetic_stream(WINDOWS, 4_000, 10_000, SEED);
            let right = synthetic_stream(WINDOWS, 4_000, 10_000, SEED + 1);
            engine_digests(
                Pipeline::join_benchmark().batch_events(2_000),
                workers,
                left,
                right,
                2_000,
            )
        },
    );
}

#[test]
fn filter_egress_is_pinned() {
    pinned_on_both(
        "c27824ab8ee55bb5572e748e2ae068697327109d6a527f4e19a681213c34669f",
        [
            "c5973fbec2357b38de215ec65c0a4726179cb308d6e8d68e974ab39d7d1fa6e8",
            "2892f2dd730339924b82a696a449040dce0c097597717a8dfc58bed3b56b14f1",
        ],
        |workers| {
            let chunks = synthetic_stream(WINDOWS, 10_000, 1_000, SEED);
            let pipeline = Pipeline::filter_benchmark(0, u32::MAX / 100).batch_events(2_500);
            engine_digests(pipeline, workers, chunks, vec![], 2_500)
        },
    );
}

#[test]
fn a_four_tenant_round_egress_is_pinned() {
    // The server workload at a twentieth of its scale: 1 250 events per
    // tenant window in 50-event batches, the benchmark's quotas, and a
    // checkpoint every two windows' worth of records, so one is taken
    // mid-round.
    const EVENTS: usize = 1_250;
    const BATCH: usize = 50;
    const QUOTAS: [u64; 4] = [2 << 20, 2 << 20, 8 << 20, 2 << 20];
    pinned_on_both(
        "a425184f615a81ed1bf405477003e42b0eb930f8eeb5bb7fa53af3e9eea2b8e3",
        [
            "5ba2a15f0e51db771558e0258acd7d4be4e68f5b9d12fa1c088f0769191efafa",
            "5ba2a15f0e51db771558e0258acd7d4be4e68f5b9d12fa1c088f0769191efafa",
        ],
        |workers| {
            let server = StreamServer::new(ServerConfig::default().with_cores(workers));
            let pipelines = [
                Pipeline::winsum_benchmark(),
                Pipeline::winsum_benchmark(),
                Pipeline::topk_benchmark(10),
                Pipeline::filter_benchmark(0, u32::MAX / 100),
            ];
            let ids: Vec<TenantId> = pipelines
                .into_iter()
                .enumerate()
                .map(|(t, pipeline)| {
                    let config = TenantConfig::new(&format!("tenant-{}", t + 1), QUOTAS[t])
                        .with_checkpoint_every_records(2 * EVENTS as u64);
                    server.admit(config, pipeline.batch_events(BATCH)).expect("admitted")
                })
                .collect();
            let loads = multi_tenant_streams(4, WINDOWS, EVENTS, 1_000, SEED);
            let streams = ids
                .iter()
                .zip(loads)
                .map(|(id, chunks)| TenantStream {
                    tenant: *id,
                    generator: Generator::new(
                        GeneratorConfig { batch_events: BATCH },
                        Channel::for_tenant(&MasterSecret::demo(), *id, 0),
                        chunks,
                    ),
                })
                .collect();
            let report = server.serve_with(streams, Scheduler::DeficitRoundRobin).expect("served");
            assert!(report.per_tenant.iter().all(|t| t.rejected_batches == 0));
            assert!(report.per_tenant.iter().all(|t| t.checkpoints_taken >= 1));
            let results: Vec<EgressMessage> =
                ids.iter().flat_map(|id| server.engine(*id).expect("admitted").results()).collect();
            assert_eq!(results.len(), 4 * WINDOWS as usize);
            let trails: Vec<LogSegment> = ids
                .iter()
                .flat_map(|id| server.engine(*id).expect("admitted").drain_audit_segments())
                .collect();
            (digest(&results), trail_digest(&trails))
        },
    );
}
