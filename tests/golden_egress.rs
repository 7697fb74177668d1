//! Golden egress digests: what each benchmark pipeline egresses, pinned as
//! one SHA-256 over its result ciphertexts.
//!
//! WinSum, TopK(10), Join and Filter 1 % run through one engine each, and a
//! four-tenant round (WinSum, WinSum, TopK, Filter, with policy
//! checkpoints) runs through `StreamServer::serve_with`, all at the
//! benchmark's shapes scaled down, window-aligned batches and seed 42. Each
//! runs on 1 and on 3 workers (W = 2 and 4), and both must give the pinned
//! digest: how a window's batches are grouped, laid out and fired inside
//! the TEE may change, what leaves it may not. A change that means to move
//! egress re-pins a digest here and says why.

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
/// through `ingest_many`, then each side's watermark; returns the digest
/// of what it egressed.
fn engine_digest(
    pipeline: Pipeline,
    workers: usize,
    left: Vec<StreamChunk>,
    right: Vec<StreamChunk>,
    batch: usize,
) -> String {
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
    digest(&engine.results())
}

/// Check `run` gives `pinned` on 1 and on 3 workers.
fn pinned_on_both(pinned: &str, run: impl Fn(usize) -> String) {
    for workers in [1, 3] {
        assert_eq!(run(workers), pinned, "{workers} worker(s)");
    }
}

#[test]
fn winsum_egress_is_pinned() {
    pinned_on_both("177f92398eb75842186f606eb1bec5eb156e71208e44344b0df53edd94a39a8a", |workers| {
        let chunks = intel_lab_stream(WINDOWS, 20_000, SEED);
        engine_digest(
            Pipeline::winsum_benchmark().batch_events(5_000),
            workers,
            chunks,
            vec![],
            5_000,
        )
    });
}

#[test]
fn topk_egress_is_pinned() {
    pinned_on_both("5bcffd09e6fdea3978c35991d56525e1d9b87806c0fcca980744a42fffac0144", |workers| {
        let chunks = synthetic_stream(WINDOWS, 10_000, 1_000, SEED);
        let pipeline = Pipeline::topk_benchmark(10).batch_events(2_500);
        engine_digest(pipeline, workers, chunks, vec![], 2_500)
    });
}

#[test]
fn join_egress_is_pinned() {
    pinned_on_both("732a61e8ac35a0bd1b1732a36bff9680a1f9ad0de48299a2ae8998e3d49351b8", |workers| {
        let left = synthetic_stream(WINDOWS, 4_000, 10_000, SEED);
        let right = synthetic_stream(WINDOWS, 4_000, 10_000, SEED + 1);
        engine_digest(Pipeline::join_benchmark().batch_events(2_000), workers, left, right, 2_000)
    });
}

#[test]
fn filter_egress_is_pinned() {
    pinned_on_both("c27824ab8ee55bb5572e748e2ae068697327109d6a527f4e19a681213c34669f", |workers| {
        let chunks = synthetic_stream(WINDOWS, 10_000, 1_000, SEED);
        let pipeline = Pipeline::filter_benchmark(0, u32::MAX / 100).batch_events(2_500);
        engine_digest(pipeline, workers, chunks, vec![], 2_500)
    });
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
    pinned_on_both("a425184f615a81ed1bf405477003e42b0eb930f8eeb5bb7fa53af3e9eea2b8e3", |workers| {
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
        digest(&results)
    });
}
