//! The crossing budget: exactly how many world switches each step of the
//! engine pays on trusted-IO, cleartext ingress.
//!
//! Each step is one command list, so the counts are small and exact: a
//! batch is one crossing, and so is a group of batches sent together
//! (`ingest_group`, the server lane's group commit); `ingest_many` cuts its
//! n deliveries into `min(n, W)` groups. A window's fire runs the plan's chain
//! (its transforms, then a Sort when the reduce is keyed) over the window's
//! k partitions in `min(k, W)` lists, W being the pool's workers plus the
//! joining thread, then one tail list (gather, reduce, egress, retires):
//! at most W + 1 crossings whatever the batch count, and 1 when the chain
//! is empty. The watermark that completes the window costs nothing beyond
//! its fire, whose first list records it; one that completes nothing (the
//! first side of a join) crosses alone. A change that adds a crossing to
//! any step fails here.

use sbt_engine::{Engine, EngineConfig, EngineVariant, Pipeline, StreamSide};
use sbt_types::Watermark;
use sbt_workloads::datasets::synthetic_stream;
use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
use sbt_workloads::transport::Channel;
use std::sync::Arc;

/// Partitions (batches) per window.
const K: u64 = 5;
const BATCH: usize = 1_000;
/// Fire lists at most: the 2-worker engine's workers plus the joining
/// thread.
const W: u64 = 3;

fn engine(pipeline: Pipeline) -> Arc<Engine> {
    engine_on(2, pipeline)
}

fn engine_on(workers: usize, pipeline: Pipeline) -> Arc<Engine> {
    Engine::new(
        EngineConfig::for_variant(EngineVariant::SbtClearIngress, workers),
        pipeline.target_delay_ms(10_000).batch_events(BATCH),
    )
}

fn switches(engine: &Engine) -> u64 {
    let b = engine.boundary_events();
    // Trusted IO copies nothing and adds no delivery switch: every switch
    // is one SMC invocation.
    assert_eq!(b.switches, b.invocations);
    assert_eq!(b.copied_bytes, 0);
    b.switches
}

/// Ingest one window of `k` batches on `side`, checking each batch costs
/// one crossing; returns the watermark that closes the window.
fn ingest_window(engine: &Engine, side: StreamSide, k: u64) -> Watermark {
    let chunks = synthetic_stream(1, k as usize * BATCH, 16, 7);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: BATCH }, Channel::cleartext(), chunks);
    let mut batches = 0;
    loop {
        match generator.next_offer().expect("the window closes with a watermark") {
            Offer::Batch(delivery) => {
                let before = switches(engine);
                engine.ingest_group(&[delivery], side).unwrap();
                assert_eq!(switches(engine) - before, 1, "a batch is one crossing");
                batches += 1;
            }
            Offer::Watermark(wm) => {
                assert_eq!(batches, k);
                return wm;
            }
        }
    }
}

/// Crossings a watermark costs: the fire it triggers, whose first list
/// records it, or its own one when it completes nothing.
fn fire(engine: &Engine, wm: Watermark, side: StreamSide) -> u64 {
    let before = switches(engine);
    engine.advance_watermark_on(wm, side).unwrap();
    switches(engine) - before
}

/// Crossings of the fire of one `k`-partition window of a single-stream
/// pipeline on a `workers`-worker engine.
fn single_stream_fire(workers: usize, k: u64, pipeline: Pipeline) -> u64 {
    let engine = engine_on(workers, pipeline);
    let wm = ingest_window(&engine, StreamSide::Left, k);
    let crossings = fire(&engine, wm, StreamSide::Left);
    assert_eq!(engine.results().len(), 1, "the window fired");
    crossings
}

#[test]
fn a_group_of_batches_is_one_crossing() {
    let engine = engine(Pipeline::winsum_benchmark());
    let chunks = synthetic_stream(1, K as usize * BATCH, 16, 7);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: BATCH }, Channel::cleartext(), chunks);
    let mut group = Vec::new();
    let wm = loop {
        match generator.next_offer().expect("the window closes with a watermark") {
            Offer::Batch(delivery) => group.push(delivery),
            Offer::Watermark(wm) => break wm,
        }
    };
    for n in [1, K as usize - 1] {
        let before = switches(&engine);
        let batches: Vec<_> = group.drain(..n).collect();
        engine.ingest_group(&batches, StreamSide::Left).unwrap();
        assert_eq!(switches(&engine) - before, 1, "a group of {n} is one crossing");
    }
    // The window's partitions are all in: its fire is the usual one list,
    // over all K batches.
    assert_eq!(fire(&engine, wm, StreamSide::Left), 1);
    assert_eq!(engine.metrics().events_ingested, K * BATCH as u64);
}

#[test]
fn ingest_many_is_one_crossing_per_pool_thread() {
    // K = 5 deliveries in min(K, W) contiguous groups: W = 2 on one worker,
    // W = 3 on two.
    for workers in [1, 2] {
        let engine = engine_on(workers, Pipeline::winsum_benchmark());
        let chunks = synthetic_stream(1, K as usize * BATCH, 16, 7);
        let mut generator =
            Generator::new(GeneratorConfig { batch_events: BATCH }, Channel::cleartext(), chunks);
        let (mut batches, mut wms) = (Vec::new(), Vec::new());
        while let Some(offer) = generator.next_offer() {
            match offer {
                Offer::Batch(delivery) => batches.push(delivery),
                Offer::Watermark(wm) => wms.push(wm),
            }
        }
        let w = workers as u64 + 1;
        let before = switches(&engine);
        engine.ingest_many(batches, StreamSide::Left).unwrap();
        assert_eq!(switches(&engine) - before, K.min(w), "W = {w}");
        assert_eq!(engine.metrics().events_ingested, K * BATCH as u64);
        assert_eq!(fire(&engine, wms[0], StreamSide::Left), 1);
    }
}

#[test]
fn a_winsum_fire_is_one_crossing() {
    // The watermark's record, Concat, Sum, egress and every retire: one
    // list.
    assert_eq!(single_stream_fire(2, K, Pipeline::winsum_benchmark()), 1);
}

#[test]
fn a_topk_fire_is_sorts_merges_and_one_tail() {
    // The K sorts in min(K, W) lists, then MergeK + TopKPerKey + egress in
    // one list.
    assert_eq!(single_stream_fire(2, K, Pipeline::topk_benchmark(10)), K.min(W) + 1);
}

#[test]
fn a_filter_fire_is_one_crossing_per_list_and_one_tail() {
    // The K filters in min(K, W) lists, then concat + egress in one list.
    assert_eq!(single_stream_fire(2, K, Pipeline::filter_benchmark(0, 500)), K.min(W) + 1);
}

#[test]
fn a_fire_on_one_worker_is_three_crossings_whatever_its_batch_count() {
    // One worker and the joining thread: 25 partitions in 2 lists, then the
    // tail.
    assert_eq!(single_stream_fire(1, 25, Pipeline::topk_benchmark(10)), 3);
    assert_eq!(single_stream_fire(1, 25, Pipeline::filter_benchmark(0, 500)), 3);
}

#[test]
fn a_join_fire_sorts_and_merges_both_sides_then_one_tail() {
    let engine = engine(Pipeline::join_benchmark());
    let left = ingest_window(&engine, StreamSide::Left, K);
    let right = ingest_window(&engine, StreamSide::Right, K);
    // One side's watermark alone completes nothing: it crosses alone.
    assert_eq!(fire(&engine, left, StreamSide::Left), 1);
    let crossings = fire(&engine, right, StreamSide::Right);
    assert_eq!(engine.results().len(), 1, "the window fired");
    // Both sides' 2K sorts in min(2K, W) lists, then the watermark's record,
    // both MergeKs, Join and egress in one list.
    assert_eq!(crossings, (2 * K).min(W) + 1);
}
