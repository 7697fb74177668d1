//! The crossing budget: exactly how many world switches each step of the
//! engine pays on trusted-IO, cleartext ingress.
//!
//! Each step is one command list, so the counts are small and exact: a
//! batch is one crossing, and so is a group of batches sent together
//! (`ingest_group`, the server lane's group commit, on lane 0);
//! `ingest_many` spreads a window's deliveries over up to W lanes in
//! contiguous runs, one group per lane — `min(n, W)` groups for a whole
//! window in one call — W being the pool's workers plus the joining thread.
//! A window is one array per side and lane, however many batches reached
//! it. Its fire
//! runs the plan's chain (its transforms, then a Sort when the reduce is
//! keyed) over its a arrays in `min(a, W)` lists, then one tail list
//! (gather, reduce, egress, retires): at most a + 1 crossings whatever the
//! batch count, and 1 when the chain is empty. The watermark that
//! completes the window costs nothing beyond its fire, whose first list
//! records it; one that completes nothing (the first side of a join)
//! crosses alone. A change that adds a crossing to any step fails here.

use sbt_engine::{Engine, EngineConfig, EngineVariant, Pipeline, StreamSide};
use sbt_types::Watermark;
use sbt_workloads::datasets::synthetic_stream;
use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
use sbt_workloads::transport::{Channel, Delivery};
use std::sync::Arc;

/// Batches per window.
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

/// One window of `k` batches and the watermark that closes it.
fn window(k: u64) -> (Vec<Delivery>, Watermark) {
    let chunks = synthetic_stream(1, k as usize * BATCH, 16, 7);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: BATCH }, Channel::cleartext(), chunks);
    let mut batches = Vec::new();
    loop {
        match generator.next_offer().expect("the window closes with a watermark") {
            Offer::Batch(delivery) => batches.push(delivery),
            Offer::Watermark(wm) => {
                assert_eq!(batches.len() as u64, k);
                return (batches, wm);
            }
        }
    }
}

/// Ingest one window of `k` batches on `side` through `ingest_many`,
/// checking it costs one crossing per group (so the window is that many
/// arrays); returns the watermark that closes the window.
fn ingest_window(engine: &Engine, side: StreamSide, k: u64) -> Watermark {
    let (batches, wm) = window(k);
    let w = engine.worker_pool().size() as u64 + 1;
    let before = switches(engine);
    engine.ingest_many(batches, side).unwrap();
    assert_eq!(switches(engine) - before, k.min(w), "a group is one crossing");
    wm
}

/// Crossings a watermark costs: the fire it triggers, whose first list
/// records it, or its own one when it completes nothing.
fn fire(engine: &Engine, wm: Watermark, side: StreamSide) -> u64 {
    let before = switches(engine);
    engine.advance_watermark_on(wm, side).unwrap();
    switches(engine) - before
}

/// Crossings of the fire of one `k`-batch window of a single-stream
/// pipeline on a `workers`-worker engine, ingested as `min(k, W)` arrays.
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
    // The window's batches are all in its one array: its fire is the usual
    // one list.
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
    // The watermark's record, Sum over the arrays, egress and every
    // retire: one list.
    assert_eq!(single_stream_fire(2, K, Pipeline::winsum_benchmark()), 1);
}

#[test]
fn a_topk_fire_is_sorts_merges_and_one_tail() {
    // The min(K, W) arrays' sorts in as many lists, then MergeK +
    // TopKPerKey + egress in one list.
    assert_eq!(single_stream_fire(2, K, Pipeline::topk_benchmark(10)), K.min(W) + 1);
}

#[test]
fn a_filter_fire_is_one_crossing_per_list_and_one_tail() {
    // The min(K, W) arrays' filters in as many lists, then concat + egress
    // in one list.
    assert_eq!(single_stream_fire(2, K, Pipeline::filter_benchmark(0, 500)), K.min(W) + 1);
}

#[test]
fn a_fire_on_one_worker_is_three_crossings_whatever_its_batch_count() {
    // One worker and the joining thread: 25 batches in 2 arrays, 2 lists,
    // then the tail.
    assert_eq!(single_stream_fire(1, 25, Pipeline::topk_benchmark(10)), 3);
    assert_eq!(single_stream_fire(1, 25, Pipeline::filter_benchmark(0, 500)), 3);
}

#[test]
fn a_window_sent_on_one_lane_fires_from_one_array_whatever_its_batch_count() {
    // Batches sent one group each all append to lane 0's array: one sort
    // (or filter) list and the tail — a + 1 crossings for a = 1 — whether
    // the window holds 5 batches or 25, on one worker or two.
    for (workers, k) in [(1, K), (1, 25), (2, 25)] {
        for (pipeline, fire_crossings) in [
            (Pipeline::topk_benchmark(10), 2),
            (Pipeline::filter_benchmark(0, 500), 2),
            (Pipeline::winsum_benchmark(), 1),
        ] {
            let engine = engine_on(workers, pipeline);
            let (batches, wm) = window(k);
            for delivery in batches {
                let before = switches(&engine);
                engine.ingest_group(&[delivery], StreamSide::Left).unwrap();
                assert_eq!(switches(&engine) - before, 1, "a batch is one crossing");
            }
            assert_eq!(fire(&engine, wm, StreamSide::Left), fire_crossings, "{k} batches");
            assert_eq!(engine.results().len(), 1, "the window fired");
        }
    }
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
    // Both sides' 2 min(K, W) arrays sorted in min(2 min(K, W), W) lists,
    // then the watermark's record, both MergeKs, Join and egress in one
    // list.
    assert_eq!(crossings, (2 * K.min(W)).min(W) + 1);
}

#[test]
fn a_window_sent_a_batch_per_call_spreads_over_the_lanes_by_the_window_before() {
    // Six single-delivery `ingest_many` calls per window on W = 3: the
    // first window has no count to go by and spreads as it goes (lanes 0,
    // 1, then 2 for the rest); the second is cut by the first's six
    // batches, two a lane. Each window is three arrays, and each TopK fire
    // three sort lists and the tail.
    let engine = engine_on(2, Pipeline::topk_benchmark(10));
    let chunks = synthetic_stream(2, 6 * BATCH, 16, 7);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: BATCH }, Channel::cleartext(), chunks);
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(delivery) => {
                let before = switches(&engine);
                engine.ingest_many(vec![delivery], StreamSide::Left).unwrap();
                assert_eq!(switches(&engine) - before, 1, "a batch is one crossing");
            }
            Offer::Watermark(wm) => assert_eq!(fire(&engine, wm, StreamSide::Left), 3 + 1),
        }
    }
    let keys = engine.data_plane().verifier_keys(engine.tenant()).unwrap();
    let segments = engine.drain_audit_segments();
    let records = sbt_attest::verify_tenant_trail(&segments, engine.tenant(), &keys).unwrap();
    let mut appends: Vec<std::collections::BTreeMap<u32, usize>> = vec![Default::default(); 2];
    for record in &records {
        if let sbt_attest::AuditRecord::Windowing { win_no, output, .. } = record {
            *appends[*win_no as usize].entry(output.0).or_default() += 1;
        }
    }
    let sizes = |w: usize| appends[w].values().copied().collect::<Vec<_>>();
    assert_eq!(sizes(0), [1, 1, 4]);
    assert_eq!(sizes(1), [2, 2, 2]);
}
