//! A keyed fire joins its sorted partitions with one `MergeK` pass. What it
//! egresses must be byte for byte what the `Vec` kernels give composed the
//! way a pairwise merge tree composed them: sort each partition, merge the
//! runs pairwise from the left, reduce. Equal keys from different
//! partitions meet the reduce in partition order either way, and Join's
//! output shows that order. Every key is in nearly every partition here.

use sbt_engine::{Engine, EngineConfig, EngineVariant, Operator, Pipeline, StreamSide};
use sbt_primitives as prim;
use sbt_types::{Event, KeyAgg, KeyValue};
use sbt_workloads::datasets::synthetic_stream;
use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
use sbt_workloads::transport::Channel;
use std::sync::Arc;

const BATCH: usize = 50;
const KEYS: u32 = 16;

fn engine(pipeline: Pipeline) -> Arc<Engine> {
    Engine::new(
        EngineConfig::for_variant(EngineVariant::SbtClearIngress, 2),
        pipeline.target_delay_ms(10_000).batch_events(BATCH),
    )
}

/// Feed one window of `k` partitions on `side`; returns the window's events
/// as the partitions the engine cut them into.
fn feed(engine: &Engine, k: usize, seed: u64, side: StreamSide) -> Vec<Vec<Event>> {
    let chunks = synthetic_stream(1, k * BATCH, KEYS, seed);
    let partitions = chunks[0].events.chunks(BATCH).map(<[Event]>::to_vec).collect();
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: BATCH }, Channel::cleartext(), chunks);
    loop {
        match generator.next_offer().expect("the window closes with a watermark") {
            Offer::Batch(delivery) => {
                engine.ingest_group(&[delivery], side).unwrap();
            }
            Offer::Watermark(wm) => {
                engine.advance_watermark_on(wm, side).unwrap();
                return partitions;
            }
        }
    }
}

/// The window's one opened result.
fn opened(engine: &Engine) -> Vec<u8> {
    let results = engine.results();
    assert_eq!(results.len(), 1, "the window fired once");
    let (key, nonce, signing) = engine.data_plane().cloud_keys();
    results[0].open(&key, &nonce, &signing).unwrap()
}

/// Sort each partition, then merge the runs pairwise from the left.
fn merged_the_old_way(partitions: &[Vec<Event>]) -> Vec<Event> {
    partitions
        .iter()
        .map(|p| prim::sort_events_by_key(p))
        .fold(Vec::new(), |merged, run| prim::merge_sorted_by_key(&merged, &run))
}

fn pairs_wire(pairs: &[KeyValue]) -> Vec<u8> {
    pairs.iter().flat_map(|p| [&p.key.to_le_bytes()[..], &p.value.to_le_bytes()].concat()).collect()
}

fn aggs_wire(aggs: &[KeyAgg]) -> Vec<u8> {
    aggs.iter()
        .flat_map(|a| {
            [&a.key.to_le_bytes()[..], &a.sum.to_le_bytes(), &a.count.to_le_bytes()].concat()
        })
        .collect()
}

#[test]
fn sum_by_key_and_top_k_per_key_egress_what_pairwise_merging_gave() {
    for k in [25, 40] {
        let sum = engine(Pipeline::new("sum").then(Operator::SumByKey));
        let merged = merged_the_old_way(&feed(&sum, k, 7, StreamSide::Left));
        assert_eq!(opened(&sum), aggs_wire(&prim::sum_count_per_key(&merged)), "SumByKey k={k}");

        let topk = engine(Pipeline::topk_benchmark(10));
        let merged = merged_the_old_way(&feed(&topk, k, 7, StreamSide::Left));
        assert_eq!(opened(&topk), pairs_wire(&prim::top_k_per_key(&merged, 10)), "TopK k={k}");
    }
}

#[test]
fn a_join_egresses_what_pairwise_merging_gave() {
    for k in [25, 40] {
        let join = engine(Pipeline::join_benchmark());
        let left = merged_the_old_way(&feed(&join, k, 7, StreamSide::Left));
        let right = merged_the_old_way(&feed(&join, k, 8, StreamSide::Right));
        let joined = prim::join_by_key(&left, &right);
        assert!(joined.len() > k * BATCH, "keys meet across partitions");
        assert_eq!(opened(&join), pairs_wire(&joined), "Join k={k}");
    }
}
