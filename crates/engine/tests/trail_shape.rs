//! The trail one window leaves: exactly the hints the engine means.
//!
//! A TopK window over `K` partitions sorts each partition as one of `K`
//! parallel lists and joins the sorted runs with one `MergeK` in the tail.
//! Each Sort output is hinted "sibling `i` of `K` consumed in parallel" —
//! one hint, since a Sort has one output — and the `K` Sorts name the `K`
//! siblings between them. The MergeK names no predecessor, so it carries no
//! hint. The sealed trail shows it too: it is 377 B (455 B when the runs
//! were merged pairwise by 24 `Merge`s), while the same window attesting `K`
//! hints per Sort at ten bytes apiece sealed 6.7 KB.

use sbt_attest::{verify_tenant_trail, AuditRecord};
use sbt_engine::{Engine, EngineConfig, EngineVariant, Pipeline, StreamSide};
use sbt_types::PrimitiveKind;
use sbt_uarray::ConsumptionHint;
use sbt_workloads::datasets::synthetic_stream;
use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
use sbt_workloads::transport::Channel;

/// Partitions (batches) per window: as many as a `tenants4_small_batch`
/// TopK tenant cuts.
const K: u32 = 25;
const BATCH: usize = 200;
/// Bytes the window's sealed trail stays under: 377 B measured, plus 10 %.
const CEILING: usize = 415;

#[test]
fn a_topk_window_attests_one_sibling_hint_per_sort_and_none_per_merge() {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::SbtClearIngress, 2),
        Pipeline::topk_benchmark(10).target_delay_ms(10_000).batch_events(BATCH),
    );
    let chunks = synthetic_stream(1, K as usize * BATCH, 16, 7);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: BATCH }, Channel::cleartext(), chunks);
    loop {
        match generator.next_offer().expect("the window closes with a watermark") {
            Offer::Batch(delivery) => {
                engine.ingest_on(&delivery, StreamSide::Left).unwrap();
            }
            Offer::Watermark(wm) => {
                engine.advance_watermark_on(wm, StreamSide::Left).unwrap();
                break;
            }
        }
    }
    assert_eq!(engine.results().len(), 1, "the window fired");

    let segments = engine.drain_audit_segments();
    let keys = engine.data_plane().verifier_keys(engine.tenant()).unwrap();
    let records = verify_tenant_trail(&segments, engine.tenant(), &keys).expect("trail verifies");
    let mut siblings = Vec::new();
    let mut merge_ks = Vec::new();
    for record in &records {
        let AuditRecord::Execution { op, inputs, hints, .. } = record else { continue };
        match op {
            PrimitiveKind::Sort => {
                let [hint] = hints[..] else { panic!("a Sort carries one hint: {hints:?}") };
                let ConsumptionHint::ConsumedInParallel { k, index } =
                    ConsumptionHint::decode(hint)
                else {
                    panic!("a Sort's hint is a parallel one")
                };
                assert_eq!(k, K);
                siblings.push(index);
            }
            PrimitiveKind::MergeK => {
                assert!(hints.is_empty(), "a MergeK carries no hint: {hints:?}");
                merge_ks.push(inputs.len());
            }
            PrimitiveKind::Merge => panic!("the window is merged in one pass, not pairwise"),
            _ => {}
        }
    }
    siblings.sort_unstable();
    assert_eq!(siblings, (0..K).collect::<Vec<_>>(), "the Sorts name every sibling once");
    assert_eq!(merge_ks, [K as usize], "one MergeK over the K sorted runs");

    let sealed: usize = segments.iter().map(|s| s.compressed.len()).sum();
    assert!(sealed < CEILING, "the window's trail is {sealed} B");
}
