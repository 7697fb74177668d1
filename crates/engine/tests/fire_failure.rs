//! A fire list that fails leaves no trace of its window.
//!
//! A fire runs the plan's chain over the window's arrays (one per ingest
//! lane) in at most W lists, the first headed by the watermark's record,
//! then one tail list that reduces and egresses. A consumed sort rewrites
//! its array in its own pages and commits none, so the chain lists cannot
//! trip a quota that the window's arrays fit under, and the tail's reduce
//! reads the sorted runs where they lie: its output is the only array the
//! tail writes. Here that output trips the tenant's quota: the data plane
//! unwinds the tail whole and retires the sorted runs it names, and the
//! caller gets the error. Nothing of the window is left but its watermark
//! and its sorts' records; the next window fires, and the cloud's replay
//! flags the lost window and nothing else.

use sbt_attest::{verify_tenant_trail, AuditRecord, DataRef, Verifier, Violation};
use sbt_dataplane::{DataPlane, DataPlaneError};
use sbt_engine::{Engine, EngineConfig, EngineVariant, Executor, Pipeline, StreamSide};
use sbt_types::{PrimitiveKind, TenantId, Watermark};
use sbt_tz::Platform;
use sbt_workloads::datasets::{synthetic_stream, StreamChunk};
use sbt_workloads::transport::Channel;
use std::sync::Arc;

const TENANT: TenantId = TenantId(1);
const PAGE: u64 = 4096;

/// Ingest window `w` as batches of the given sizes, in order, through
/// `ingest_many`; returns the watermark that closes it.
fn ingest(engine: &Engine, w: u32, sizes: &[usize]) -> Watermark {
    let chunk = synthetic_stream(w + 1, sizes.iter().sum(), 16, 9).pop().unwrap();
    let mut channel = Channel::cleartext();
    let mut events = chunk.events.as_slice();
    let mut batches = Vec::new();
    for &n in sizes {
        let (batch, rest) = events.split_at(n);
        events = rest;
        let batch =
            StreamChunk { events: batch.to_vec(), power_events: Vec::new(), ..chunk.clone() };
        batches.push(channel.send(&batch));
    }
    engine.ingest_many(batches, StreamSide::Left).unwrap();
    chunk.watermark
}

#[test]
fn a_tail_list_that_trips_the_quota_leaves_no_trace_of_its_window() {
    // A one-worker TopK engine: W = 2 (the worker and the joining thread),
    // so window 0's batches [20 000, 2 000, 2 000, 2 000] events go in as
    // the groups [b0, b1] and [b2, b3], one array each: a0 of 22 000
    // events (65 pages, each batch decrypted straight into it) and a1 of
    // 4 000 (12 pages), 77 in all. The fire's lists are [watermark, sort
    // a0] and [sort a1], which sort each array in its own pages (77 pages
    // still), then the tail [TopKPerKey, …], whose output (16 keys × 10
    // pairs) needs one more page: 78. A 77-page quota admits every batch
    // and both sorts, and trips at the reduce's output.
    let config = EngineConfig::for_variant(EngineVariant::SbtClearIngress, 1);
    let dp = DataPlane::new(Platform::new(config.platform_config()), config.dataplane.clone());
    dp.register_tenant(TENANT, Some(77 * PAGE)).unwrap();
    let pipeline = Pipeline::topk_benchmark(10).target_delay_ms(10_000);
    let engine =
        Engine::for_tenant(config, pipeline, dp.clone(), TENANT, Arc::new(Executor::new(1)));

    let refused = ingest(&engine, 0, &[20_000, 2_000, 2_000, 2_000]);
    assert_eq!(
        engine.advance_watermark_on(refused, StreamSide::Left),
        Err(DataPlaneError::QuotaExceeded)
    );
    assert_eq!(dp.live_refs(TENANT), 0);
    assert_eq!(dp.tenant_memory(TENANT).unwrap().used_bytes, 0);
    assert!(engine.results().is_empty(), "the failed window egressed nothing");

    // The next window fires.
    let fired = ingest(&engine, 1, &[2_000, 2_000]);
    engine.advance_watermark_on(fired, StreamSide::Left).unwrap();
    assert_eq!(engine.results().len(), 1);
    assert_eq!(dp.live_refs(TENANT), 0);
    assert_eq!(dp.tenant_memory(TENANT).unwrap().used_bytes, 0);

    let keys = dp.verifier_keys(TENANT).unwrap();
    let records = verify_tenant_trail(&engine.drain_audit_segments(), TENANT, &keys)
        .expect("the trail verifies");
    // The replay names the lost window, and only it: its windowed
    // partitions never reached an egress. Nothing else is flagged (no
    // unwindowed ingress, no untraceable or out-of-order dataflow).
    let replay = Verifier::new(engine.pipeline().spec()).replay(&records);
    assert_eq!(replay.egressed, 1);
    assert!(replay.violations.contains(&Violation::MissingEgress { win_no: 0 }));
    for violation in &replay.violations {
        assert!(
            matches!(
                violation,
                Violation::MissingEgress { win_no: 0 }
                    | Violation::IncompleteWindow { win_no: 0, .. }
            ),
            "violations: {:?}",
            replay.violations
        );
    }
    // Window 0's two sorts, which committed, and window 1's one (its two
    // batches, after window 0's four, land on one lane); the failed tail
    // published no record: no reduce of window 0's runs, and no merge
    // anywhere.
    let count = |op| {
        records
            .iter()
            .filter(|r| matches!(r, AuditRecord::Execution { op: o, .. } if *o == op))
            .count()
    };
    assert_eq!(count(PrimitiveKind::Sort), 3, "sorts on the trail");
    assert_eq!(count(PrimitiveKind::MergeK), 0, "merges on the trail");
    assert_eq!(count(PrimitiveKind::TopKPerKey), 1, "reduces on the trail");
    // The refused window's watermark is on the trail all the same, ahead of
    // the next window's.
    let watermarks: Vec<u32> = records
        .iter()
        .filter_map(|r| match r {
            AuditRecord::Ingress { data: DataRef::Watermark(ms), .. } => Some(*ms),
            _ => None,
        })
        .collect();
    let ms = |wm: Watermark| wm.event_time.as_millis() as u32;
    assert_eq!(watermarks, [ms(refused), ms(fired)]);
}
