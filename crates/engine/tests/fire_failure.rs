//! A fire list that fails part-way leaves no trace of its window.
//!
//! A fire runs the plan's chain over the window's partitions in at most W
//! lists, so one list carries several partitions. Here the second
//! partition of a list trips the tenant's quota: the data plane unwinds
//! that list whole, the engine retires what the other list produced, and
//! the caller gets the error. Nothing of the window is left but its
//! watermark, which the failed fire could not carry and so crossed alone;
//! the next window fires, and the cloud's replay flags the lost window and
//! nothing else.

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

/// Ingest window `w` as batches of the given sizes, in order; returns the
/// watermark that closes it.
fn ingest(engine: &Engine, w: u32, sizes: &[usize]) -> Watermark {
    let chunk = synthetic_stream(w + 1, sizes.iter().sum(), 16, 9).pop().unwrap();
    let mut channel = Channel::cleartext();
    let mut events = chunk.events.as_slice();
    for &n in sizes {
        let (batch, rest) = events.split_at(n);
        events = rest;
        let batch =
            StreamChunk { events: batch.to_vec(), power_events: Vec::new(), ..chunk.clone() };
        engine.ingest_group(&[channel.send(&batch)], StreamSide::Left).unwrap();
    }
    chunk.watermark
}

#[test]
fn a_list_that_trips_the_quota_past_its_first_partition_leaves_no_trace() {
    // A one-worker TopK engine: W = 2 (the worker and the joining thread),
    // so window 0's partitions [2 000, 20 000, 2 000, 2 000] events run as
    // the lists [p0, p1] and [p2, p3]. In pages: the partitions hold
    // 6 + 59 + 6 + 6 = 77 (each batch is decrypted straight into its
    // window, so ingest never holds more), sorting p0 or p2 needs 77 + 6,
    // and sorting p1 77 + 59 = 136. A 130-page quota admits every batch
    // and trips at p1's sort, the second partition of its list.
    let config = EngineConfig::for_variant(EngineVariant::SbtClearIngress, 1);
    let dp = DataPlane::new(Platform::new(config.platform_config()), config.dataplane.clone());
    dp.register_tenant(TENANT, Some(130 * PAGE)).unwrap();
    let pipeline = Pipeline::topk_benchmark(10).target_delay_ms(10_000);
    let engine =
        Engine::for_tenant(config, pipeline, dp.clone(), TENANT, Arc::new(Executor::new(1)));

    let refused = ingest(&engine, 0, &[2_000, 20_000, 2_000, 2_000]);
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
    // Window 1's two sorts, and at most p2's and p3's: the failed list
    // published no record. (Had the window failed in its tail instead, all
    // four of window 0's sorts would be on the trail.)
    let sorts = records
        .iter()
        .filter(|r| matches!(r, AuditRecord::Execution { op: PrimitiveKind::Sort, .. }))
        .count();
    assert!((2..=4).contains(&sorts), "{sorts} sorts on the trail");
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
