//! The trail one window leaves: exactly the hints the engine means.
//!
//! A TopK window of `K` batches sent through `ingest_many` on W = 3 is
//! three arrays, one per ingest lane. The fire sorts each array as one of
//! three parallel lists, and the tail's TopKPerKey reads the three sorted
//! runs where they lie: it names all three, and nothing merges them. Each
//! Sort output is hinted "sibling `i` of 3 consumed in parallel" — one
//! hint, since a Sort has one output — and the three Sorts name the three
//! siblings between them. The reduce names no predecessor, so it carries no
//! hint. The sealed trail shows it too: it is 213 B (219 B with a
//! `MergeK` in the tail, 377 B when the window was 25 partitions sorted
//! apart), while 25 partitions each attesting 25 hints per Sort at ten
//! bytes apiece sealed 6.7 KB.
//!
//! A watermark is recorded at the head of the first list of the first
//! window it completes: on the trail it comes before the fire of every
//! window it completes, and never before an earlier window's egress, so
//! the cloud's freshness check pairs each result with the watermark that
//! completed it and times the whole fire.

use sbt_attest::{verify_tenant_trail, AuditRecord, DataRef, Verifier};
use sbt_engine::{Engine, EngineConfig, EngineVariant, Pipeline, StreamSide};
use sbt_types::{PrimitiveKind, Watermark, WindowId};
use sbt_uarray::ConsumptionHint;
use sbt_workloads::datasets::synthetic_stream;
use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
use sbt_workloads::transport::Channel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Batches per window: as many as a `tenants4_small_batch` TopK tenant
/// sends.
const K: u32 = 25;
const BATCH: usize = 200;
/// Arrays per window: one per ingest lane of a 2-worker engine.
const ARRAYS: u32 = 3;
/// Bytes the window's sealed trail stays under: 213 B measured, plus 10 %.
const CEILING: usize = 234;

#[test]
fn a_topk_window_attests_one_sibling_hint_per_sort_and_one_reduce_over_the_runs() {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::SbtClearIngress, 2),
        Pipeline::topk_benchmark(10).target_delay_ms(10_000).batch_events(BATCH),
    );
    let chunks = synthetic_stream(1, K as usize * BATCH, 16, 7);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: BATCH }, Channel::cleartext(), chunks);
    let mut batches = Vec::new();
    loop {
        match generator.next_offer().expect("the window closes with a watermark") {
            Offer::Batch(delivery) => batches.push(delivery),
            Offer::Watermark(wm) => {
                engine.ingest_many(std::mem::take(&mut batches), StreamSide::Left).unwrap();
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
    let mut reduces = Vec::new();
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
                assert_eq!(k, ARRAYS);
                siblings.push(index);
            }
            PrimitiveKind::TopKPerKey => {
                assert!(hints.is_empty(), "the reduce carries no hint: {hints:?}");
                reduces.push(inputs.len());
            }
            PrimitiveKind::MergeK | PrimitiveKind::Merge => {
                panic!("the reduce reads the sorted runs: nothing merges them ({op:?})")
            }
            _ => {}
        }
    }
    siblings.sort_unstable();
    assert_eq!(siblings, (0..ARRAYS).collect::<Vec<_>>(), "the Sorts name every sibling once");
    assert_eq!(reduces, [ARRAYS as usize], "one reduce naming the sorted runs");

    let sealed: usize = segments.iter().map(|s| s.compressed.len()).sum();
    assert!(sealed < CEILING, "the window's trail is {sealed} B");
}

#[test]
fn each_async_watermark_is_recorded_just_before_its_own_windows_egress() {
    const WINDOWS: usize = 3;
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::SbtClearIngress, 1),
        Pipeline::topk_benchmark(10).target_delay_ms(10_000).batch_events(BATCH),
    );
    let chunks = synthetic_stream(WINDOWS as u32, 4 * BATCH, 16, 7);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: BATCH }, Channel::cleartext(), chunks);
    let mut watermarks = Vec::new();
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(delivery) => {
                engine.ingest_group(&[delivery], StreamSide::Left).unwrap();
            }
            Offer::Watermark(wm) => watermarks.push(wm),
        }
    }
    // Hold the pool's one worker, so all three watermarks are noted before
    // any fire runs.
    let (started, release) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let blocker = {
        let (started, release) = (started.clone(), release.clone());
        engine.worker_pool().spawn(move || {
            started.store(true, Ordering::SeqCst);
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };
    while !started.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let tickets: Vec<_> = watermarks
        .iter()
        .map(|wm| Engine::advance_watermark_async(&engine, *wm, StreamSide::Left))
        .collect();
    release.store(true, Ordering::SeqCst);
    blocker.join().expect("the blocker does not panic");
    for ticket in tickets {
        ticket.join().expect("no window panicked").unwrap();
    }
    engine.quiesce();
    assert_eq!(engine.results().len(), WINDOWS);

    let keys = engine.data_plane().verifier_keys(engine.tenant()).unwrap();
    let records = verify_tenant_trail(&engine.drain_audit_segments(), engine.tenant(), &keys)
        .expect("trail verifies");
    // Walk the trail: window w's egress follows exactly the watermarks of
    // windows 0..=w, the last of them its own.
    let mut seen = Vec::new();
    let mut egressed = 0;
    for record in &records {
        match record {
            AuditRecord::Ingress { data: DataRef::Watermark(ms), .. } => seen.push(*ms),
            AuditRecord::Egress { .. } => {
                let expected: Vec<u32> = watermarks[..=egressed]
                    .iter()
                    .map(|wm| wm.event_time.as_millis() as u32)
                    .collect();
                assert_eq!(seen, expected, "the watermarks before window {egressed}'s egress");
                egressed += 1;
            }
            _ => {}
        }
    }
    assert_eq!(egressed, WINDOWS);
    // After quiesce no watermark is left unrecorded.
    assert_eq!(seen.len(), WINDOWS, "every watermark is on the trail");
    let replay = Verifier::new(engine.pipeline().spec()).replay(&records);
    assert!(replay.is_correct(), "violations: {:?}", replay.violations);
    assert_eq!(replay.freshness.delays_ms.len(), WINDOWS);
}

#[test]
fn one_watermark_completing_three_windows_precedes_all_three_fires() {
    const WINDOWS: usize = 3;
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::SbtClearIngress, 1),
        Pipeline::topk_benchmark(10).target_delay_ms(10_000).batch_events(BATCH),
    );
    let chunks = synthetic_stream(WINDOWS as u32, 4 * BATCH, 16, 7);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: BATCH }, Channel::cleartext(), chunks);
    let mut last = None;
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(delivery) => {
                engine.ingest_group(&[delivery], StreamSide::Left).unwrap();
            }
            Offer::Watermark(wm) => last = Some(wm),
        }
    }
    // Only the last watermark is sent: it completes all three windows.
    engine
        .advance_watermark_on(last.expect("the stream ends in a watermark"), StreamSide::Left)
        .unwrap();
    assert_eq!(engine.results().len(), WINDOWS);

    let keys = engine.data_plane().verifier_keys(engine.tenant()).unwrap();
    let records = verify_tenant_trail(&engine.drain_audit_segments(), engine.tenant(), &keys)
        .expect("trail verifies");
    let position = |wanted: &dyn Fn(&AuditRecord) -> bool| records.iter().position(wanted);
    let watermark =
        position(&|r| matches!(r, AuditRecord::Ingress { data: DataRef::Watermark(_), .. }))
            .expect("the watermark is on the trail");
    let first_tail =
        position(&|r| matches!(r, AuditRecord::Execution { op: PrimitiveKind::TopKPerKey, .. }))
            .expect("the first window's tail reduces");
    // The watermark heads the first window's first chain list, not its
    // tail: the sort of the window's one array follows it.
    let sorts_after = records[watermark..first_tail]
        .iter()
        .filter(|r| matches!(r, AuditRecord::Execution { op: PrimitiveKind::Sort, .. }))
        .count();
    assert_eq!(sorts_after, 1, "the first window's sort follows its watermark");
    let replay = Verifier::new(engine.pipeline().spec()).replay(&records);
    assert!(replay.is_correct(), "violations: {:?}", replay.violations);
    assert_eq!(replay.watermarks, 1);
    assert_eq!(replay.freshness.delays_ms.len(), WINDOWS, "every window is timed from it");
}

/// A one-worker TopK engine (W = 2) holding two ingested windows of `K`
/// batches of `batch` events, and the two watermarks that complete them.
fn two_topk_windows(batch: usize) -> (Arc<Engine>, Vec<Watermark>) {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::SbtClearIngress, 1),
        Pipeline::topk_benchmark(10).target_delay_ms(10_000).batch_events(batch),
    );
    let chunks = synthetic_stream(2, K as usize * batch, 16, 7);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: batch }, Channel::cleartext(), chunks);
    let mut watermarks = Vec::new();
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(delivery) => {
                engine.ingest_group(&[delivery], StreamSide::Left).unwrap();
            }
            Offer::Watermark(wm) => watermarks.push(wm),
        }
    }
    (engine, watermarks)
}

/// Both windows egressed in window order, and each watermark sits just
/// before its own window's egress: no egress between it and its window's,
/// and its window's egress is the next one. The trail verifies and replays.
fn assert_fired_in_order_each_after_its_watermark(engine: &Engine, watermarks: &[Watermark]) {
    let fired: Vec<_> = engine.metrics().windows.iter().map(|w| w.window).collect();
    assert_eq!(fired, [WindowId(0), WindowId(1)]);
    assert_eq!(engine.results().len(), 2);
    let keys = engine.data_plane().verifier_keys(engine.tenant()).unwrap();
    let records = verify_tenant_trail(&engine.drain_audit_segments(), engine.tenant(), &keys)
        .expect("trail verifies");
    let ms = |wm: &Watermark| wm.event_time.as_millis() as u32;
    let trail: Vec<Option<u32>> = records
        .iter()
        .filter_map(|record| match record {
            AuditRecord::Ingress { data: DataRef::Watermark(at), .. } => Some(Some(*at)),
            AuditRecord::Egress { .. } => Some(None),
            _ => None,
        })
        .collect();
    assert_eq!(trail, [Some(ms(&watermarks[0])), None, Some(ms(&watermarks[1])), None]);
    let replay = Verifier::new(engine.pipeline().spec()).replay(&records);
    assert!(replay.is_correct(), "violations: {:?}", replay.violations);
    assert_eq!(replay.freshness.delays_ms.len(), 2);
}

#[test]
fn an_inline_watermark_waits_for_the_running_async_fire_then_fires_its_own_window() {
    // Batches ten times the usual size, so that window 0's fire is still
    // running when window 1's watermark arrives.
    let (engine, watermarks) = two_topk_windows(10 * BATCH);
    // Window 0 fires as a task; once it has made its first crossing, window
    // 1's watermark arrives inline on this thread.
    let before = engine.boundary_events().switches;
    let ticket = Engine::advance_watermark_async(&engine, watermarks[0], StreamSide::Left);
    while engine.boundary_events().switches == before && !ticket.is_finished() {
        std::hint::spin_loop();
    }
    engine.advance_watermark_on(watermarks[1], StreamSide::Left).unwrap();
    // The inline call returned only once both windows had egressed.
    assert_fired_in_order_each_after_its_watermark(&engine, &watermarks);
    ticket.join().expect("no window panicked").unwrap();
}

#[test]
fn an_inline_watermark_fires_past_a_queued_async_fire_which_then_returns_ok() {
    let (engine, watermarks) = two_topk_windows(BATCH);
    // Hold the pool's one worker, so window 0's fire task stays queued.
    let (started, release) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let blocker = {
        let (started, release) = (started.clone(), release.clone());
        engine.worker_pool().spawn(move || {
            started.store(true, Ordering::SeqCst);
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };
    while !started.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let ticket = Engine::advance_watermark_async(&engine, watermarks[0], StreamSide::Left);
    // The inline call fires both windows on this thread. Its fire lists'
    // joins help, but never with the queued root fire, which would block on
    // the fire lock this thread holds.
    engine.advance_watermark_on(watermarks[1], StreamSide::Left).unwrap();
    assert_fired_in_order_each_after_its_watermark(&engine, &watermarks);
    release.store(true, Ordering::SeqCst);
    blocker.join().expect("the blocker does not panic");
    // The task finds its window already executed.
    ticket.join().expect("no window panicked").unwrap();
    assert_eq!(engine.results().len(), 2);
}
