//! Pool width is invisible at the TEE boundary of a stream sent one batch
//! group at a time: an 8-worker engine and a 1-worker engine fed the
//! identical encrypted stream must cross as often, copy exactly the same
//! bytes (via-OS), write the same audit records and produce byte-identical
//! results. Each batch is one ingress crossing whatever the width, and
//! appends to its window's one lane-0 array. A fire runs the plan's chain
//! over a window's arrays in `min(a, W)` lists, W being the pool's workers
//! plus the joining thread, so a window of one array — even a keyed
//! reduce's, with its sort — fires in the same lists on any pool; only
//! `ingest_many`, which spreads a window over up to W lanes, lets the width
//! show (`crossings.rs`).
//!
//! The same boundary is metered three times over — by the tenant's gateway,
//! by the platform's global counters and by the telemetry registry that
//! mirrors both — and the three must agree exactly.

use sbt_attest::decompress_records;
use sbt_engine::{Engine, EngineConfig, EngineVariant, Pipeline, StreamSide};
use sbt_workloads::datasets::synthetic_stream;
use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
use sbt_workloads::transport::Channel;
use std::sync::Arc;

/// Drive an engine with the same deterministic encrypted stream: 3 windows
/// of 40 000 events in 20 000-event batches.
fn drive(engine: &Arc<Engine>) {
    let chunks = synthetic_stream(3, 40_000, 64, 42);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: 20_000 }, Channel::encrypted_demo(), chunks);
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(delivery) => {
                engine.ingest_group(&[delivery], StreamSide::Left).unwrap();
            }
            Offer::Watermark(wm) => engine.advance_watermark_on(wm, StreamSide::Left).unwrap(),
        }
    }
}

fn run_variant(variant: EngineVariant, cores: usize) -> Arc<Engine> {
    let engine = Engine::new(
        EngineConfig::for_variant(variant, cores),
        Pipeline::winsum_benchmark().batch_events(20_000),
    );
    drive(&engine);
    engine
}

#[test]
fn pool_width_changes_no_crossings_copies_or_results() {
    for variant in [EngineVariant::Sbt, EngineVariant::SbtIoViaOs] {
        let serial = run_variant(variant, 1);
        let parallel = run_variant(variant, 8);

        // Identical boundary traffic: same switches, same copied bytes,
        // same invocations.
        let b1 = serial.boundary_events();
        let b8 = parallel.boundary_events();
        assert_eq!(b1, b8, "{variant:?}: pool width changed the boundary profile");

        // And identical results: same windows, byte-identical ciphertexts
        // (same keys, same egress sequence, same window contents).
        let r1 = serial.results();
        let r8 = parallel.results();
        assert_eq!(r1.len(), 3);
        assert_eq!(r1.len(), r8.len());
        for (a, b) in r1.iter().zip(r8.iter()) {
            assert_eq!(a.ciphertext, b.ciphertext, "{variant:?}: results diverge");
        }

        // Same admission totals, and the 8-worker engine really decrypted
        // in the enclave (nonzero decrypt accounting).
        let s1 = serial.data_plane().stats().snapshot();
        let s8 = parallel.data_plane().stats().snapshot();
        assert_eq!(s1.events_ingested, 120_000);
        assert_eq!(s1.events_ingested, s8.events_ingested);
        assert_eq!(s1.bytes_ingested, s8.bytes_ingested);
        assert!(s8.decrypt_nanos > 0);
    }
}

/// A TopK engine of `workers` workers fed 3 windows of 40 000 encrypted
/// events in 5 000-event batches (8 a window, all in its one array).
/// Returns its engine, its ingest crossings and its fire crossings (each
/// watermark rides its fire's first list and costs none of its own).
fn topk_run(workers: usize) -> (Arc<Engine>, u64, u64) {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::Sbt, workers),
        Pipeline::topk_benchmark(10).batch_events(5_000),
    );
    let chunks = synthetic_stream(3, 40_000, 64, 42);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: 5_000 }, Channel::encrypted_demo(), chunks);
    let (mut ingest, mut fire) = (0, 0);
    while let Some(offer) = generator.next_offer() {
        let before = engine.boundary_events().switches;
        match offer {
            Offer::Batch(delivery) => {
                engine.ingest_group(&[delivery], StreamSide::Left).unwrap();
                ingest += engine.boundary_events().switches - before;
            }
            Offer::Watermark(wm) => {
                engine.advance_watermark_on(wm, StreamSide::Left).unwrap();
                fire += engine.boundary_events().switches - before;
            }
        }
    }
    (engine, ingest, fire)
}

#[test]
fn pool_width_changes_no_keyed_fire_of_a_window_on_one_lane() {
    const K: u64 = 8;
    let (serial, ingest1, fire1) = topk_run(1);
    let (parallel, ingest8, fire8) = topk_run(8);

    let (r1, r8) = (serial.results(), parallel.results());
    assert_eq!(r1.len(), 3);
    assert_eq!(r1.len(), r8.len());
    for (a, b) in r1.iter().zip(r8.iter()) {
        assert_eq!(a.ciphertext, b.ciphertext, "results diverge");
    }
    assert_eq!(ingest1, 3 * K, "a batch is one crossing");
    assert_eq!(ingest1, ingest8);
    let records = |engine: &Engine| -> usize {
        let segments = engine.drain_audit_segments();
        segments.iter().map(|s| decompress_records(&s.compressed).unwrap().len()).sum()
    };
    assert_eq!(records(&serial), records(&parallel));

    // Per window: the one array's sort in one list, which records the
    // watermark, then the tail — on one worker (W = 2) as on eight (W = 9).
    assert_eq!(fire1, 3 * 2);
    assert_eq!(fire8, fire1);
}

/// A crossing the gateway does not meter, a via-OS copy of anything but the
/// wire bytes, a registry counter that stops mirroring its subsystem, or a
/// tracer that records while disabled all show up as a disagreement here.
#[test]
fn gateway_platform_and_registry_agree_on_the_boundary() {
    for (variant, tracing) in
        [(EngineVariant::Sbt, true), (EngineVariant::SbtIoViaOs, true), (EngineVariant::Sbt, false)]
    {
        let engine = Engine::new(
            EngineConfig::for_variant(variant, 2),
            Pipeline::winsum_benchmark().batch_events(20_000),
        );
        engine.telemetry().set_enabled(tracing);
        // Opening the gateway made its own crossing; count from here.
        let before = engine.platform().stats().snapshot();
        drive(&engine);
        let tz = engine.platform().stats().snapshot();
        let platform = tz.delta_since(&before).boundary_events();
        let gateway = engine.boundary_events();
        assert_eq!(gateway.switches, platform.switches, "{variant:?}: unmetered switch");
        assert_eq!(gateway.copied_bytes, platform.copied_bytes, "{variant:?}: unmetered copy");

        // Trusted IO copies nothing; via-OS copies exactly the wire bytes.
        let plane = engine.data_plane().stats().snapshot();
        let expected_copy = match variant {
            EngineVariant::SbtIoViaOs => plane.bytes_ingested,
            _ => 0,
        };
        assert_eq!(platform.copied_bytes, expected_copy, "{variant:?}");

        // The registry mirrors every subsystem total it exports.
        let snap = engine.telemetry().snapshot();
        let events = engine.metrics().events_ingested;
        assert_eq!(events, 120_000);
        let section = format!("gateway.t{}", engine.tenant().0);
        for (name, expected) in [
            ("tz.world_switches".to_string(), tz.world_switches),
            ("tz.switch_nanos".to_string(), tz.switch_nanos),
            ("tz.boundary_copy_bytes".to_string(), tz.boundary_copy_bytes),
            ("tz.smc_invocations".to_string(), tz.smc_invocations),
            ("plane.events_ingested".to_string(), events),
            (format!("{section}.switches"), gateway.switches),
            (format!("{section}.copied_bytes"), gateway.copied_bytes),
            (format!("{section}.invocations"), gateway.invocations),
        ] {
            assert_eq!(snap.counter_u64(&name), expected, "{variant:?}: registry {name}");
        }

        let mut spans = 0u64;
        engine.telemetry().tracer().drain(|_| spans += 1);
        if tracing {
            assert!(spans > 0, "{variant:?}: tracing on recorded no spans");
        } else {
            assert_eq!(spans, 0, "{variant:?}: tracing off still recorded spans");
        }
    }
}
