//! Pool width is invisible at the TEE boundary: an 8-worker engine and a
//! 1-worker engine fed the identical encrypted stream must make exactly the
//! same world switches, copy exactly the same bytes (via-OS) and produce
//! byte-identical results. Each batch is one ingress crossing whatever the
//! width; the extra workers only run window plans and seal lanes.
//!
//! The same boundary is metered three times over — by the tenant's gateway,
//! by the platform's global counters and by the telemetry registry that
//! mirrors both — and the three must agree exactly.

use sbt_engine::{Engine, EngineConfig, EngineVariant, Pipeline};
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
                engine.ingest(&delivery).unwrap();
            }
            Offer::Watermark(wm) => engine.advance_watermark(wm).unwrap(),
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
