//! Pool width is invisible at the TEE boundary: an 8-worker engine and a
//! 1-worker engine fed the identical encrypted stream must make exactly the
//! same world switches, copy exactly the same bytes (via-OS) and produce
//! byte-identical results. Each batch is one ingress crossing whatever the
//! width; the extra workers only run window plans and seal lanes.

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
