//! Temporal join of two sensor streams: correlate, within each 1-second
//! window, readings from two different sensor fleets that observed the same
//! asset (same key), as an industrial-monitoring scenario would (§1's
//! predictive-maintenance motivation; the Join benchmark of §9.2).
//!
//! Run with `cargo run --release --example sensor_join`.

use streambox_tz::prelude::*;

fn main() {
    let pipeline = Pipeline::new("vibration-x-temperature")
        .then(Operator::TempJoin)
        .target_delay_ms(250)
        .batch_events(10_000);
    let engine = Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, 8), pipeline);

    // Two fleets reporting on the same 2 000 machine ids: a vibration stream
    // and a temperature stream, 50 K events per second each.
    let vibration = synthetic_stream(3, 50_000, 2_000, 500);
    let temperature = synthetic_stream(3, 50_000, 2_000, 501);

    // Interleave the two sides window by window so both watermarks advance
    // together (the engine joins on the minimum watermark).
    for (left, right) in vibration.into_iter().zip(temperature) {
        for (side, chunk) in [(StreamSide::Left, left), (StreamSide::Right, right)] {
            let mut generator = Generator::new(
                GeneratorConfig { batch_events: 10_000 },
                Channel::encrypted_demo(),
                vec![chunk],
            );
            while let Some(offer) = generator.next_offer() {
                match offer {
                    Offer::Batch(batch) => {
                        engine.ingest_group(&[batch], side).expect("ingest");
                    }
                    Offer::Watermark(wm) => {
                        engine.advance_watermark_on(wm, side).expect("watermark")
                    }
                }
            }
        }
    }

    let (key, nonce, signing) = engine.data_plane().cloud_keys();
    for (w, msg) in engine.results().iter().enumerate() {
        let plain = msg.open(&key, &nonce, &signing).expect("signature verifies");
        // Joined pairs are uploaded as (key: u32, packed values: u64).
        let pairs = plain.len() / 12;
        println!("window {w}: {pairs} correlated (vibration, temperature) readings");
    }

    let m = engine.metrics();
    println!(
        "\njoined {} events total at {:.2} M events/s, avg delay {:.1} ms, peak TEE memory {:.1} MB",
        m.events_ingested,
        m.events_per_sec() / 1e6,
        m.avg_delay_ms(),
        m.peak_memory_bytes as f64 / 1e6
    );
}
