//! Quick start: declare a per-key aggregation pipeline, run it on the
//! simulated TrustZone edge platform, and read the results back as the
//! cloud consumer would.
//!
//! Run with `cargo run --release --example quickstart`.

use streambox_tz::prelude::*;

fn main() {
    // 1. Declare the pipeline (Figure 2(c) style): 1-second event-time
    //    windows, per-key sum/count aggregation, 500 ms freshness target.
    let pipeline = Pipeline::new("quickstart")
        .fixed_window(Duration::from_secs(1))
        .then(Operator::SumByKey)
        .target_delay_ms(500)
        .batch_events(10_000);

    // 2. Create the engine on a simulated 4-core edge board with TrustZone.
    //    The full StreamBox-TZ variant ingests encrypted data over trusted IO.
    let engine = Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, 4), pipeline);

    // 3. Stream three windows of synthetic telemetry (50 K events each, 64
    //    sensor keys) over an encrypted source→edge link.
    let chunks = synthetic_stream(3, 50_000, 64, 2024);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: 10_000 }, Channel::encrypted_demo(), chunks);
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(batch) => {
                engine.ingest_group(&[batch], StreamSide::Left).expect("ingest");
            }
            Offer::Watermark(wm) => {
                engine.advance_watermark_on(wm, StreamSide::Left).expect("watermark")
            }
        }
    }

    // 4. The cloud consumer decrypts and verifies each egressed result.
    let (key, nonce, signing) = engine.data_plane().cloud_keys();
    println!("windows completed: {}", engine.results().len());
    for (i, msg) in engine.results().iter().enumerate() {
        let plain = msg.open(&key, &nonce, &signing).expect("signature verifies");
        let aggregates = plain.len() / 20; // key(4) + sum(8) + count(8)
        let first_key = u32::from_le_bytes(plain[0..4].try_into().unwrap());
        let first_sum = u64::from_le_bytes(plain[4..12].try_into().unwrap());
        println!("window {i}: {aggregates} keys, e.g. key {first_key} -> sum {first_sum}");
    }

    // 5. Engine-side metrics: throughput, delay, TEE memory.
    let m = engine.metrics();
    println!(
        "throughput: {:.2} M events/s ({:.1} MB/s), avg delay {:.1} ms, peak TEE memory {:.1} MB",
        m.events_per_sec() / 1e6,
        m.mb_per_sec(),
        m.avg_delay_ms(),
        m.peak_memory_bytes as f64 / 1e6
    );
}
