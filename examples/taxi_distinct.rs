//! Counting unique taxis: the Distinct benchmark over a taxi-trip-like
//! stream with ~11 K distinct taxi ids (§9.2). Each second, the edge reports
//! the set of distinct taxis observed, and only that compact result leaves
//! the TEE.
//!
//! Run with `cargo run --release --example taxi_distinct`.

use streambox_tz::prelude::*;

fn main() {
    let pipeline = Pipeline::new("taxi-distinct")
        .then(Operator::Distinct)
        .target_delay_ms(200)
        .batch_events(25_000);
    let engine = Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, 8), pipeline);

    // 5 windows of 200 K trip events each, skewed over ~11 K taxi ids.
    let chunks = taxi_stream(5, 200_000, 99);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: 25_000 }, Channel::encrypted_demo(), chunks);
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(batch) => {
                if let Ok(IngestStatus::Backpressure) =
                    engine.ingest_group(&[batch], StreamSide::Left)
                {
                    // A real deployment would slow the source down here.
                    eprintln!("(backpressure signalled)");
                }
            }
            Offer::Watermark(wm) => {
                engine.advance_watermark_on(wm, StreamSide::Left).expect("watermark")
            }
        }
    }

    let (key, nonce, signing) = engine.data_plane().cloud_keys();
    for (w, msg) in engine.results().iter().enumerate() {
        let plain = msg.open(&key, &nonce, &signing).expect("signature verifies");
        let distinct = plain.len() / 8; // one u64 per distinct taxi id
        println!("window {w}: {distinct} distinct taxis, {} B uploaded", msg.ciphertext.len());
    }

    let m = engine.metrics();
    println!(
        "\nthroughput {:.2} M events/s ({:.1} MB/s), avg output delay {:.1} ms",
        m.events_per_sec() / 1e6,
        m.mb_per_sec(),
        m.avg_delay_ms()
    );
}
