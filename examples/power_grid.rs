//! Power-grid load analysis: the paper's motivating scenario (§2.2) and its
//! Power benchmark. Smart plugs across houses report power samples; the edge
//! groups them per (house, plug) each second and reports per-plug average
//! loads, from which the cloud derives which houses have the most high-power
//! plugs.
//!
//! Run with `cargo run --release --example power_grid`.

use std::collections::HashMap;
use streambox_tz::prelude::*;

fn main() {
    // Pipeline: 1-second windows, per-(house,plug) average power, 600 ms
    // target delay. The 16-byte power events are projected to the generic
    // layout inside the TEE (key = house<<16 | plug).
    let pipeline = Pipeline::new("power-grid")
        .then(Operator::AvgPerKey)
        .target_delay_ms(600)
        .batch_events(20_000);
    let engine = Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, 8), pipeline);

    // 40 houses with 20 plugs each, 100 K samples per second, 4 seconds.
    let chunks = power_grid_stream(4, 100_000, 40, 20, 7);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: 20_000 }, Channel::encrypted_demo(), chunks);
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

    // Cloud side: decrypt per-plug aggregates and find, per window, the
    // houses with the most plugs above the global average (the paper's
    // Power query).
    let (key, nonce, signing) = engine.data_plane().cloud_keys();
    for (w, msg) in engine.results().iter().enumerate() {
        let plain = msg.open(&key, &nonce, &signing).expect("signature verifies");
        let plugs: Vec<(u32, u64, u64)> = plain
            .chunks_exact(20)
            .map(|c| {
                (
                    u32::from_le_bytes(c[0..4].try_into().unwrap()),
                    u64::from_le_bytes(c[4..12].try_into().unwrap()),
                    u64::from_le_bytes(c[12..20].try_into().unwrap()),
                )
            })
            .collect();
        let global_avg: f64 = {
            let (sum, cnt) =
                plugs.iter().fold((0u64, 0u64), |(s, c), (_, ps, pc)| (s + ps, c + pc));
            sum as f64 / cnt.max(1) as f64
        };
        let mut high_per_house: HashMap<u32, u32> = HashMap::new();
        for (packed_key, sum, cnt) in &plugs {
            let house = packed_key >> 16;
            let plug_avg = *sum as f64 / (*cnt).max(1) as f64;
            if plug_avg > global_avg {
                *high_per_house.entry(house).or_default() += 1;
            }
        }
        let mut ranked: Vec<(u32, u32)> = high_per_house.into_iter().collect();
        ranked.sort_by_key(|(house, n)| (std::cmp::Reverse(*n), *house));
        let top: Vec<String> =
            ranked.iter().take(3).map(|(h, n)| format!("house {h} ({n} plugs)")).collect();
        println!(
            "window {w}: {} plugs reporting, global avg {:.1} W, most high-power: {}",
            plugs.len(),
            global_avg,
            top.join(", ")
        );
    }

    let m = engine.metrics();
    println!(
        "\nprocessed {} power samples at {:.2} M events/s, peak TEE memory {:.1} MB",
        m.events_ingested,
        m.events_per_sec() / 1e6,
        m.peak_memory_bytes as f64 / 1e6
    );
}
