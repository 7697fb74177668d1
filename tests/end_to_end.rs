//! Cross-crate integration tests: every evaluation pipeline runs end to end
//! on the simulated platform, produces results equal to a naive oracle
//! computed directly from the generated stream, and yields an audit log the
//! cloud verifier accepts.

use std::collections::{BTreeMap, BTreeSet};
use streambox_tz::prelude::*;

/// Drive an engine with a stream on the left side.
fn drive(engine: &std::sync::Arc<Engine>, chunks: Vec<sbt_workloads::datasets::StreamChunk>) {
    let mut generator = Generator::new(
        GeneratorConfig { batch_events: engine.pipeline().batch_size() },
        Channel::encrypted_demo(),
        chunks,
    );
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
}

fn decrypt_all(engine: &Engine) -> Vec<Vec<u8>> {
    let (key, nonce, signing) = engine.data_plane().cloud_keys();
    engine
        .results()
        .iter()
        .map(|m| m.open(&key, &nonce, &signing).expect("signature verifies"))
        .collect()
}

fn verify(engine: &Engine) {
    let records: Vec<_> = engine
        .drain_audit_segments()
        .iter()
        .flat_map(|s| decompress_records(&s.compressed).expect("segment decodes"))
        .collect();
    let report = Verifier::new(engine.pipeline().spec()).replay(&records);
    assert!(report.is_correct(), "verifier rejected an honest run: {:?}", report.violations);
    assert_eq!(report.egressed, engine.results().len());
}

#[test]
fn winsum_end_to_end_matches_oracle_and_verifies() {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::Sbt, 4),
        Pipeline::winsum_benchmark().target_delay_ms(60_000).batch_events(5_000),
    );
    let chunks = intel_lab_stream(3, 20_000, 5);
    let oracle: Vec<u64> =
        chunks.iter().map(|c| c.events.iter().map(|e| e.value as u64).sum()).collect();
    drive(&engine, chunks);
    let plains = decrypt_all(&engine);
    assert_eq!(plains.len(), 3);
    for (i, plain) in plains.iter().enumerate() {
        let got = u64::from_le_bytes(plain[..8].try_into().unwrap());
        assert_eq!(got, oracle[i], "window {i}");
    }
    verify(&engine);
}

#[test]
fn topk_per_key_end_to_end_matches_oracle() {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::Sbt, 4),
        Pipeline::topk_benchmark(3).target_delay_ms(60_000).batch_events(4_000),
    );
    let chunks = synthetic_stream(2, 12_000, 50, 5);
    let oracle: Vec<BTreeMap<u32, Vec<u32>>> = chunks
        .iter()
        .map(|c| {
            let mut per_key: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for e in &c.events {
                per_key.entry(e.key).or_default().push(e.value);
            }
            for values in per_key.values_mut() {
                values.sort_unstable_by(|a, b| b.cmp(a));
                values.truncate(3);
            }
            per_key
        })
        .collect();
    drive(&engine, chunks);
    let plains = decrypt_all(&engine);
    assert_eq!(plains.len(), 2);
    for (i, plain) in plains.iter().enumerate() {
        // Results are (key: u32, value: u64) pairs, key-major order.
        let mut got: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for chunk in plain.chunks_exact(12) {
            let key = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
            let value = u64::from_le_bytes(chunk[4..12].try_into().unwrap()) as u32;
            got.entry(key).or_default().push(value);
        }
        assert_eq!(got, oracle[i], "window {i}");
    }
    verify(&engine);
}

#[test]
fn distinct_end_to_end_matches_oracle() {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::Sbt, 4),
        Pipeline::distinct_benchmark().target_delay_ms(60_000).batch_events(5_000),
    );
    let chunks = taxi_stream(2, 15_000, 9);
    let oracle: Vec<BTreeSet<u32>> =
        chunks.iter().map(|c| c.events.iter().map(|e| e.key).collect()).collect();
    drive(&engine, chunks);
    let plains = decrypt_all(&engine);
    for (i, plain) in plains.iter().enumerate() {
        let got: Vec<u32> = plain
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as u32)
            .collect();
        let expected: Vec<u32> = oracle[i].iter().copied().collect();
        assert_eq!(got, expected, "window {i}");
    }
    verify(&engine);
}

#[test]
fn filter_end_to_end_matches_oracle() {
    let hi = u32::MAX / 50;
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::SbtClearIngress, 2),
        Pipeline::filter_benchmark(0, hi).target_delay_ms(60_000).batch_events(5_000),
    );
    let chunks = synthetic_stream(2, 10_000, 1000, 13);
    let oracle: Vec<Vec<Event>> = chunks
        .iter()
        .map(|c| c.events.iter().copied().filter(|e| e.value <= hi).collect())
        .collect();
    // ClearIngress variant: the source link is trusted, so send cleartext.
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: 5_000 }, Channel::cleartext(), chunks);
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
    let plains = decrypt_all(&engine);
    for (i, plain) in plains.iter().enumerate() {
        let got = Event::slice_from_bytes(plain);
        // Events within a window may be reordered across partitions; compare
        // as multisets sorted by (key, value, ts).
        let mut got_sorted = got.clone();
        let mut expected = oracle[i].clone();
        let keyfn = |e: &Event| (e.key, e.value, e.ts_ms);
        got_sorted.sort_by_key(keyfn);
        expected.sort_by_key(keyfn);
        assert_eq!(got_sorted, expected, "window {i}");
    }
    verify(&engine);
}

#[test]
fn power_end_to_end_matches_oracle() {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::Sbt, 4),
        Pipeline::power_benchmark().target_delay_ms(60_000).batch_events(5_000),
    );
    let chunks = power_grid_stream(2, 15_000, 10, 8, 3);
    let oracle: Vec<BTreeMap<u32, (u64, u64)>> = chunks
        .iter()
        .map(|c| {
            let mut per_plug: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
            for e in &c.power_events {
                let key = (e.house << 16) | (e.plug & 0xFFFF);
                let entry = per_plug.entry(key).or_default();
                entry.0 += e.power as u64;
                entry.1 += 1;
            }
            per_plug
        })
        .collect();
    drive(&engine, chunks);
    let plains = decrypt_all(&engine);
    for (i, plain) in plains.iter().enumerate() {
        let mut got: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for chunk in plain.chunks_exact(20) {
            got.insert(
                u32::from_le_bytes(chunk[0..4].try_into().unwrap()),
                (
                    u64::from_le_bytes(chunk[4..12].try_into().unwrap()),
                    u64::from_le_bytes(chunk[12..20].try_into().unwrap()),
                ),
            );
        }
        assert_eq!(got, oracle[i], "window {i}");
    }
    verify(&engine);
}

#[test]
fn join_end_to_end_matches_oracle() {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::Sbt, 4),
        Pipeline::join_benchmark().target_delay_ms(60_000).batch_events(2_000),
    );
    let left = synthetic_stream(1, 4_000, 32, 21);
    let right = synthetic_stream(1, 4_000, 32, 22);
    // Oracle: number of joined pairs = sum over keys of left_count * right_count.
    let mut lcounts: BTreeMap<u32, u64> = BTreeMap::new();
    let mut rcounts: BTreeMap<u32, u64> = BTreeMap::new();
    for e in &left[0].events {
        *lcounts.entry(e.key).or_default() += 1;
    }
    for e in &right[0].events {
        *rcounts.entry(e.key).or_default() += 1;
    }
    let expected_pairs: u64 =
        lcounts.iter().map(|(k, lc)| lc * rcounts.get(k).copied().unwrap_or(0)).sum();

    for (side, chunks) in [(StreamSide::Left, left), (StreamSide::Right, right)] {
        let mut generator = Generator::new(
            GeneratorConfig { batch_events: 2_000 },
            Channel::encrypted_demo(),
            chunks,
        );
        while let Some(offer) = generator.next_offer() {
            match offer {
                Offer::Batch(batch) => {
                    engine.ingest_group(&[batch], side).expect("ingest");
                }
                Offer::Watermark(wm) => engine.advance_watermark_on(wm, side).expect("watermark"),
            }
        }
    }
    let plains = decrypt_all(&engine);
    assert_eq!(plains.len(), 1);
    assert_eq!(plains[0].len() as u64 / 12, expected_pairs);
    verify(&engine);
}

#[test]
fn sliding_windows_replicate_events_across_windows() {
    // A non-benchmark pipeline exercising sliding windows through the whole
    // stack: 2-second windows sliding by 1 second, counting events.
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::Sbt, 2),
        Pipeline::new("sliding-count")
            .window(WindowSpec::sliding(Duration::from_secs(2), Duration::from_secs(1)))
            .then(Operator::CountByWindow)
            .target_delay_ms(60_000)
            .batch_events(2_000),
    );
    let chunks = synthetic_stream(3, 6_000, 8, 17);
    drive(&engine, chunks);
    let plains = decrypt_all(&engine);
    // Watermark at 3 s completes sliding windows 0 ([0,2)) and 1 ([1,3)).
    assert_eq!(plains.len(), 2);
    let w0 = u64::from_le_bytes(plains[0][..8].try_into().unwrap());
    let w1 = u64::from_le_bytes(plains[1][..8].try_into().unwrap());
    assert_eq!(w0, 12_000); // seconds 0 and 1
    assert_eq!(w1, 12_000); // seconds 1 and 2
}
