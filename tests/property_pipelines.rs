//! Property-based integration tests: randomized pipelines, window sizes,
//! batch sizes and key distributions, checked end to end against naive
//! oracles computed directly from the generated stream, with the audit log
//! verified after every run.
//!
//! These complement the fixed-scenario tests in `end_to_end.rs` by varying
//! the knobs a deployment would vary (batching granularity, cardinality,
//! window count) and asserting that none of them can change the results the
//! cloud receives or break attestation.

use proptest::prelude::*;
use std::collections::BTreeMap;
use streambox_tz::prelude::*;

/// Run a pipeline over a synthetic stream and return the decrypted results
/// plus the verifier's report.
fn run_pipeline(
    pipeline: Pipeline,
    windows: u32,
    events_per_window: usize,
    keys: u32,
    seed: u64,
) -> (Vec<Vec<u8>>, VerificationReport, Vec<sbt_workloads::datasets::StreamChunk>) {
    let batch = pipeline.batch_size();
    let engine = Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, 2), pipeline);
    let chunks = synthetic_stream(windows, events_per_window, keys, seed);
    let mut generator = Generator::new(
        GeneratorConfig { batch_events: batch },
        Channel::encrypted_demo(),
        chunks.clone(),
    );
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(b) => {
                engine.ingest_group(&[b], StreamSide::Left).expect("ingest");
            }
            Offer::Watermark(wm) => {
                engine.advance_watermark_on(wm, StreamSide::Left).expect("watermark")
            }
        }
    }
    let (key, nonce, signing) = engine.data_plane().cloud_keys();
    let plains = engine
        .results()
        .iter()
        .map(|m| m.open(&key, &nonce, &signing).expect("authentic"))
        .collect();
    let records: Vec<_> = engine
        .drain_audit_segments()
        .iter()
        .flat_map(|s| decompress_records(&s.compressed).expect("decodes"))
        .collect();
    let report = Verifier::new(engine.pipeline().spec()).replay(&records);
    (plains, report, chunks)
}

proptest! {
    // End-to-end runs are comparatively expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn window_sums_match_oracle_for_any_batching(
        windows in 1u32..3,
        events_per_window in 1_000usize..6_000,
        batch in 500usize..4_000,
        keys in 1u32..200,
        seed in 0u64..1_000,
    ) {
        let pipeline = Pipeline::new("prop-winsum")
            .then(Operator::WindowSum)
            .target_delay_ms(60_000)
            .batch_events(batch);
        let (plains, report, chunks) = run_pipeline(pipeline, windows, events_per_window, keys, seed);
        prop_assert_eq!(plains.len(), windows as usize);
        for (i, plain) in plains.iter().enumerate() {
            let got = u64::from_le_bytes(plain[..8].try_into().unwrap());
            let expected: u64 = chunks[i].events.iter().map(|e| e.value as u64).sum();
            prop_assert_eq!(got, expected, "window {}", i);
        }
        prop_assert!(report.is_correct(), "{:?}", report.violations);
        prop_assert_eq!(report.misleading_hints, 0);
    }

    #[test]
    fn per_key_aggregates_match_oracle_for_any_cardinality(
        events_per_window in 1_000usize..5_000,
        batch in 400usize..3_000,
        keys in 1u32..500,
        seed in 0u64..1_000,
    ) {
        let pipeline = Pipeline::new("prop-sumbykey")
            .then(Operator::SumByKey)
            .target_delay_ms(60_000)
            .batch_events(batch);
        let (plains, report, chunks) = run_pipeline(pipeline, 1, events_per_window, keys, seed);
        prop_assert_eq!(plains.len(), 1);

        let mut oracle: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for e in &chunks[0].events {
            let entry = oracle.entry(e.key).or_insert((0, 0));
            entry.0 += e.value as u64;
            entry.1 += 1;
        }
        let got: Vec<(u32, u64, u64)> = plains[0]
            .chunks_exact(20)
            .map(|c| {
                (
                    u32::from_le_bytes(c[0..4].try_into().unwrap()),
                    u64::from_le_bytes(c[4..12].try_into().unwrap()),
                    u64::from_le_bytes(c[12..20].try_into().unwrap()),
                )
            })
            .collect();
        let expected: Vec<(u32, u64, u64)> =
            oracle.into_iter().map(|(k, (s, c))| (k, s, c)).collect();
        prop_assert_eq!(got, expected);
        prop_assert!(report.is_correct(), "{:?}", report.violations);
    }

    #[test]
    fn filtering_never_leaks_out_of_band_events(
        events_per_window in 1_000usize..5_000,
        batch in 500usize..3_000,
        lo in 0u32..1000,
        width in 0u32..500_000,
        seed in 0u64..1_000,
    ) {
        let hi = lo.saturating_add(width);
        let pipeline = Pipeline::new("prop-filter")
            .then(Operator::Filter { lo, hi })
            .target_delay_ms(60_000)
            .batch_events(batch);
        let (plains, report, chunks) = run_pipeline(pipeline, 1, events_per_window, 100_000, seed);
        prop_assert_eq!(plains.len(), 1);
        let got = Event::slice_from_bytes(&plains[0]);
        // Exactly the in-band events survive, and nothing else appears.
        let expected: usize =
            chunks[0].events.iter().filter(|e| e.value >= lo && e.value <= hi).count();
        prop_assert_eq!(got.len(), expected);
        prop_assert!(got.iter().all(|e| e.value >= lo && e.value <= hi));
        prop_assert!(report.is_correct(), "{:?}", report.violations);
    }

    #[test]
    fn distinct_counts_are_batching_invariant(
        events_per_window in 1_000usize..4_000,
        batch_a in 300usize..1_500,
        batch_b in 1_500usize..4_000,
        keys in 1u32..300,
        seed in 0u64..1_000,
    ) {
        let run = |batch: usize| {
            let pipeline = Pipeline::new("prop-distinct")
                .then(Operator::Distinct)
                .target_delay_ms(60_000)
                .batch_events(batch);
            let (plains, report, _) = run_pipeline(pipeline, 1, events_per_window, keys, seed);
            prop_assert!(report.is_correct(), "{:?}", report.violations);
            Ok(plains[0].clone())
        };
        // The batching granularity is a control-plane implementation detail;
        // it must not be observable in the results the cloud receives.
        prop_assert_eq!(run(batch_a)?, run(batch_b)?);
    }
}
