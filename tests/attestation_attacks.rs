//! Adversarial integration tests: a compromised control plane (or a
//! man-in-the-middle on the uplink) tries the attacks of §3.2, and the data
//! plane / cloud verifier must defeat or detect each one.

use streambox_tz::attest::record::AuditRecord;
use streambox_tz::attest::Violation;
use streambox_tz::dataplane::OpaqueRef;
use streambox_tz::prelude::*;

fn run_honest_engine() -> (std::sync::Arc<Engine>, Vec<AuditRecord>) {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::Sbt, 2),
        Pipeline::new("attack-target")
            .then(Operator::SumByKey)
            .target_delay_ms(60_000)
            .batch_events(2_000),
    );
    let chunks = synthetic_stream(2, 6_000, 16, 77);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: 2_000 }, Channel::encrypted_demo(), chunks);
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
    let records = audit_records(&engine);
    (engine, records)
}

fn audit_records(engine: &Engine) -> Vec<AuditRecord> {
    engine
        .drain_audit_segments()
        .iter()
        .flat_map(|s| decompress_records(&s.compressed).expect("decodes"))
        .collect()
}

/// Replay an engine's drained trail against its own declaration.
fn replay(engine: &Engine) -> VerificationReport {
    Verifier::new(engine.pipeline().spec()).replay(&audit_records(engine))
}

#[test]
fn fabricated_opaque_references_are_rejected_by_the_data_plane() {
    let (engine, _) = run_honest_engine();
    let dp = engine.data_plane();
    // An adversary in the control plane guesses reference values. The data
    // plane validates every reference against its live table.
    let _guard = streambox_tz::tz::WorldGuard::enter(streambox_tz::tz::World::Secure);
    for guess in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
        assert!(dp.egress(TenantId::DEFAULT, OpaqueRef(guess)).is_err());
        assert!(dp.retire(TenantId::DEFAULT, OpaqueRef(guess)).is_err());
        assert!(dp
            .invoke(
                TenantId::DEFAULT,
                streambox_tz::types::PrimitiveKind::Sort,
                &[OpaqueRef(guess)],
                streambox_tz::dataplane::PrimitiveParams::None,
                &streambox_tz::uarray::HintSet::none(),
            )
            .is_err());
    }
}

#[test]
fn normal_world_cannot_reach_data_plane_without_smc() {
    let (engine, _) = run_honest_engine();
    let dp = engine.data_plane().clone();
    // Without the SMC layer's world switch, the call must be refused (the
    // simulation models the architectural impossibility as a panic).
    let result = std::thread::spawn(move || {
        let _ = dp.ingress(TenantId::DEFAULT, &[0u8; 12], false, false, 0);
    })
    .join();
    assert!(result.is_err(), "direct normal-world access must be impossible");
}

#[test]
fn tampered_results_and_audit_segments_fail_authentication() {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::Sbt, 2),
        Pipeline::winsum_benchmark().target_delay_ms(60_000).batch_events(2_000),
    );
    let chunks = synthetic_stream(1, 4_000, 8, 3);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: 2_000 }, Channel::encrypted_demo(), chunks);
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
    let (key, nonce, signing) = engine.data_plane().cloud_keys();

    // A network adversary flips bits in the uploaded result.
    let mut msg = engine.results()[0].clone();
    msg.ciphertext[0] ^= 0xFF;
    assert!(msg.open(&key, &nonce, &signing).is_none());

    // ... or in an audit segment.
    let mut segment = engine.drain_audit_segments().remove(0);
    assert!(segment.verify(&signing));
    segment.compressed[0] ^= 0xFF;
    assert!(!segment.verify(&signing));
}

#[test]
fn dropping_data_is_detected_by_the_verifier() {
    let (engine, mut records) = run_honest_engine();
    let spec = engine.pipeline().spec();
    // The control plane "loses" a batch: remove every Windowing record for
    // one ingress uArray.
    let victim = records
        .iter()
        .find_map(|r| match r {
            AuditRecord::Windowing { input, .. } => Some(*input),
            _ => None,
        })
        .expect("at least one windowing record");
    records.retain(|r| !matches!(r, AuditRecord::Windowing { input, .. } if *input == victim));
    let report = Verifier::new(spec).replay(&records);
    assert!(!report.is_correct());
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::UnwindowedIngress(id) if *id == victim)));
}

#[test]
fn skipping_a_declared_stage_is_detected() {
    let (engine, records) = run_honest_engine();
    let spec = engine.pipeline().spec();
    // Remove every SumCnt execution: the per-key aggregation stage never ran.
    let filtered: Vec<AuditRecord> = records
        .into_iter()
        .filter(|r| {
            !matches!(
                r,
                AuditRecord::Execution { op: streambox_tz::types::PrimitiveKind::SumCnt, .. }
            )
        })
        .collect();
    let report = Verifier::new(spec).replay(&filtered);
    assert!(report.violations.iter().any(|v| matches!(
        v,
        Violation::IncompleteWindow { missing: streambox_tz::types::PrimitiveKind::SumCnt, .. }
            | Violation::UntraceableEgress(_)
    )));
}

#[test]
fn running_undeclared_computations_is_detected() {
    let (engine, mut records) = run_honest_engine();
    let spec = engine.pipeline().spec();
    // The control plane sneaks an extra TopK over windowed data (e.g. to
    // exfiltrate a different aggregate than declared).
    let some_windowed = records
        .iter()
        .find_map(|r| match r {
            AuditRecord::Windowing { output, .. } => Some(*output),
            _ => None,
        })
        .unwrap();
    records.push(AuditRecord::Execution {
        ts_ms: 999_999,
        op: streambox_tz::types::PrimitiveKind::TopK,
        inputs: [some_windowed].into(),
        outputs: [streambox_tz::attest::UArrayRef(0xFFFF)].into(),
        hints: vec![],
    });
    let report = Verifier::new(spec).replay(&records);
    assert!(report.violations.iter().any(|v| matches!(v, Violation::UndeclaredPrimitive { .. })));
}

#[test]
fn withholding_results_is_detected() {
    let (engine, records) = run_honest_engine();
    let spec = engine.pipeline().spec();
    // The control plane suppresses the first window's egress but keeps
    // processing later windows.
    let first_egress = records.iter().position(|r| matches!(r, AuditRecord::Egress { .. }));
    let mut censored = records.clone();
    censored.remove(first_egress.expect("has egress"));
    let report = Verifier::new(spec).replay(&censored);
    assert!(report.violations.iter().any(|v| matches!(v, Violation::MissingEgress { .. })));
}

#[test]
fn egressing_an_intermediate_is_detected() {
    use streambox_tz::attest::UArrayRef;
    use streambox_tz::types::PrimitiveKind;
    let (engine, mut records) = run_honest_engine();
    // The control plane runs (and retires) the real reduce, then egresses a
    // partition's Sort output of the same window instead: every stage ran,
    // so window coverage alone is satisfied. Walk back from the egressed
    // result along first inputs to that Sort output.
    let producer_of = |records: &[AuditRecord], id: UArrayRef| {
        records.iter().find_map(|r| match r {
            AuditRecord::Execution { op, inputs, outputs, .. } if outputs.contains(&id) => {
                Some((*op, inputs[0]))
            }
            _ => None,
        })
    };
    let egress = records.iter().position(|r| matches!(r, AuditRecord::Egress { .. })).unwrap();
    let AuditRecord::Egress { ts_ms, data } = records[egress] else { unreachable!() };
    let mut sorted = data;
    while let Some((op, input)) = producer_of(&records, sorted) {
        if op == PrimitiveKind::Sort {
            break;
        }
        sorted = input;
    }
    assert_eq!(producer_of(&records, sorted).map(|(op, _)| op), Some(PrimitiveKind::Sort));
    records[egress] = AuditRecord::Egress { ts_ms, data: sorted };

    let report = Verifier::new(engine.pipeline().spec()).replay(&records);
    assert_eq!(report.violations, vec![Violation::IntermediateEgress(sorted)]);
}

#[test]
fn honest_trails_of_every_window_shape_verify_clean() {
    // Passthrough (no declared stage), a filter-only pipeline, one partition
    // per window, and a join window with one side empty.
    let pipelines = [
        (Pipeline::new("pass").then(Operator::Passthrough), 1_000),
        (Pipeline::new("filter").then(Operator::Filter { lo: 0, hi: 500_000 }), 1_000),
        (Pipeline::new("one-partition").then(Operator::SumByKey), 10_000),
    ];
    for (pipeline, batch_events) in pipelines {
        let pipeline = pipeline.target_delay_ms(60_000).batch_events(batch_events);
        let engine = Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, 2), pipeline);
        let chunks = synthetic_stream(2, 3_000, 16, 5);
        let mut generator =
            Generator::new(GeneratorConfig { batch_events }, Channel::encrypted_demo(), chunks);
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
        let report = replay(&engine);
        assert!(report.is_correct(), "{}: {:?}", engine.pipeline().name(), report.violations);
        assert_eq!(report.egressed, 2);
    }

    // The last window of the join sees only left events: it fires, retires
    // its left partitions and egresses nothing.
    let report = replay(&one_sided_join(2));
    assert!(report.is_correct(), "join: {:?}", report.violations);
    assert_eq!(report.egressed, 2);
}

/// A three-window join whose window `one_sided` has no right events; every
/// window fires.
fn one_sided_join(one_sided: usize) -> std::sync::Arc<Engine> {
    let join = Pipeline::new("join").then(Operator::TempJoin).target_delay_ms(60_000);
    let engine = Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, 2), join);
    let left = synthetic_stream(3, 3_000, 16, 5);
    let right = synthetic_stream(3, 3_000, 16, 6);
    for (w, (l, r)) in left.into_iter().zip(right).enumerate() {
        for (side, chunk) in [(StreamSide::Left, l), (StreamSide::Right, r)] {
            let mut generator = Generator::new(
                GeneratorConfig { batch_events: 1_000 },
                Channel::encrypted_demo(),
                vec![chunk],
            );
            while let Some(offer) = generator.next_offer() {
                match offer {
                    Offer::Batch(_) if w == one_sided && side == StreamSide::Right => {}
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
    engine
}

#[test]
fn a_one_sided_join_window_before_an_egressed_window_is_flagged() {
    // Known gap: Windowing records do not say which side a partition came
    // from, so an honest one-sided join window that a later window's egress
    // makes due cannot be told from a withheld result.
    let report = replay(&one_sided_join(1));
    use streambox_tz::types::PrimitiveKind::{Join, Sort};
    assert_eq!(
        report.violations,
        vec![
            Violation::IncompleteWindow { win_no: 1, missing: Sort },
            Violation::IncompleteWindow { win_no: 1, missing: Join },
            Violation::MissingEgress { win_no: 1 },
        ]
    );
    assert_eq!(report.egressed, 2);
}

#[test]
fn delaying_execution_violates_freshness() {
    let (engine, mut records) = run_honest_engine();
    // The adversary delays invoking trusted computations; timestamps of all
    // post-watermark work slide far beyond the freshness target.
    for r in &mut records {
        if let AuditRecord::Egress { ts_ms, .. } = r {
            *ts_ms += 300_000;
        }
    }
    let spec = PipelineSpec::new(
        engine.pipeline().name(),
        engine.pipeline().spec().stages.clone(),
        1_000, // the deployment's actual freshness bound
    );
    let report = Verifier::new(spec).replay(&records);
    assert!(report.violations.iter().any(|v| matches!(v, Violation::StaleResult { .. })));
}

#[test]
fn honest_runs_have_no_misleading_hints() {
    let (engine, records) = run_honest_engine();
    let report = Verifier::new(engine.pipeline().spec()).replay(&records);
    assert!(report.is_correct());
    assert_eq!(report.misleading_hints, 0);
}
