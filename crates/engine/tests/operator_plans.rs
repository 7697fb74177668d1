//! Every operator runs end to end, and its trail is its plan.
//!
//! Each of the 17 operators — plus a `Filter` → `SumByKey` chain — runs
//! through an engine for two windows (`TempJoin` fed on both sides). The
//! tenant's trail must replay clean against `Pipeline::spec()`, and each
//! window's `Execution` records must name exactly what the pipeline's
//! `WindowPlan` declares: the chain once per partition, then one gather
//! per side when that side has more than one partition, then the reduce.

use sbt_attest::{verify_tenant_trail, AuditRecord, Verifier};
use sbt_engine::{Engine, EngineConfig, EngineVariant, Operator, Pipeline, StreamSide};
use sbt_types::{EventTime, PrimitiveKind};
use sbt_workloads::datasets::synthetic_stream;
use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
use sbt_workloads::transport::Channel;
use std::collections::BTreeMap;

const WINDOWS: u32 = 2;
const BATCH: usize = 500;
/// Partitions per window and side.
const K: usize = 3;

/// What one window of `pipeline` runs, read off its compiled plan: the
/// per-partition chain, the sides it reads, the gather and the reduce.
fn declared(
    pipeline: &Pipeline,
) -> (Vec<PrimitiveKind>, usize, PrimitiveKind, Option<PrimitiveKind>) {
    let plan = pipeline.plan();
    let chain = plan.chain.iter().map(|(op, _)| *op).collect();
    (chain, plan.sides, plan.gather, plan.reduce.map(|(op, _)| op))
}

/// Run `pipeline` for [`WINDOWS`] windows of [`K`] partitions per side and
/// return the engine's verified trail.
fn run(pipeline: Pipeline) -> (Pipeline, Vec<AuditRecord>) {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::SbtClearIngress, 2),
        pipeline.target_delay_ms(10_000).batch_events(BATCH),
    );
    let sides: &[StreamSide] = if engine.pipeline().is_join() {
        &[StreamSide::Left, StreamSide::Right]
    } else {
        &[StreamSide::Left]
    };
    for (seed, &side) in (7..).zip(sides) {
        let chunks = synthetic_stream(WINDOWS, K * BATCH, 16, seed);
        let mut generator =
            Generator::new(GeneratorConfig { batch_events: BATCH }, Channel::cleartext(), chunks);
        while let Some(offer) = generator.next_offer() {
            match offer {
                Offer::Batch(delivery) => {
                    engine.ingest_group(&[delivery], side).unwrap();
                }
                Offer::Watermark(wm) => engine.advance_watermark_on(wm, side).unwrap(),
            }
        }
    }
    assert_eq!(
        engine.results().len(),
        WINDOWS as usize,
        "{}: every window fired",
        engine.pipeline().name()
    );
    let keys = engine.data_plane().verifier_keys(engine.tenant()).unwrap();
    let records = verify_tenant_trail(&engine.drain_audit_segments(), engine.tenant(), &keys)
        .expect("the trail verifies");
    (engine.pipeline().clone(), records)
}

fn check(pipeline: Pipeline) {
    let (pipeline, records) = run(pipeline);
    let name = pipeline.name().to_string();

    let report = Verifier::new(pipeline.spec()).replay(&records);
    assert!(report.is_correct(), "{name}: violations {:?}", report.violations);
    assert_eq!(report.egressed, WINDOWS as usize, "{name}");

    // Partitions per window, and each window's executions: a window's
    // fire ends with its egress, and windows fire one after another.
    let mut partitions: BTreeMap<u16, usize> = BTreeMap::new();
    let mut fires: Vec<Vec<PrimitiveKind>> = vec![Vec::new()];
    for record in &records {
        match record {
            AuditRecord::Windowing { win_no, .. } => *partitions.entry(*win_no).or_default() += 1,
            AuditRecord::Execution { op, .. } => fires.last_mut().unwrap().push(*op),
            AuditRecord::Egress { .. } => fires.push(Vec::new()),
            _ => {}
        }
    }
    assert_eq!(fires.pop(), Some(Vec::new()), "{name}: nothing runs after the last egress");
    assert_eq!(fires.len(), WINDOWS as usize, "{name}");

    let (chain, sides, gather, reduce) = declared(&pipeline);
    for (fire, (win, parts)) in fires.iter().zip(&partitions) {
        assert_eq!(*parts, K * sides, "{name}: window {win} partitions");
        // K > 1, so every side the plan reads is gathered.
        let mut expected = chain.repeat(*parts);
        expected.extend(std::iter::repeat_n(gather, sides));
        expected.extend(reduce);
        assert_eq!(fire, &expected, "{name}: window {win} ran what its plan declares");
    }
}

#[test]
fn every_operator_runs_its_plan_and_its_trail_replays_clean() {
    let operators = [
        Operator::Filter { lo: 0, hi: u32::MAX / 2 },
        Operator::FilterTime {
            start: EventTime::from_millis(250),
            end: EventTime::from_millis(1_500),
        },
        Operator::Sample { every: 3 },
        Operator::SumByKey,
        Operator::AvgPerKey,
        Operator::CountByKey,
        Operator::MedianByKey,
        Operator::Distinct,
        Operator::TopKPerKey { k: 4 },
        Operator::TopK { k: 10 },
        Operator::WindowSum,
        Operator::CountByWindow,
        Operator::WindowAverage,
        Operator::WindowMinMax,
        Operator::WindowMedian,
        Operator::TempJoin,
        Operator::Passthrough,
    ];
    for op in operators {
        check(Pipeline::new(&format!("{op:?}")).then(op));
    }
    check(
        Pipeline::new("filter-sum-by-key")
            .then(Operator::Filter { lo: 0, hi: u32::MAX / 2 })
            .then(Operator::SumByKey),
    );
}
