//! Every operator runs end to end, and its trail is its plan.
//!
//! Each of the 17 operators — plus a `Filter` → `SumByKey` chain — runs
//! through an engine for two windows (`TempJoin` fed on both sides), each
//! window's four batches sent through `ingest_many` on W = 3, so a side's
//! window is three arrays, one per ingest lane, the first holding two
//! batches. The tenant's trail must replay clean against
//! `Pipeline::spec()`, and each window's `Execution` records must name
//! exactly what the pipeline's `WindowPlan` declares: the chain once per
//! array, then one gather per side when the plan gathers, then the reduce.
//! Only a plan with no reduce gathers: a reduce names every array of the
//! window at once (a keyed one reads them as sorted runs, where they lie).

use sbt_attest::{verify_tenant_trail, AuditRecord, UArrayRef, Verifier};
use sbt_engine::{Engine, EngineConfig, EngineVariant, Operator, Pipeline, StreamSide};
use sbt_types::{EventTime, PrimitiveKind};
use sbt_workloads::datasets::synthetic_stream;
use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
use sbt_workloads::transport::Channel;
use std::collections::{BTreeMap, BTreeSet};

const WINDOWS: u32 = 2;
const BATCH: usize = 500;
/// Batches per window and side.
const K: usize = 4;
/// Arrays per window and side: one per ingest lane, W = 3.
const ARRAYS: usize = 3;

/// What one window of `pipeline` runs, read off its compiled plan: the
/// per-array chain, the sides it reads, the gather and the reduce.
fn declared(
    pipeline: &Pipeline,
) -> (Vec<PrimitiveKind>, usize, Option<PrimitiveKind>, Option<PrimitiveKind>) {
    let plan = pipeline.plan();
    let chain = plan.chain.iter().map(|(op, _)| *op).collect();
    (chain, plan.sides, plan.gather, plan.reduce.map(|(op, _)| op))
}

/// Run `pipeline` for [`WINDOWS`] windows of [`K`] batches per side and
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
        let mut batches = Vec::new();
        while let Some(offer) = generator.next_offer() {
            match offer {
                Offer::Batch(delivery) => batches.push(delivery),
                Offer::Watermark(wm) => {
                    engine.ingest_many(std::mem::take(&mut batches), side).unwrap();
                    engine.advance_watermark_on(wm, side).unwrap();
                }
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

    // Appends and arrays per window, and each window's executions: a
    // window's fire ends with its egress, and windows fire one after
    // another.
    let mut windows: BTreeMap<u16, (usize, BTreeSet<UArrayRef>)> = BTreeMap::new();
    // Each execution's primitive and how many arrays it names.
    let mut fires: Vec<Vec<(PrimitiveKind, usize)>> = vec![Vec::new()];
    for record in &records {
        match record {
            AuditRecord::Windowing { win_no, output, .. } => {
                let (appends, arrays) = windows.entry(*win_no).or_default();
                *appends += 1;
                arrays.insert(*output);
            }
            AuditRecord::Execution { op, inputs, .. } => {
                fires.last_mut().unwrap().push((*op, inputs.len()))
            }
            AuditRecord::Egress { .. } => fires.push(Vec::new()),
            _ => {}
        }
    }
    assert_eq!(fires.pop(), Some(Vec::new()), "{name}: nothing runs after the last egress");
    assert_eq!(fires.len(), WINDOWS as usize, "{name}");

    let (chain, sides, gather, reduce) = declared(&pipeline);
    if chain.last() == Some(&PrimitiveKind::Sort) {
        assert_eq!(gather, None, "{name}: a keyed plan gathers nothing");
    }
    for (fire, (win, (appends, arrays))) in fires.iter().zip(&windows) {
        assert_eq!(*appends, K * sides, "{name}: window {win} batches");
        assert_eq!(arrays.len(), ARRAYS * sides, "{name}: window {win} arrays");
        // More than one array a side, so a plan that gathers gathers each.
        let mut expected = chain.repeat(arrays.len());
        expected.extend(gather.into_iter().flat_map(|op| std::iter::repeat_n(op, sides)));
        expected.extend(reduce);
        let ran: Vec<PrimitiveKind> = fire.iter().map(|(op, _)| *op).collect();
        assert_eq!(ran, expected, "{name}: window {win} ran what its plan declares");
        if reduce.is_some() && gather.is_none() {
            let (_, named) = fire.last().expect("the fire reduces");
            assert_eq!(*named, arrays.len(), "{name}: window {win}'s reduce names every array");
        }
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
