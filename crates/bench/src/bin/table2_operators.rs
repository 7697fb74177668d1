//! Table 2: the trusted primitives and the declarative operators they
//! constitute.
//!
//! The operator rows are not typed by hand: each is the [`WindowPlan`] the
//! engine compiles for a one-operator pipeline — the plan every window of
//! that pipeline runs and the declaration the cloud verifier installs.
//! (Windowing itself is the `Segment` every batch runs at ingest, before
//! any plan.) Run with `cargo run -p sbt-bench --bin table2_operators`;
//! writes `target/evaluation/table2_operators.json`.

use sbt_bench::{dump_json, print_table};
use sbt_dataplane::PrimitiveParams;
use sbt_engine::{Operator, PlanOp, WindowPlan};
use sbt_types::{EventTime, PrimitiveKind};
use serde::Serialize;

#[derive(Serialize)]
struct OperatorRow {
    operator: String,
    chain: Vec<String>,
    sides: usize,
    gather: String,
    reduce: Option<String>,
    declared_stages: Vec<String>,
}

fn step((op, params): &PlanOp) -> String {
    match params {
        PrimitiveParams::None => format!("{op:?}"),
        params => format!("{op:?}({params:?})"),
    }
}

fn main() {
    let primitives: Vec<Vec<String>> = PrimitiveKind::TRUSTED_PRIMITIVES
        .iter()
        .map(|p| vec![format!("{p:?}"), p.code().to_string()])
        .collect();
    print_table(
        &format!(
            "Table 2 — the {} trusted primitives exported by the data plane",
            PrimitiveKind::TRUSTED_PRIMITIVES.len()
        ),
        &["primitive", "op code"],
        &primitives,
    );

    let operators = [
        Operator::Filter { lo: 0, hi: 42_949_672 },
        Operator::FilterTime { start: EventTime::ZERO, end: EventTime::from_millis(500) },
        Operator::Sample { every: 10 },
        Operator::SumByKey,
        Operator::AvgPerKey,
        Operator::CountByKey,
        Operator::MedianByKey,
        Operator::Distinct,
        Operator::TopKPerKey { k: 10 },
        Operator::TopK { k: 10 },
        Operator::WindowSum,
        Operator::CountByWindow,
        Operator::WindowAverage,
        Operator::WindowMinMax,
        Operator::WindowMedian,
        Operator::TempJoin,
        Operator::Passthrough,
    ];
    let rows: Vec<OperatorRow> = operators
        .iter()
        .map(|&op| {
            let plan = if op.is_transform() {
                WindowPlan::compile(&[op], Operator::Passthrough)
            } else {
                WindowPlan::compile(&[], op)
            };
            OperatorRow {
                operator: format!("{op:?}"),
                chain: plan.chain.iter().map(step).collect(),
                sides: plan.sides,
                gather: format!("{:?}", plan.gather),
                reduce: plan.reduce.as_ref().map(step),
                declared_stages: plan.spec("", 0).stages.iter().map(|s| format!("{s:?}")).collect(),
            }
        })
        .collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.operator.clone(),
                if r.chain.is_empty() { "—".to_string() } else { r.chain.join(" → ") },
                r.sides.to_string(),
                r.gather.clone(),
                r.reduce.clone().unwrap_or_else(|| "—".to_string()),
            ]
        })
        .collect();
    print_table(
        "Table 2 — declarative operators and the window plans they compile to",
        &["operator", "per-partition chain", "sides", "gather", "reduce"],
        &cells,
    );
    dump_json("table2_operators", &rows);
}
