//! Table 2: the trusted primitives and the declarative operators they
//! constitute.
//!
//! Run with `cargo run -p sbt-bench --bin table2_operators`.

use sbt_bench::print_table;
use sbt_types::PrimitiveKind;

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

    let operators = vec![
        ("Windowing", "Segment"),
        ("GroupByKey / SumByKey / AggregateByKey", "Sort + MergeK + SumCnt"),
        ("AvgPerKey", "Sort + MergeK + SumCnt"),
        ("CountByKey", "Sort + MergeK + CountPerKey"),
        ("MedianByKey", "Sort + MergeK + MedianPerKey"),
        ("Distinct", "Sort + MergeK + Unique"),
        ("TopKPerKey", "Sort + MergeK + TopKPerKey"),
        ("CountByWindow", "Concat + Count"),
        ("Windowed aggregation (WinSum)", "Concat + Sum"),
        ("Windowed average / min / max / median", "Concat + Average / MinMax / Median"),
        ("Filter", "FilterBand / FilterTime"),
        ("Sample", "Sample"),
        ("Projection", "Project"),
        ("TempJoin", "Sort + MergeK + Join"),
        ("Union", "Union"),
    ];
    let rows: Vec<Vec<String>> =
        operators.iter().map(|(o, p)| vec![o.to_string(), p.to_string()]).collect();
    print_table(
        "Table 2 — declarative operators and the primitives they compile to",
        &["operator (Spark-Streaming-style)", "trusted primitives"],
        &rows,
    );
}
