//! Declarative stream operators and their compilation onto trusted
//! primitives (Table 2 of the paper).
//!
//! Programmers declare pipelines with the operators in this module.
//! [`WindowPlan::compile`] turns a pipeline's operators into the one plan
//! every window runs: a per-array chain, a gather and a reduce. The
//! engine fires windows from that plan alone, and the cloud verifier's
//! [`sbt_attest::PipelineSpec`] is read off it ([`WindowPlan::spec`]), so
//! the declaration installed on the cloud and what the edge executes are
//! one value.

use sbt_attest::PipelineSpec;
use sbt_dataplane::PrimitiveParams;
use sbt_types::{EventTime, PrimitiveKind};

/// A declarative operator over windowed event streams.
///
/// Transforming operators (the `Filter*`/`Sample` family) map events to
/// events and may appear anywhere before the terminal operator; the terminal
/// operator aggregates the window and ends the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operator {
    /// Keep events whose value lies in `[lo, hi]` (inclusive).
    Filter {
        /// Lower bound (inclusive).
        lo: u32,
        /// Upper bound (inclusive).
        hi: u32,
    },
    /// Keep events whose event time lies in `[start, end)`.
    FilterTime {
        /// Start of the retained range (inclusive).
        start: EventTime,
        /// End of the retained range (exclusive).
        end: EventTime,
    },
    /// Keep every n-th event.
    Sample {
        /// Sampling period.
        every: usize,
    },
    /// Per-key sum and count over the window (GroupBy + Aggregation,
    /// SumByKey / AggregateByKey in Spark Streaming terms).
    SumByKey,
    /// Per-key average over the window (AvgPerKey).
    AvgPerKey,
    /// Per-key event count (CountByKey).
    CountByKey,
    /// Per-key median (MedianByKey).
    MedianByKey,
    /// Distinct keys in the window (Distinct / unique taxis).
    Distinct,
    /// The K largest values per key in the window (TopKPerKey).
    TopKPerKey {
        /// How many values to keep per key.
        k: usize,
    },
    /// The K largest values in the whole window (TopK / CountByWindow style
    /// global aggregations).
    TopK {
        /// How many values to keep.
        k: usize,
    },
    /// Sum of all values in the window (windowed aggregation, WinSum).
    WindowSum,
    /// Count of all events in the window (CountByWindow).
    CountByWindow,
    /// Mean of all values in the window.
    WindowAverage,
    /// Minimum and maximum value in the window.
    WindowMinMax,
    /// Median value of the window.
    WindowMedian,
    /// Temporal equi-join of two input streams within the window (TempJoin).
    TempJoin,
    /// Pass the (possibly filtered) events through unchanged; the window's
    /// events themselves are the result.
    Passthrough,
}

impl Operator {
    /// Whether this operator transforms events to events (and therefore may
    /// be followed by further operators).
    pub fn is_transform(&self) -> bool {
        matches!(
            self,
            Operator::Filter { .. } | Operator::FilterTime { .. } | Operator::Sample { .. }
        )
    }

    /// The trusted primitive this operator runs, its parameters, and whether
    /// it reads key runs (and so needs its input sorted). `None` for
    /// [`Operator::Passthrough`], which runs nothing.
    fn primitive(&self) -> Option<(PrimitiveKind, PrimitiveParams, bool)> {
        use PrimitiveKind as P;
        let none = PrimitiveParams::None;
        Some(match *self {
            Operator::Filter { lo, hi } => (P::FilterBand, PrimitiveParams::Band { lo, hi }, false),
            Operator::FilterTime { start, end } => {
                (P::FilterTime, PrimitiveParams::TimeRange { start, end }, false)
            }
            Operator::Sample { every } => (P::Sample, PrimitiveParams::Every(every), false),
            Operator::SumByKey => (P::SumCnt, none, true),
            Operator::AvgPerKey => (P::AveragePerKey, none, true),
            Operator::CountByKey => (P::CountPerKey, none, true),
            Operator::MedianByKey => (P::MedianPerKey, none, true),
            Operator::Distinct => (P::Unique, none, true),
            Operator::TopKPerKey { k } => (P::TopKPerKey, PrimitiveParams::K(k), true),
            Operator::TempJoin => (P::Join, none, true),
            Operator::TopK { k } => (P::TopK, PrimitiveParams::K(k), false),
            Operator::WindowSum => (P::Sum, none, false),
            Operator::CountByWindow => (P::Count, none, false),
            Operator::WindowAverage => (P::Average, none, false),
            Operator::WindowMinMax => (P::MinMax, none, false),
            Operator::WindowMedian => (P::Median, none, false),
            Operator::Passthrough => return None,
        })
    }
}

/// One trusted primitive of a plan, with its parameters.
pub type PlanOp = (PrimitiveKind, PrimitiveParams);

/// What every window of a pipeline runs, compiled once from its operators.
///
/// A window fires in two steps. Each of a side's arrays (one per ingest
/// lane, at most W) runs `chain`; then one tail list gathers each side's
/// arrays with `gather`, applies `reduce` (if any) and egresses the result.
/// The verifier's declaration is read off the same plan
/// ([`WindowPlan::spec`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPlan {
    /// Run on every array, in order: each transform, then `Sort` when the
    /// reduce reads key runs.
    pub chain: Vec<PlanOp>,
    /// Stream sides the plan reads: 2 for [`Operator::TempJoin`], else 1.
    pub sides: usize,
    /// How a side's arrays become one: `MergeK` over sorted runs when the
    /// reduce is keyed, `Concat` when there is no reduce and one array is
    /// egressed; `None` when an unkeyed reduce reads them all directly.
    pub gather: Option<PrimitiveKind>,
    /// Applied to the gathered sides; `None` egresses the gathered events.
    pub reduce: Option<PlanOp>,
}

impl WindowPlan {
    /// Compile a pipeline's `transforms` (event-to-event operators, in
    /// order) and its `terminal` operator.
    ///
    /// # Panics
    /// Panics if a transform is passed as the terminal or a terminal among
    /// the transforms ([`crate::Pipeline::then`] never builds either).
    pub fn compile(transforms: &[Operator], terminal: Operator) -> WindowPlan {
        assert!(!terminal.is_transform(), "not a terminal operator: {terminal:?}");
        let reduce = terminal.primitive();
        let keyed = matches!(reduce, Some((_, _, true)));
        let mut chain: Vec<PlanOp> = transforms
            .iter()
            .map(|t| match t.primitive() {
                Some((op, params, _)) if t.is_transform() => (op, params),
                _ => panic!("not a transform operator: {t:?}"),
            })
            .collect();
        if keyed {
            chain.push((PrimitiveKind::Sort, PrimitiveParams::None));
        }
        WindowPlan {
            chain,
            sides: if terminal == Operator::TempJoin { 2 } else { 1 },
            gather: match reduce {
                Some((_, _, true)) => Some(PrimitiveKind::MergeK),
                Some(_) => None,
                None => Some(PrimitiveKind::Concat),
            },
            reduce: reduce.map(|(op, params, _)| (op, params)),
        }
    }

    /// The verifier's declaration of this plan: the chain's primitives,
    /// then the reduce's.
    pub fn spec(&self, name: &str, target_delay_ms: u32) -> PipelineSpec {
        let stages = self.chain.iter().chain(&self.reduce).map(|(op, _)| *op).collect();
        PipelineSpec::new(name, stages, target_delay_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_classification() {
        assert!(Operator::Filter { lo: 0, hi: 1 }.is_transform());
        assert!(Operator::Sample { every: 2 }.is_transform());
        assert!(!Operator::WindowSum.is_transform());
        assert!(!Operator::TempJoin.is_transform());
    }

    #[test]
    fn transform_primitives_carry_their_params() {
        let plan = WindowPlan::compile(
            &[Operator::Filter { lo: 5, hi: 9 }, Operator::Sample { every: 3 }],
            Operator::TopK { k: 4 },
        );
        assert_eq!(
            plan,
            WindowPlan {
                chain: vec![
                    (PrimitiveKind::FilterBand, PrimitiveParams::Band { lo: 5, hi: 9 }),
                    (PrimitiveKind::Sample, PrimitiveParams::Every(3)),
                ],
                sides: 1,
                gather: None,
                reduce: Some((PrimitiveKind::TopK, PrimitiveParams::K(4))),
            }
        );
        let passthrough = WindowPlan::compile(&[], Operator::Passthrough);
        assert_eq!((passthrough.gather, passthrough.reduce), (Some(PrimitiveKind::Concat), None));
    }

    #[test]
    #[should_panic(expected = "not a transform operator")]
    fn terminal_operator_has_no_transform_primitive() {
        let _ = WindowPlan::compile(&[Operator::WindowSum], Operator::Passthrough);
    }

    #[test]
    #[should_panic(expected = "not a terminal operator")]
    fn transform_operator_has_no_reduce_kind() {
        let _ = WindowPlan::compile(&[], Operator::Filter { lo: 0, hi: 1 });
    }

    #[test]
    fn grouped_operators_compile_to_sort_plus_grouped_primitive() {
        let plan =
            WindowPlan::compile(&[Operator::Sample { every: 2 }], Operator::TopKPerKey { k: 3 });
        assert_eq!(
            plan.chain,
            vec![
                (PrimitiveKind::Sample, PrimitiveParams::Every(2)),
                (PrimitiveKind::Sort, PrimitiveParams::None),
            ]
        );
        assert_eq!(plan.gather, Some(PrimitiveKind::MergeK));
        assert_eq!(plan.reduce, Some((PrimitiveKind::TopKPerKey, PrimitiveParams::K(3))));
        let join = WindowPlan::compile(&[], Operator::TempJoin);
        assert_eq!((join.sides, join.gather), (2, Some(PrimitiveKind::MergeK)));
        assert_eq!(join.chain, vec![(PrimitiveKind::Sort, PrimitiveParams::None)]);
    }

    #[test]
    fn spec_derivation_matches_plan_shapes() {
        let stages = |transforms: &[Operator], terminal| {
            WindowPlan::compile(transforms, terminal).spec("p", 20).stages
        };
        assert_eq!(stages(&[], Operator::WindowSum), vec![PrimitiveKind::Sum]);
        assert_eq!(
            stages(&[], Operator::TopKPerKey { k: 10 }),
            vec![PrimitiveKind::Sort, PrimitiveKind::TopKPerKey]
        );
        assert_eq!(
            stages(&[Operator::Filter { lo: 0, hi: 100 }], Operator::Distinct),
            vec![PrimitiveKind::FilterBand, PrimitiveKind::Sort, PrimitiveKind::Unique]
        );
        assert_eq!(stages(&[], Operator::TempJoin), vec![PrimitiveKind::Sort, PrimitiveKind::Join]);
        assert!(stages(&[], Operator::Passthrough).is_empty());
    }
}
