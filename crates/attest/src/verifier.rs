//! The cloud verifier: symbolic replay of audit records (§7).
//!
//! The verifier holds its own copy of the pipeline declaration — the
//! per-window chain of trusted primitives that windowed data must flow
//! through — and replays the audit records *symbolically* (no actual
//! computation) to check:
//!
//! * **Correctness.** Every ingested data uArray is segmented into windows;
//!   every per-window dataflow uses only declared primitives, applies them
//!   in declaration order, and covers every declared stage before the
//!   window's results are externalized; an egressed uArray has itself
//!   passed the last declared stage; once any later window has produced
//!   results, earlier windows must have produced theirs too. Deviations —
//!   dropped data, skipped or reordered primitives, undeclared computations,
//!   uArrays conjured out of thin air, an intermediate egressed as a
//!   result, missing egress — are reported as violations.
//! * **Freshness.** For each egress, the verifier identifies the watermark
//!   that triggered it and computes the output delay (egress timestamp minus
//!   watermark ingress timestamp), flagging results whose delay exceeds the
//!   deployment's target.
//! * **Hint honesty.** Malformed hints — more hints than outputs, or a
//!   consumed-in-parallel hint whose index is not below its sibling count —
//!   are violations. Consumed-after hints whose promised consumption order
//!   contradicts the observed execution order are counted as misleading.
//!
//! A window array grows in place: each batch routed to it leaves a
//! `Windowing` record naming the same output, which is accepted while the
//! array is unconsumed and under the window it opened in; an append after
//! its consumption, or under another window, is a violation. The control
//! plane parallelizes work (a window's arrays sorted apart, then read
//! together by one reduce), so a window's dataflow is a DAG. The
//! declaration lists *required stages* in order, plus *structural*
//! primitives (Merge, Concat, …) allowed anywhere between them; the replay
//! checks that every root's dataflow progresses monotonically through the
//! stages and that each window's, taken together, covers all of them. It is
//! one pass into one table with an entry per uArray, then a finish step for
//! what needs the whole trail. The report is a deterministic function of
//! the records: per-record violations in trail order, then unwindowed
//! ingress, window checks by window and stale results by egress. Only
//! record structure is needed, never the stream data, which never leaves
//! the edge TEE unencrypted.

use crate::record::{split_hint, AuditRecord, DataRef, HintWord, UArrayRef};
use sbt_types::PrimitiveKind;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The verifier's copy of a pipeline declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSpec {
    /// Human-readable name (for reports).
    pub name: String,
    /// Ordered chain of required per-window primitives (excluding Windowing
    /// itself and excluding structural primitives).
    pub stages: Vec<PrimitiveKind>,
    /// Primitives the control plane may interleave anywhere for plumbing
    /// (partition merging, concatenation); allowed but not required.
    pub structural: Vec<PrimitiveKind>,
    /// Target output delay in milliseconds (freshness bound).
    pub target_delay_ms: u32,
}

impl PipelineSpec {
    /// Create a spec with the default structural set (Merge, MergeK, Concat,
    /// Union).
    pub fn new(name: &str, stages: Vec<PrimitiveKind>, target_delay_ms: u32) -> Self {
        PipelineSpec {
            name: name.to_string(),
            stages,
            structural: vec![
                PrimitiveKind::Merge,
                PrimitiveKind::MergeK,
                PrimitiveKind::Concat,
                PrimitiveKind::Union,
            ],
            target_delay_ms,
        }
    }

    /// Create a spec with an explicit structural set.
    pub fn with_structural(
        name: &str,
        stages: Vec<PrimitiveKind>,
        structural: Vec<PrimitiveKind>,
        target_delay_ms: u32,
    ) -> Self {
        PipelineSpec { name: name.to_string(), stages, structural, target_delay_ms }
    }

    fn stage_index(&self, op: PrimitiveKind) -> Option<usize> {
        self.stages.iter().position(|s| *s == op)
    }

    fn is_structural(&self, op: PrimitiveKind) -> bool {
        self.structural.contains(&op)
    }
}

/// A correctness violation discovered during replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An ingested data uArray never reached the Windowing primitive.
    UnwindowedIngress(UArrayRef),
    /// A batch was appended to a window array after that array was
    /// consumed: no result can hold the batch.
    AppendAfterConsumption {
        /// The window array.
        array: UArrayRef,
        /// The window the append names.
        win_no: u16,
    },
    /// A batch was appended to an array that opened under another window
    /// (or is no window array at all).
    CrossWindowAppend {
        /// The array appended to.
        array: UArrayRef,
        /// The window the append names.
        win_no: u16,
    },
    /// A primitive consumed a uArray the data plane never produced/ingested.
    UnknownInput {
        /// The offending primitive.
        op: PrimitiveKind,
        /// The unknown uArray id.
        input: UArrayRef,
    },
    /// A primitive ran on window data although the declaration never
    /// mentions it.
    UndeclaredPrimitive {
        /// The root (windowed uArray) whose dataflow contained it.
        root: UArrayRef,
        /// The undeclared primitive.
        op: PrimitiveKind,
    },
    /// Declared primitives ran in an order contradicting the declaration.
    OutOfOrderPrimitive {
        /// The root (windowed uArray) whose dataflow regressed.
        root: UArrayRef,
        /// The primitive observed out of order.
        op: PrimitiveKind,
        /// The declared stage index the dataflow had already passed.
        after_stage: usize,
    },
    /// A window's dataflow never executed one of the declared stages even
    /// though its results were externalized (or a later window's were).
    IncompleteWindow {
        /// The window sequence number.
        win_no: u16,
        /// The declared stage that never ran.
        missing: PrimitiveKind,
    },
    /// A window completed (a later window egressed) but its own results
    /// never egressed.
    MissingEgress {
        /// The window sequence number.
        win_no: u16,
    },
    /// An egressed uArray does not derive from any windowed dataflow.
    UntraceableEgress(UArrayRef),
    /// An egressed uArray whose dataflow had not passed the last declared
    /// stage: an intermediate (a sort output, a raw window), not a result.
    IntermediateEgress(UArrayRef),
    /// An egress result whose output delay exceeded the freshness target.
    StaleResult {
        /// The egressed uArray.
        uarray: UArrayRef,
        /// Observed delay in milliseconds.
        delay_ms: u32,
        /// The freshness target it violated.
        target_ms: u32,
    },
    /// Records appeared after the tenant's departure record — the trail
    /// claims activity from a namespace that had already been torn down.
    PostDepartureActivity,
    /// An execution carries more hints than outputs; a hint annotates one
    /// output position, so the data plane never attests more.
    ExcessHints {
        /// The hinted primitive.
        op: PrimitiveKind,
        /// Hints the record carries.
        hints: usize,
        /// Outputs the record carries.
        outputs: usize,
    },
    /// A consumed-in-parallel hint names a sibling outside `0..k`.
    BadParallelHint {
        /// The hinted primitive.
        op: PrimitiveKind,
        /// The sibling count the hint claims.
        k: u32,
        /// The sibling index the hint claims.
        index: u32,
    },
}

/// Per-result freshness measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FreshnessReport {
    /// Output delay of every traceable egress, in milliseconds.
    pub delays_ms: Vec<u32>,
}

impl FreshnessReport {
    /// Maximum observed output delay.
    pub fn max_delay_ms(&self) -> u32 {
        self.delays_ms.iter().copied().max().unwrap_or(0)
    }

    /// Mean observed output delay.
    pub fn avg_delay_ms(&self) -> f64 {
        if self.delays_ms.is_empty() {
            return 0.0;
        }
        self.delays_ms.iter().map(|d| *d as f64).sum::<f64>() / self.delays_ms.len() as f64
    }
}

/// The outcome of replaying one audit-record stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerificationReport {
    /// All correctness and freshness violations found.
    pub violations: Vec<Violation>,
    /// Freshness measurements for traceable results.
    pub freshness: FreshnessReport,
    /// Number of records replayed.
    pub records_replayed: usize,
    /// Number of data uArrays ingested.
    pub ingested_uarrays: usize,
    /// Number of watermarks ingested.
    pub watermarks: usize,
    /// Number of results egressed.
    pub egressed: usize,
    /// Consumed-after hints whose promise contradicted observed order.
    pub misleading_hints: usize,
    /// Number of key-epoch rotations recorded in the trail.
    pub rekeys: usize,
    /// Number of checkpoint records (sealed and resumed) in the trail.
    pub checkpoints: usize,
    /// Whether the trail contains a resume-from-checkpoint record (the
    /// tenant was restored from a sealed snapshot at least once).
    pub resumed: bool,
    /// Whether the trail carries the tenant's departure record. Departure
    /// is terminal: any record after it raises
    /// [`Violation::PostDepartureActivity`].
    pub departed: bool,
}

impl VerificationReport {
    /// Whether the replay found no violations.
    pub fn is_correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The cloud verifier.
pub struct Verifier {
    spec: PipelineSpec,
}

impl Verifier {
    /// Create a verifier for a pipeline declaration.
    pub fn new(spec: PipelineSpec) -> Self {
        Verifier { spec }
    }

    /// The pipeline declaration being verified against.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Replay a complete audit-record stream and produce a report.
    pub fn replay(&self, records: &[AuditRecord]) -> VerificationReport {
        let mut report =
            VerificationReport { records_replayed: records.len(), ..Default::default() };
        let violations = &mut report.violations;
        let stages = &self.spec.stages;
        // An egressed array must have passed the last declared stage.
        let terminal = stages.last().and_then(|s| self.spec.stage_index(*s)).map_or(0, |i| i + 1);

        let mut arrays: HashMap<UArrayRef, ArrayState> = HashMap::new();
        // Per window, which declared stages its dataflow ran, by position.
        let mut windows: BTreeMap<u16, Vec<bool>> = BTreeMap::new();
        // Data uArrays in the order of their first ingress.
        let mut ingressed: Vec<UArrayRef> = Vec::new();
        let mut watermark_ts: Vec<u32> = Vec::new();
        let mut egresses: Vec<(UArrayRef, u32)> = Vec::new();
        // (predecessor, hinted output) of every consumed-after hint.
        let mut consumed_after: Vec<(UArrayRef, UArrayRef)> = Vec::new();

        let mut post_departure_flagged = false;
        for rec in records {
            // Departure is terminal: a torn-down namespace records nothing.
            if report.departed && !std::mem::replace(&mut post_departure_flagged, true) {
                violations.push(Violation::PostDepartureActivity);
            }
            match rec {
                AuditRecord::Ingress { ts_ms, data } => match data {
                    DataRef::UArray(id) => {
                        if !std::mem::replace(&mut arrays.entry(*id).or_default().ingressed, true) {
                            ingressed.push(*id);
                        }
                        report.ingested_uarrays += 1;
                    }
                    DataRef::Watermark(_) => {
                        watermark_ts.push(*ts_ms);
                        report.watermarks += 1;
                    }
                },
                AuditRecord::Windowing { ts_ms, input, win_no, output } => {
                    let array = arrays.entry(*input).or_default();
                    if !(array.ingressed || array.produced_at.is_some()) {
                        violations.push(Violation::UnknownInput {
                            op: PrimitiveKind::Segment,
                            input: *input,
                        });
                    }
                    array.windowed = true;
                    array.first_consumed_at.get_or_insert(*ts_ms);
                    let root = arrays.entry(*output).or_default();
                    let (array, win_no) = (*output, *win_no);
                    match root.lineage {
                        // A later batch appended to an open window array.
                        Some(l) if l.root != array || l.win_no != win_no => {
                            violations.push(Violation::CrossWindowAppend { array, win_no })
                        }
                        Some(_) if root.first_consumed_at.is_some() => {
                            violations.push(Violation::AppendAfterConsumption { array, win_no })
                        }
                        Some(_) => {}
                        None => root.lineage = Some(Lineage { passed: 0, root: array, win_no }),
                    }
                    root.produced_at = Some(*ts_ms);
                    windows.entry(win_no).or_insert_with(|| vec![false; stages.len()]);
                }
                AuditRecord::Execution { ts_ms, op, inputs, outputs, hints } => {
                    for input in inputs {
                        let array = arrays.entry(*input).or_default();
                        if !(array.ingressed || array.produced_at.is_some()) {
                            violations.push(Violation::UnknownInput { op: *op, input: *input });
                        }
                        array.first_consumed_at.get_or_insert(*ts_ms);
                    }
                    if hints.len() > outputs.len() {
                        let (hints, outputs) = (hints.len(), outputs.len());
                        violations.push(Violation::ExcessHints { op: *op, hints, outputs });
                    }
                    for &h in hints {
                        match split_hint(h) {
                            HintWord::After(pred) => consumed_after.extend(
                                outputs.first().map(|out0| (UArrayRef(pred as u32), *out0)),
                            ),
                            HintWord::Parallel { k, index } if index >= k => {
                                violations.push(Violation::BadParallelHint { op: *op, k, index })
                            }
                            HintWord::Parallel { .. } => {}
                        }
                    }
                    // Dataflow: the outputs continue the furthest-staged input's
                    // lineage (the last such; a root ties with a stage-0 output).
                    let inherited = inputs
                        .iter()
                        .filter_map(|i| arrays[i].lineage)
                        .max_by_key(|l| l.passed.max(1));
                    let mut next = inherited;
                    if let Some(l) = inherited {
                        if let Some(idx) = self.spec.stage_index(*op) {
                            if idx + 1 < l.passed {
                                violations.push(Violation::OutOfOrderPrimitive {
                                    root: l.root,
                                    op: *op,
                                    after_stage: l.passed - 1,
                                });
                            }
                            let window = windows.get_mut(&l.win_no).expect("opened by Windowing");
                            for (covered, stage) in window.iter_mut().zip(stages) {
                                *covered |= stage == op;
                            }
                            next = Some(Lineage { passed: l.passed.max(idx + 1), ..l });
                        } else if !self.spec.is_structural(*op) {
                            violations
                                .push(Violation::UndeclaredPrimitive { root: l.root, op: *op });
                        }
                    }
                    for output in outputs {
                        let array = arrays.entry(*output).or_default();
                        array.produced_at = Some(*ts_ms);
                        if next.is_some() {
                            array.lineage = next;
                        }
                    }
                }
                AuditRecord::Egress { ts_ms, data } => {
                    let array = arrays.entry(*data).or_default();
                    if array.lineage.is_none() {
                        violations.push(Violation::UntraceableEgress(*data));
                    } else if array.lineage.is_some_and(|l| l.passed < terminal) {
                        violations.push(Violation::IntermediateEgress(*data));
                    }
                    egresses.push((*data, *ts_ms));
                    report.egressed += 1;
                    array.first_consumed_at.get_or_insert(*ts_ms);
                }
                // Key-lifecycle records don't participate in dataflow; each
                // segment verifies only under its epoch's key.
                AuditRecord::Rekey { .. } => report.rekeys += 1,
                AuditRecord::Departure { .. } => report.departed = true,
                // Checkpoint records don't participate in dataflow either:
                // stitching enforces their seal/resume chain, and restored
                // windows re-enter as re-announced Ingress + Windowing records.
                AuditRecord::Checkpoint { resumed, .. } => {
                    report.checkpoints += 1;
                    report.resumed |= *resumed;
                }
            }
        }

        // Finish: what only the whole trail decides. Every ingested data
        // uArray must have been windowed.
        for id in &ingressed {
            if !arrays[id].windowed {
                violations.push(Violation::UnwindowedIngress(*id));
            }
        }

        // Stage coverage: a window that egressed, or precedes one that did
        // (by its array's final lineage), must have run every declared stage.
        let egressed: BTreeSet<u16> =
            egresses.iter().filter_map(|(id, _)| Some(arrays[id].lineage?.win_no)).collect();
        if let Some(&last) = egressed.last() {
            for (win_no, ran) in windows.range(..=last) {
                for (stage, _) in stages.iter().zip(ran).filter(|(_, ran)| !**ran) {
                    violations
                        .push(Violation::IncompleteWindow { win_no: *win_no, missing: *stage });
                }
                if !egressed.contains(win_no) {
                    violations.push(Violation::MissingEgress { win_no: *win_no });
                }
            }
        }

        // Freshness: the trigger is the latest watermark ingested at or before
        // the array was produced; concurrent lists ingest them out of order.
        watermark_ts.sort_unstable();
        let target_ms = self.spec.target_delay_ms;
        for (id, egress_ts) in &egresses {
            let produce_ts = arrays[id].produced_at.unwrap_or(*egress_ts);
            let triggers = &watermark_ts[..watermark_ts.partition_point(|ts| *ts <= produce_ts)];
            if let Some(&wm_ts) = triggers.last() {
                let delay_ms = egress_ts.saturating_sub(wm_ts);
                report.freshness.delays_ms.push(delay_ms);
                if delay_ms > target_ms {
                    violations.push(Violation::StaleResult { uarray: *id, delay_ms, target_ms });
                }
            }
        }

        // Hint honesty: a hinted output consumed before its promised predecessor.
        let first_consumed = |id| arrays.get(id).and_then(|a: &ArrayState| a.first_consumed_at);
        report.misleading_hints = consumed_after
            .iter()
            .filter_map(|(pred, succ)| first_consumed(pred).zip(first_consumed(succ)))
            .filter(|(pred_ts, succ_ts)| succ_ts < pred_ts)
            .count();

        report
    }
}

/// What the replay knows about one uArray id.
#[derive(Debug, Default)]
struct ArrayState {
    /// Entered the TEE as an ingested data uArray.
    ingressed: bool,
    /// Consumed by a Windowing record.
    windowed: bool,
    /// The windowed dataflow the array belongs to, if any.
    lineage: Option<Lineage>,
    /// Timestamp of the last record that produced it. An input neither
    /// ingested nor produced before is unknown: conjured out of thin air.
    produced_at: Option<u32>,
    /// Timestamp of the first record that consumed it.
    first_consumed_at: Option<u32>,
}

/// Where an array sits in its window's declared dataflow.
#[derive(Debug, Clone, Copy)]
struct Lineage {
    /// Declared stages passed: one past the furthest stage index, 0 for a root.
    passed: usize,
    /// The Windowing output the dataflow started from.
    root: UArrayRef,
    /// Its window.
    win_no: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the audit records of an honest run of a WinSum-like pipeline
    /// with `batches_per_window` parallel partitions per window:
    /// per window: ingress×B -> windowing×B -> Sort×B -> Merge (tree) ->
    /// Sum -> egress, triggered by a watermark per window.
    fn honest_run(windows: u32, batches_per_window: u32) -> Vec<AuditRecord> {
        let mut records = Vec::new();
        let mut next_id = 0u32;
        let mut ts = 0u32;
        let fresh = |next_id: &mut u32| {
            let id = UArrayRef(*next_id);
            *next_id += 1;
            id
        };
        for w in 0..windows {
            let mut sorted_ids = Vec::new();
            for _ in 0..batches_per_window {
                let ingress = fresh(&mut next_id);
                records.push(AuditRecord::Ingress { ts_ms: ts, data: DataRef::UArray(ingress) });
                ts += 1;
                let windowed = fresh(&mut next_id);
                records.push(AuditRecord::Windowing {
                    ts_ms: ts,
                    input: ingress,
                    win_no: w as u16,
                    output: windowed,
                });
                ts += 1;
                let sorted = fresh(&mut next_id);
                records.push(AuditRecord::Execution {
                    ts_ms: ts,
                    op: PrimitiveKind::Sort,
                    inputs: [windowed].into(),
                    outputs: [sorted].into(),
                    hints: vec![],
                });
                ts += 1;
                sorted_ids.push(sorted);
            }
            // Watermark completing window w arrives, triggering the reduction.
            records
                .push(AuditRecord::Ingress { ts_ms: ts, data: DataRef::Watermark((w + 1) * 1000) });
            ts += 1;
            // Pairwise merge tree.
            while sorted_ids.len() > 1 {
                let a = sorted_ids.remove(0);
                let b = sorted_ids.remove(0);
                let merged = fresh(&mut next_id);
                records.push(AuditRecord::Execution {
                    ts_ms: ts,
                    op: PrimitiveKind::Merge,
                    inputs: [a, b].into(),
                    outputs: [merged].into(),
                    hints: vec![],
                });
                ts += 1;
                sorted_ids.push(merged);
            }
            let summed = fresh(&mut next_id);
            records.push(AuditRecord::Execution {
                ts_ms: ts,
                op: PrimitiveKind::Sum,
                inputs: [sorted_ids[0]].into(),
                outputs: [summed].into(),
                hints: vec![],
            });
            ts += 2;
            records.push(AuditRecord::Egress { ts_ms: ts, data: summed });
            ts += 1;
        }
        records
    }

    fn spec() -> PipelineSpec {
        PipelineSpec::new("winsum", vec![PrimitiveKind::Sort, PrimitiveKind::Sum], 100)
    }

    #[test]
    fn honest_linear_run_verifies_clean() {
        let records = honest_run(5, 1);
        let report = Verifier::new(spec()).replay(&records);
        assert!(report.is_correct(), "violations: {:?}", report.violations);
        assert_eq!(report.ingested_uarrays, 5);
        assert_eq!(report.watermarks, 5);
        assert_eq!(report.egressed, 5);
        assert_eq!(report.freshness.delays_ms.len(), 5);
        assert!(report.freshness.max_delay_ms() <= 20);
        assert_eq!(report.misleading_hints, 0);
    }

    #[test]
    fn honest_parallel_run_with_merge_tree_verifies_clean() {
        let records = honest_run(3, 4);
        let report = Verifier::new(spec()).replay(&records);
        assert!(report.is_correct(), "violations: {:?}", report.violations);
        assert_eq!(report.ingested_uarrays, 12);
        assert_eq!(report.egressed, 3);
    }

    #[test]
    fn dropped_data_is_detected() {
        // Remove the Windowing record of one batch: its ingress uArray is
        // never processed.
        let mut records = honest_run(3, 2);
        let pos = records
            .iter()
            .position(|r| matches!(r, AuditRecord::Windowing { win_no: 1, .. }))
            .unwrap();
        records.remove(pos);
        let report = Verifier::new(spec()).replay(&records);
        assert!(!report.is_correct());
        assert!(report.violations.iter().any(|v| matches!(v, Violation::UnwindowedIngress(_))));

        // Two dropped batches are reported in trail order, on every replay.
        let mut records = honest_run(3, 2);
        let mut expected = Vec::new();
        for w in [0, 2] {
            let pos = records
                .iter()
                .position(|r| matches!(r, AuditRecord::Windowing { win_no, .. } if *win_no == w))
                .unwrap();
            if let AuditRecord::Windowing { input, .. } = records.remove(pos) {
                expected.push(Violation::UnwindowedIngress(input));
            }
        }
        let first = Verifier::new(spec()).replay(&records);
        let unwindowed: Vec<Violation> = first
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::UnwindowedIngress(_)))
            .cloned()
            .collect();
        assert_eq!(unwindowed, expected);
        for _ in 0..20 {
            assert_eq!(Verifier::new(spec()).replay(&records), first);
        }
    }

    #[test]
    fn skipped_stage_is_detected() {
        // Remove every Sort execution of window 0: the window's dataflow
        // misses a declared stage.
        let records = honest_run(2, 1);
        let records: Vec<AuditRecord> = records
            .into_iter()
            .filter(|r| {
                !matches!(
                    r,
                    AuditRecord::Execution { op: PrimitiveKind::Sort, inputs, .. }
                    if inputs.iter().any(|i| i.0 <= 1)
                )
            })
            .collect();
        let report = Verifier::new(spec()).replay(&records);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            Violation::IncompleteWindow { missing: PrimitiveKind::Sort, .. }
        )));
    }

    #[test]
    fn out_of_order_stages_are_detected() {
        // Declare the reverse order: the honest log now violates it.
        let records = honest_run(2, 1);
        let wrong_spec =
            PipelineSpec::new("winsum", vec![PrimitiveKind::Sum, PrimitiveKind::Sort], 100);
        let report = Verifier::new(wrong_spec).replay(&records);
        assert!(!report.is_correct());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::OutOfOrderPrimitive { .. })));
    }

    #[test]
    fn undeclared_primitive_is_detected() {
        // The control plane sneaks in a TopK over window data that the
        // declaration never mentions.
        let mut records = honest_run(1, 1);
        let sorted_output = records
            .iter()
            .find_map(|r| match r {
                AuditRecord::Execution { op: PrimitiveKind::Sort, outputs, .. } => Some(outputs[0]),
                _ => None,
            })
            .unwrap();
        records.push(AuditRecord::Execution {
            ts_ms: 500,
            op: PrimitiveKind::TopK,
            inputs: [sorted_output].into(),
            outputs: [UArrayRef(700)].into(),
            hints: vec![],
        });
        let report = Verifier::new(spec()).replay(&records);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UndeclaredPrimitive { op: PrimitiveKind::TopK, .. })));
    }

    #[test]
    fn fabricated_input_is_detected() {
        let mut records = honest_run(1, 1);
        records.push(AuditRecord::Execution {
            ts_ms: 999,
            op: PrimitiveKind::Sum,
            inputs: [UArrayRef(12345)].into(),
            outputs: [UArrayRef(12346)].into(),
            hints: vec![],
        });
        let report = Verifier::new(spec()).replay(&records);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnknownInput { input: UArrayRef(12345), .. })));
    }

    #[test]
    fn missing_egress_for_completed_window_is_detected() {
        // Drop window 0's egress while window 1 still egresses.
        let mut records = honest_run(2, 1);
        let pos = records.iter().position(|r| matches!(r, AuditRecord::Egress { .. })).unwrap();
        records.remove(pos);
        let report = Verifier::new(spec()).replay(&records);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MissingEgress { win_no: 0 })));

        // Windows 0 and 1 neither reduce nor egress behind an egressed
        // window 2: each reports its missing stage and its missing egress,
        // in window order.
        let mut records = honest_run(3, 1);
        let withheld: Vec<UArrayRef> = records
            .iter()
            .filter_map(|r| match r {
                AuditRecord::Egress { data, .. } => Some(*data),
                _ => None,
            })
            .take(2)
            .collect();
        records.retain(|r| match r {
            AuditRecord::Egress { data, .. } => !withheld.contains(data),
            AuditRecord::Execution { outputs, .. } => !withheld.contains(&outputs[0]),
            _ => true,
        });
        let sum = PrimitiveKind::Sum;
        assert_eq!(
            Verifier::new(spec()).replay(&records).violations,
            vec![
                Violation::IncompleteWindow { win_no: 0, missing: sum },
                Violation::MissingEgress { win_no: 0 },
                Violation::IncompleteWindow { win_no: 1, missing: sum },
                Violation::MissingEgress { win_no: 1 },
            ]
        );
    }

    #[test]
    fn delayed_results_violate_freshness() {
        let mut records = honest_run(2, 1);
        for r in &mut records {
            if let AuditRecord::Egress { ts_ms, .. } = r {
                *ts_ms += 10_000;
            }
        }
        let report = Verifier::new(spec()).replay(&records);
        assert!(report.violations.iter().any(|v| matches!(v, Violation::StaleResult { .. })));
        assert!(report.freshness.max_delay_ms() > 100);

        // Watermark timestamps out of trail order (concurrent lists): the
        // trigger is the latest one at or before the result was produced,
        // not the last one ingested before it.
        let data = |id| AuditRecord::Ingress { ts_ms: 0, data: DataRef::UArray(UArrayRef(id)) };
        let wm = |ts_ms| AuditRecord::Ingress { ts_ms, data: DataRef::Watermark(1000) };
        let exec = |ts_ms, op, input, output| AuditRecord::Execution {
            ts_ms,
            op,
            inputs: [UArrayRef(input)].into(),
            outputs: [UArrayRef(output)].into(),
            hints: vec![],
        };
        let records = vec![
            data(0),
            AuditRecord::Windowing {
                ts_ms: 1,
                input: UArrayRef(0),
                win_no: 0,
                output: UArrayRef(1),
            },
            wm(40),
            wm(25),
            wm(10),
            wm(90),
            exec(30, PrimitiveKind::Sort, 1, 2),
            exec(30, PrimitiveKind::Sum, 2, 3),
            AuditRecord::Egress { ts_ms: 180, data: UArrayRef(3) },
        ];
        let report = Verifier::new(spec()).replay(&records);
        assert_eq!(report.freshness.delays_ms, vec![155]);
        assert_eq!(
            report.violations,
            vec![Violation::StaleResult { uarray: UArrayRef(3), delay_ms: 155, target_ms: 100 }]
        );
    }

    #[test]
    fn untraceable_egress_is_detected() {
        let mut records = honest_run(1, 1);
        records.push(AuditRecord::Egress { ts_ms: 1000, data: UArrayRef(9999) });
        let report = Verifier::new(spec()).replay(&records);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UntraceableEgress(UArrayRef(9999)))));
    }

    #[test]
    fn intermediate_egress_is_detected() {
        // Window 0 egresses one of its partitions' Sort outputs in place of
        // its Sum: every stage still ran, but the result is an intermediate.
        let mut records = honest_run(2, 2);
        let sorted = records
            .iter()
            .find_map(|r| match r {
                AuditRecord::Execution { op: PrimitiveKind::Sort, outputs, .. } => Some(outputs[0]),
                _ => None,
            })
            .unwrap();
        let egress = records.iter_mut().find(|r| matches!(r, AuditRecord::Egress { .. })).unwrap();
        *egress = AuditRecord::Egress { ts_ms: egress.ts_ms(), data: sorted };
        let report = Verifier::new(spec()).replay(&records);
        assert_eq!(report.violations, vec![Violation::IntermediateEgress(sorted)]);

        // On a one-stage pipeline a raw window (a root that passed no stage)
        // is caught too.
        let winsum = PipelineSpec::new("winsum", vec![PrimitiveKind::Sum], 100);
        let mut records = vec![
            AuditRecord::Ingress { ts_ms: 0, data: DataRef::UArray(UArrayRef(0)) },
            AuditRecord::Windowing {
                ts_ms: 1,
                input: UArrayRef(0),
                win_no: 0,
                output: UArrayRef(1),
            },
            AuditRecord::Execution {
                ts_ms: 2,
                op: PrimitiveKind::Sum,
                inputs: [UArrayRef(1)].into(),
                outputs: [UArrayRef(2)].into(),
                hints: vec![],
            },
            AuditRecord::Egress { ts_ms: 3, data: UArrayRef(1) },
        ];
        let report = Verifier::new(winsum).replay(&records);
        assert_eq!(report.violations, vec![Violation::IntermediateEgress(UArrayRef(1))]);
        // ... while with no declared stage (Passthrough) the window is the
        // result.
        records.remove(2);
        let passthrough = PipelineSpec::new("pass", vec![], 100);
        assert!(Verifier::new(passthrough).replay(&records).is_correct());
    }

    #[test]
    fn misleading_hints_are_counted() {
        // Window 0's Sort claims its output is consumed after a uArray that
        // is in fact consumed later.
        let mut records = honest_run(2, 1);
        let late_pred = records
            .iter()
            .find_map(|r| match r {
                AuditRecord::Windowing { win_no: 1, output, .. } => Some(*output),
                _ => None,
            })
            .unwrap();
        for r in &mut records {
            if let AuditRecord::Execution { op: PrimitiveKind::Sort, hints, inputs, .. } = r {
                if inputs[0].0 < late_pred.0 {
                    hints.push(late_pred.0 as u64);
                }
            }
        }
        let report = Verifier::new(spec()).replay(&records);
        assert_eq!(report.misleading_hints, 1);

        // A promise naming a predecessor the trail never mentions cannot be
        // contradicted: it is not counted. One naming an unknown array that
        // was nevertheless consumed (an `UnknownInput`) is judged like any.
        let mut preds = [9_999, 5_000].into_iter();
        for r in &mut records {
            if let AuditRecord::Execution { op: PrimitiveKind::Sum, hints, .. } = r {
                hints.extend(preds.next());
            }
        }
        records.push(AuditRecord::Execution {
            ts_ms: 999,
            op: PrimitiveKind::Sum,
            inputs: [UArrayRef(5_000)].into(),
            outputs: [UArrayRef(5_001)].into(),
            hints: vec![],
        });
        let report = Verifier::new(spec()).replay(&records);
        assert_eq!(report.misleading_hints, 2);
    }

    #[test]
    fn malformed_hints_are_violations() {
        let parallel = |k: u64, index: u64| (1u64 << 63) | (k << 32) | index;
        // Honest: each of a window's four Sorts carries its one sibling hint.
        let mut records = honest_run(1, 4);
        let mut index = 0;
        for r in &mut records {
            if let AuditRecord::Execution { op: PrimitiveKind::Sort, hints, .. } = r {
                hints.push(parallel(4, index));
                index += 1;
            }
        }
        let report = Verifier::new(spec()).replay(&records);
        assert!(report.is_correct(), "violations: {:?}", report.violations);

        // Tampered: one Sort claims all four siblings for its one output,
        // another names sibling 4 of 4, a third claims a sibling of none.
        let mut sorts = 0;
        for r in &mut records {
            if let AuditRecord::Execution { op: PrimitiveKind::Sort, hints, .. } = r {
                match sorts {
                    0 => *hints = (0..4).map(|i| parallel(4, i)).collect(),
                    1 => *hints = vec![parallel(4, 4)],
                    2 => *hints = vec![parallel(0, 0)],
                    _ => {}
                }
                sorts += 1;
            }
        }
        let report = Verifier::new(spec()).replay(&records);
        let sort = PrimitiveKind::Sort;
        assert_eq!(
            report.violations,
            vec![
                Violation::ExcessHints { op: sort, hints: 4, outputs: 1 },
                Violation::BadParallelHint { op: sort, k: 4, index: 4 },
                Violation::BadParallelHint { op: sort, k: 0, index: 0 },
            ]
        );
    }

    #[test]
    fn departure_is_terminal() {
        use crate::record::DepartureReason;
        // A clean run ending in departure verifies with departed = true.
        let mut records = honest_run(1, 1);
        let last_ts = records.last().unwrap().ts_ms();
        records
            .push(AuditRecord::Departure { ts_ms: last_ts + 1, reason: DepartureReason::Drained });
        let report = Verifier::new(spec()).replay(&records);
        assert!(report.is_correct(), "violations: {:?}", report.violations);
        assert!(report.departed);

        // Any record after the departure is flagged.
        records.push(AuditRecord::Ingress {
            ts_ms: last_ts + 2,
            data: DataRef::UArray(UArrayRef(900)),
        });
        let report = Verifier::new(spec()).replay(&records);
        assert!(report.violations.iter().any(|v| matches!(v, Violation::PostDepartureActivity)));
    }

    #[test]
    fn checkpoint_records_are_counted_and_inert() {
        // A seal/resume pair inside an honest run neither breaks dataflow
        // nor window coverage; the report counts them.
        let mut records = honest_run(2, 1);
        let mid = records.len() / 2;
        records.insert(
            mid,
            AuditRecord::Checkpoint { ts_ms: 50, seq: 0, resumed: false, hash: [3; 32] },
        );
        records.insert(
            mid + 1,
            AuditRecord::Checkpoint { ts_ms: 51, seq: 0, resumed: true, hash: [3; 32] },
        );
        let report = Verifier::new(spec()).replay(&records);
        assert!(report.is_correct(), "violations: {:?}", report.violations);
        assert_eq!(report.checkpoints, 2);
        assert!(report.resumed);

        let sealed_only = honest_run(1, 1);
        let report = Verifier::new(spec()).replay(&sealed_only);
        assert_eq!(report.checkpoints, 0);
        assert!(!report.resumed);
    }

    #[test]
    fn freshness_report_statistics() {
        let mut fr = FreshnessReport::default();
        assert_eq!(fr.max_delay_ms(), 0);
        assert_eq!(fr.avg_delay_ms(), 0.0);
        fr.delays_ms = vec![10, 20, 30];
        assert_eq!(fr.max_delay_ms(), 30);
        assert!((fr.avg_delay_ms() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn spec_helpers() {
        let s = spec();
        assert_eq!(s.stage_index(PrimitiveKind::Sort), Some(0));
        assert_eq!(s.stage_index(PrimitiveKind::TopK), None);
        assert!(s.is_structural(PrimitiveKind::Merge));
        assert!(!s.is_structural(PrimitiveKind::TopK));
        let custom = PipelineSpec::with_structural(
            "x",
            vec![PrimitiveKind::FilterBand],
            vec![PrimitiveKind::Concat],
            10,
        );
        assert!(custom.is_structural(PrimitiveKind::Concat));
        assert!(!custom.is_structural(PrimitiveKind::Merge));
    }

    /// A window of two batches appended to one array `A` (id 10), sorted,
    /// summed and egressed; `tail` is spliced in after the sort.
    fn appended_window(tail: &[AuditRecord]) -> Vec<AuditRecord> {
        let array = UArrayRef(10);
        let batch = |id: u32, ts_ms: u32| {
            [
                AuditRecord::Ingress { ts_ms, data: DataRef::UArray(UArrayRef(id)) },
                AuditRecord::Windowing { ts_ms, input: UArrayRef(id), win_no: 0, output: array },
            ]
        };
        let exec = |op, input: u32, output: u32| AuditRecord::Execution {
            ts_ms: 5,
            op,
            inputs: [UArrayRef(input)].into(),
            outputs: [UArrayRef(output)].into(),
            hints: vec![],
        };
        let mut records = Vec::new();
        records.extend(batch(1, 1));
        records.extend(batch(2, 2));
        records.push(AuditRecord::Ingress { ts_ms: 3, data: DataRef::Watermark(1_000) });
        records.push(exec(PrimitiveKind::Sort, 10, 11));
        records.extend_from_slice(tail);
        records.push(exec(PrimitiveKind::Sum, 11, 12));
        records.push(AuditRecord::Egress { ts_ms: 6, data: UArrayRef(12) });
        records
    }

    #[test]
    fn an_honest_appended_window_replays_clean() {
        let report = Verifier::new(spec()).replay(&appended_window(&[]));
        assert!(report.is_correct(), "violations: {:?}", report.violations);
        assert_eq!((report.ingested_uarrays, report.egressed), (2, 1));
    }

    #[test]
    fn an_append_to_a_consumed_array_is_flagged() {
        // A third batch appended to A after its Sort consumed it: no result
        // can hold that batch.
        let late = [
            AuditRecord::Ingress { ts_ms: 5, data: DataRef::UArray(UArrayRef(3)) },
            AuditRecord::Windowing {
                ts_ms: 5,
                input: UArrayRef(3),
                win_no: 0,
                output: UArrayRef(10),
            },
        ];
        let report = Verifier::new(spec()).replay(&appended_window(&late));
        assert_eq!(
            report.violations,
            vec![Violation::AppendAfterConsumption { array: UArrayRef(10), win_no: 0 }]
        );
    }

    #[test]
    fn an_append_under_another_window_is_flagged() {
        // The second batch names window 1 for the array window 0 opened.
        let mut records = appended_window(&[]);
        let AuditRecord::Windowing { win_no, .. } = &mut records[3] else { unreachable!() };
        *win_no = 1;
        let report = Verifier::new(spec()).replay(&records);
        assert!(
            report
                .violations
                .contains(&Violation::CrossWindowAppend { array: UArrayRef(10), win_no: 1 }),
            "violations: {:?}",
            report.violations
        );
        // An append to an array no window opened — a sort's output — too.
        let stray = [AuditRecord::Windowing {
            ts_ms: 5,
            input: UArrayRef(2),
            win_no: 0,
            output: UArrayRef(11),
        }];
        let report = Verifier::new(spec()).replay(&appended_window(&stray));
        assert!(report
            .violations
            .contains(&Violation::CrossWindowAppend { array: UArrayRef(11), win_no: 0 }));
    }
}
