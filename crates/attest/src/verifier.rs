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
//!   window's results are externalized; once any later window has produced
//!   results, earlier windows must have produced theirs too. Deviations —
//!   dropped data, skipped or reordered primitives, undeclared computations,
//!   uArrays conjured out of thin air, missing egress — are reported as
//!   violations.
//! * **Freshness.** For each egress, the verifier identifies the watermark
//!   that triggered it and computes the output delay (egress timestamp minus
//!   watermark ingress timestamp), flagging results whose delay exceeds the
//!   deployment's target.
//! * **Hint honesty.** Malformed hints — more hints than outputs, or a
//!   consumed-in-parallel hint whose index is not below its sibling count —
//!   are violations. Consumed-after hints whose promised consumption order
//!   contradicts the observed execution order are counted as misleading.
//!
//! Because the control plane parallelizes work (several batches per window,
//! sorted per partition and joined by a k-way merge), the per-window dataflow
//! is a DAG rather than a straight line. The declaration therefore lists *required stages* in
//! order, plus *structural* primitives (Merge, Concat, …) that may appear
//! anywhere between stages; the replay checks that every root's observed
//! primitive sequence progresses monotonically through the declared stages
//! and that each window's dataflow, taken together, covers all of them.
//!
//! The verifier works purely on record structure; it never needs the stream
//! data itself, which never leaves the edge TEE unencrypted.

use crate::record::{AuditRecord, DataRef, UArrayRef};
use sbt_types::PrimitiveKind;
use std::collections::{HashMap, HashSet};

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

        // ---- Phase 1: index the log. ------------------------------------
        let mut ingressed_data: HashMap<UArrayRef, u32> = HashMap::new();
        let mut watermarks: Vec<(u32, u32)> = Vec::new(); // (value_ms, ingress ts)
        let mut windowed_inputs: HashSet<UArrayRef> = HashSet::new();
        // windowed output (root) -> window number
        let mut roots: HashMap<UArrayRef, u16> = HashMap::new();
        // every produced uArray -> (max declared stage reached, root, win_no)
        let mut lineage: HashMap<UArrayRef, (usize, UArrayRef, u16)> = HashMap::new();
        // per-window set of declared stages observed.
        let mut window_stages: HashMap<u16, HashSet<PrimitiveKind>> = HashMap::new();
        let mut exec_ts: HashMap<UArrayRef, u32> = HashMap::new();
        let mut egresses: Vec<(UArrayRef, u32)> = Vec::new();
        let mut known: HashSet<UArrayRef> = HashSet::new();
        let mut first_consumed_at: HashMap<UArrayRef, u32> = HashMap::new();
        let mut consumed_after_hints: Vec<(UArrayRef, UArrayRef)> = Vec::new();

        let mut post_departure_flagged = false;
        for rec in records {
            // Departure is terminal: a torn-down namespace cannot have kept
            // producing records.
            if report.departed && !post_departure_flagged {
                report.violations.push(Violation::PostDepartureActivity);
                post_departure_flagged = true;
            }
            match rec {
                AuditRecord::Ingress { ts_ms, data } => match data {
                    DataRef::UArray(id) => {
                        ingressed_data.insert(*id, *ts_ms);
                        known.insert(*id);
                        report.ingested_uarrays += 1;
                    }
                    DataRef::Watermark(wm) => {
                        watermarks.push((*wm, *ts_ms));
                        report.watermarks += 1;
                    }
                },
                AuditRecord::Windowing { ts_ms, input, win_no, output } => {
                    if !known.contains(input) {
                        report.violations.push(Violation::UnknownInput {
                            op: PrimitiveKind::Segment,
                            input: *input,
                        });
                    }
                    windowed_inputs.insert(*input);
                    roots.insert(*output, *win_no);
                    known.insert(*output);
                    lineage.insert(*output, (0, *output, *win_no));
                    window_stages.entry(*win_no).or_default();
                    exec_ts.insert(*output, *ts_ms);
                    first_consumed_at.entry(*input).or_insert(*ts_ms);
                }
                AuditRecord::Execution { ts_ms, op, inputs, outputs, hints } => {
                    for input in inputs {
                        if !known.contains(input) {
                            report
                                .violations
                                .push(Violation::UnknownInput { op: *op, input: *input });
                        }
                        first_consumed_at.entry(*input).or_insert(*ts_ms);
                    }
                    if hints.len() > outputs.len() {
                        report.violations.push(Violation::ExcessHints {
                            op: *op,
                            hints: hints.len(),
                            outputs: outputs.len(),
                        });
                    }
                    for h in hints {
                        if h >> 63 == 0 {
                            if let Some(out0) = outputs.first() {
                                consumed_after_hints
                                    .push((UArrayRef((*h & 0xFFFF_FFFF) as u32), *out0));
                            }
                        } else {
                            let k = ((h >> 32) & 0x7FFF_FFFF) as u32;
                            let index = (h & 0xFFFF_FFFF) as u32;
                            if index >= k {
                                report.violations.push(Violation::BadParallelHint {
                                    op: *op,
                                    k,
                                    index,
                                });
                            }
                        }
                    }
                    // Dataflow tracking: the stage reached by the inputs.
                    let inherited = inputs
                        .iter()
                        .filter_map(|i| lineage.get(i).copied())
                        .max_by_key(|(stage, _, _)| *stage);
                    let mut next = inherited;
                    if let Some((stage, root, win)) = inherited {
                        if let Some(idx) = self.spec.stage_index(*op) {
                            if idx < stage {
                                report.violations.push(Violation::OutOfOrderPrimitive {
                                    root,
                                    op: *op,
                                    after_stage: stage,
                                });
                            }
                            window_stages.entry(win).or_default().insert(*op);
                            next = Some((idx.max(stage), root, win));
                        } else if !self.spec.is_structural(*op) {
                            report
                                .violations
                                .push(Violation::UndeclaredPrimitive { root, op: *op });
                        }
                    }
                    for output in outputs {
                        known.insert(*output);
                        exec_ts.insert(*output, *ts_ms);
                        if let Some(l) = next {
                            lineage.insert(*output, l);
                        }
                    }
                }
                AuditRecord::Egress { ts_ms, data } => {
                    if !known.contains(data) || !lineage.contains_key(data) {
                        report.violations.push(Violation::UntraceableEgress(*data));
                    }
                    egresses.push((*data, *ts_ms));
                    report.egressed += 1;
                    first_consumed_at.entry(*data).or_insert(*ts_ms);
                }
                // Key-lifecycle records don't participate in dataflow; their
                // integrity is enforced at the segment layer (each segment
                // verifies only under its epoch's key).
                AuditRecord::Rekey { .. } => report.rekeys += 1,
                AuditRecord::Departure { .. } => report.departed = true,
                // Checkpoint records don't participate in dataflow either:
                // the seal/resume chain (seq and snapshot-hash matching) is
                // enforced by trail stitching, where the records are bound
                // to their signed segments. The restored window state itself
                // re-enters the replay through the Ingress + Windowing
                // records the restore path re-announces.
                AuditRecord::Checkpoint { resumed, .. } => {
                    report.checkpoints += 1;
                    report.resumed |= *resumed;
                }
            }
        }

        // ---- Phase 2: correctness checks. --------------------------------

        // 2a. Every ingested data uArray must have been windowed.
        for id in ingressed_data.keys() {
            if !windowed_inputs.contains(id) {
                report.violations.push(Violation::UnwindowedIngress(*id));
            }
        }

        // 2b. Which windows egressed results?
        let mut egressed_windows: HashSet<u16> = HashSet::new();
        for (id, _) in &egresses {
            if let Some((_, _, win)) = lineage.get(id) {
                egressed_windows.insert(*win);
            }
        }

        // 2c. Stage coverage: any window that egressed (or precedes a window
        // that egressed) must have run every declared stage.
        let max_egressed_window = egressed_windows.iter().copied().max();
        let mut all_windows: Vec<u16> = window_stages.keys().copied().collect();
        all_windows.sort_unstable();
        for win in &all_windows {
            let must_be_complete = egressed_windows.contains(win)
                || max_egressed_window.map(|m| *win < m).unwrap_or(false);
            if !must_be_complete {
                continue;
            }
            let observed = &window_stages[win];
            for stage in &self.spec.stages {
                if !observed.contains(stage) {
                    report
                        .violations
                        .push(Violation::IncompleteWindow { win_no: *win, missing: *stage });
                }
            }
            if !egressed_windows.contains(win) {
                report.violations.push(Violation::MissingEgress { win_no: *win });
            }
        }

        // ---- Phase 3: freshness. -----------------------------------------
        for (id, egress_ts) in &egresses {
            let produce_ts = exec_ts.get(id).copied().unwrap_or(*egress_ts);
            let trigger = watermarks
                .iter()
                .filter(|(_, wm_ts)| *wm_ts <= produce_ts)
                .map(|(_, wm_ts)| *wm_ts)
                .max();
            if let Some(wm_ts) = trigger {
                let delay = egress_ts.saturating_sub(wm_ts);
                report.freshness.delays_ms.push(delay);
                if delay > self.spec.target_delay_ms {
                    report.violations.push(Violation::StaleResult {
                        uarray: *id,
                        delay_ms: delay,
                        target_ms: self.spec.target_delay_ms,
                    });
                }
            }
        }

        // ---- Phase 4: hint honesty. ---------------------------------------
        for (pred, succ) in &consumed_after_hints {
            if let (Some(pred_ts), Some(succ_ts)) =
                (first_consumed_at.get(pred), first_consumed_at.get(succ))
            {
                if succ_ts < pred_ts {
                    report.misleading_hints += 1;
                }
            }
        }

        report
    }
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
}
