//! The pipeline builder: the declarative programming surface of the engine.
//!
//! Mirrors the style of the paper's Figure 2(c): declare a windowing policy,
//! chain operators, set a freshness target, and hand the pipeline to a
//! runner. The builder validates the shape (transform operators may appear
//! only before the single terminal operator) and compiles it into the one
//! [`WindowPlan`] both the engine and the verifier's declaration read.

use crate::operators::{Operator, WindowPlan};
use sbt_attest::PipelineSpec;
use sbt_types::{Duration, WindowSpec};

/// A declared analytics pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    name: String,
    window: WindowSpec,
    transforms: Vec<Operator>,
    terminal: Operator,
    target_delay_ms: u32,
    /// Events per input batch (the engine's batching granularity).
    batch_events: usize,
}

impl Pipeline {
    /// Start building a pipeline with 1-second fixed windows, a passthrough
    /// terminal, a 1-second freshness target and the paper's default batch
    /// size (100 K events).
    pub fn new(name: &str) -> Self {
        Pipeline {
            name: name.to_string(),
            window: WindowSpec::fixed(Duration::from_secs(1)),
            transforms: Vec::new(),
            terminal: Operator::Passthrough,
            target_delay_ms: 1_000,
            batch_events: 100_000,
        }
    }

    /// Set the windowing policy.
    pub fn window(mut self, spec: WindowSpec) -> Self {
        self.window = spec;
        self
    }

    /// Set fixed windows of the given size.
    pub fn fixed_window(self, size: Duration) -> Self {
        self.window(WindowSpec::fixed(size))
    }

    /// Append an operator. Transform operators stack; a terminal operator
    /// replaces the pipeline's terminal (and must come last).
    ///
    /// # Panics
    /// Panics if a transform operator is added after a terminal operator has
    /// already been set, mirroring the misdeclaration being a programming
    /// error the paper's `connect` API would also reject.
    pub fn then(mut self, op: Operator) -> Self {
        if op.is_transform() {
            assert!(
                matches!(self.terminal, Operator::Passthrough),
                "transform operators must precede the terminal operator"
            );
            self.transforms.push(op);
        } else {
            assert!(
                matches!(self.terminal, Operator::Passthrough),
                "a pipeline has exactly one terminal operator"
            );
            self.terminal = op;
        }
        self
    }

    /// Set the output-delay target in milliseconds.
    pub fn target_delay_ms(mut self, ms: u32) -> Self {
        self.target_delay_ms = ms;
        self
    }

    /// Set the input batch size in events.
    pub fn batch_events(mut self, n: usize) -> Self {
        self.batch_events = n.max(1);
        self
    }

    /// The pipeline's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The windowing policy.
    pub fn window_spec(&self) -> WindowSpec {
        self.window
    }

    /// The transform operators, in order.
    pub fn transforms(&self) -> &[Operator] {
        &self.transforms
    }

    /// The terminal operator.
    pub fn terminal(&self) -> Operator {
        self.terminal
    }

    /// The output-delay target in milliseconds.
    pub fn target_delay(&self) -> u32 {
        self.target_delay_ms
    }

    /// The input batch size in events.
    pub fn batch_size(&self) -> usize {
        self.batch_events
    }

    /// Whether the pipeline joins two input streams.
    pub fn is_join(&self) -> bool {
        matches!(self.terminal, Operator::TempJoin)
    }

    /// Compile the plan every window of this pipeline runs.
    pub fn plan(&self) -> WindowPlan {
        WindowPlan::compile(&self.transforms, self.terminal)
    }

    /// The declaration the cloud verifier installs, read off
    /// [`plan`](Pipeline::plan).
    pub fn spec(&self) -> PipelineSpec {
        self.plan().spec(&self.name, self.target_delay_ms)
    }

    // ---- The six evaluation pipelines (§9.2). --------------------------

    /// TopK: per-key top-K values per window (target delay 500 ms).
    pub fn topk_benchmark(k: usize) -> Pipeline {
        Pipeline::new("TopK").then(Operator::TopKPerKey { k }).target_delay_ms(500)
    }

    /// Distinct: unique taxi ids per window (target delay 200 ms).
    pub fn distinct_benchmark() -> Pipeline {
        Pipeline::new("Distinct").then(Operator::Distinct).target_delay_ms(200)
    }

    /// Join: temporal join of two streams (target delay 250 ms).
    pub fn join_benchmark() -> Pipeline {
        Pipeline::new("Join").then(Operator::TempJoin).target_delay_ms(250)
    }

    /// WinSum: windowed aggregation (target delay 20 ms).
    pub fn winsum_benchmark() -> Pipeline {
        Pipeline::new("WinSum").then(Operator::WindowSum).target_delay_ms(20)
    }

    /// Filter: 1%-selectivity filtering (target delay 10 ms).
    pub fn filter_benchmark(lo: u32, hi: u32) -> Pipeline {
        Pipeline::new("Filter").then(Operator::Filter { lo, hi }).target_delay_ms(10)
    }

    /// Power: per-plug average power per window over the smart-plug stream
    /// (target delay 600 ms).
    pub fn power_benchmark() -> Pipeline {
        Pipeline::new("Power").then(Operator::AvgPerKey).target_delay_ms(600)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbt_types::PrimitiveKind;

    #[test]
    fn builder_accumulates_operators() {
        let p = Pipeline::new("example")
            .fixed_window(Duration::from_secs(1))
            .then(Operator::Filter { lo: 10, hi: 20 })
            .then(Operator::SumByKey)
            .target_delay_ms(300)
            .batch_events(1_000);
        assert_eq!(p.name(), "example");
        assert_eq!(p.transforms().len(), 1);
        assert_eq!(p.terminal(), Operator::SumByKey);
        assert_eq!(p.target_delay(), 300);
        assert_eq!(p.batch_size(), 1_000);
        assert!(!p.is_join());
        assert_eq!(
            p.spec().stages,
            vec![PrimitiveKind::FilterBand, PrimitiveKind::Sort, PrimitiveKind::SumCnt]
        );
    }

    #[test]
    #[should_panic(expected = "exactly one terminal operator")]
    fn two_terminal_operators_are_rejected() {
        let _ = Pipeline::new("bad").then(Operator::WindowSum).then(Operator::Distinct);
    }

    #[test]
    #[should_panic(expected = "must precede the terminal")]
    fn transform_after_terminal_is_rejected() {
        let _ =
            Pipeline::new("bad").then(Operator::WindowSum).then(Operator::Filter { lo: 0, hi: 1 });
    }

    #[test]
    fn benchmark_pipelines_have_paper_targets() {
        assert_eq!(Pipeline::topk_benchmark(10).target_delay(), 500);
        assert_eq!(Pipeline::distinct_benchmark().target_delay(), 200);
        assert_eq!(Pipeline::join_benchmark().target_delay(), 250);
        assert_eq!(Pipeline::winsum_benchmark().target_delay(), 20);
        assert_eq!(Pipeline::filter_benchmark(0, 42_949_672).target_delay(), 10);
        assert_eq!(Pipeline::power_benchmark().target_delay(), 600);
        assert!(Pipeline::join_benchmark().is_join());
    }

    #[test]
    fn default_pipeline_is_passthrough_with_one_second_windows() {
        let p = Pipeline::new("default");
        assert_eq!(p.terminal(), Operator::Passthrough);
        assert_eq!(p.window_spec(), WindowSpec::fixed(Duration::from_secs(1)));
        assert!(p.spec().stages.is_empty());
        assert_eq!(p.batch_size(), 100_000);
    }
}
