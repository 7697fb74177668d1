//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around its calls into each
//! layer — never from inside the program — so what is measured does not move
//! when a later PR rewires the program's own tracing. A span is a name, a
//! start, an end, the span that caused it, and a trace id (the window number,
//! so every span of one window shares it). Spans live in memory and are
//! written out once, when the traced pass ends.

use crate::json::Json;
use std::time::Instant;

/// Trace id of spans that belong to no window (round set-up, cloud side).
pub const NO_TRACE: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    pub trace: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory recorder driven by one thread (the benchmark's driver).
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last; a new span's parent is the innermost.
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span; returns its index.
    pub fn begin(&mut self, name: &'static str, trace: u64) -> usize {
        let now = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, trace });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close a span (and any span opened inside it that was left open).
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Time a closure as one span.
    pub fn span<R>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, trace);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        (
                            "trace",
                            if s.trace == NO_TRACE {
                                Json::Null
                            } else {
                                Json::Num(s.trace as f64)
                            },
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover. Children are clipped to the parent and their
/// union is taken, so overlapping children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => totals.push((s.name, own)),
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, trace: 0 }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grand", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children 10..50 and 30..70 cover 10..70 = 60, not 80; a child
        // sticking out past the parent is clipped to it.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("root", 30));
    }

    #[test]
    fn recorder_links_parents_and_closes_forgotten_spans() {
        let mut r = Recorder::new();
        let outer = r.begin("outer", 7);
        r.span("inner", 7, || {});
        let _left_open = r.begin("dangling", 7);
        r.end(outer);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.trace == 7));
        assert!(spans[2].end_ns <= spans[0].end_ns);
        // Same name twice aggregates; JSON carries the links.
        let rendered = r.to_json().render();
        assert!(rendered.contains("\"parent\":0") && rendered.contains("\"parent\":null"));
    }
}
