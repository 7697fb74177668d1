//! The fire: one completed window's command lists, from its arrays to its
//! sealed result.
//!
//! A window fires from the engine's compiled [`WindowPlan`]: the plan's
//! chain once per array (at most W a side, one per ingest lane) in at most
//! W parallel lists, then one tail list that gathers each side, applies the
//! reduce, egresses and retires. The first list records the watermarks that
//! completed the window, so the attested delay spans the whole fire.
//!
//! [`WindowPlan`]: crate::operators::WindowPlan

use super::{Engine, Fires};
use crate::metrics::WindowResult;
use crate::steps::Steps;
use sbt_dataplane::{Arg, Command, DataPlaneError, OpaqueRef, Reply};
use sbt_telemetry::{LatencyKind, SpanKind};
use sbt_types::{Watermark, WindowId};
use sbt_uarray::HintSet;
use std::sync::Arc;
use std::time::Instant;

impl Engine {
    /// Fire every window from the next unexecuted one through `last`, under
    /// the fire lock the caller holds, timing each from the earliest arrival
    /// among the watermarks this fire records. Each window
    /// records the watermarks queued for it and for earlier windows: at the
    /// head of its first list, or — when no first list ran to completion —
    /// in a list of their own.
    ///
    /// A window that fails — its intermediates tripped the tenant's quota,
    /// say — costs the tenant that window and nothing else: its state was
    /// consumed by the attempt, so the fire steps past it and keeps going,
    /// since stopping would strand the later windows the watermark
    /// completed. Returns the first failure.
    pub(super) fn fire_through(
        &self,
        fires: &mut Fires,
        last: WindowId,
    ) -> Result<(), DataPlaneError> {
        let served = fires.unrecorded.iter().filter(|&&(win, ..)| win <= last);
        let arrival = served.map(|&(.., at)| at).min().unwrap_or_else(Instant::now);
        let mut outcome = Ok(());
        while fires.next_unexecuted <= last {
            let win = fires.next_unexecuted;
            let mut watermarks = fires.take_before(win.next());
            outcome = outcome.and(self.fire_window(win, arrival, &mut watermarks));
            self.record_watermarks(&watermarks);
            fires.next_unexecuted = win.next();
        }
        *self.finished.lock() = Some(Instant::now());
        outcome
    }

    /// Fire one completed window from the plan, the same steps for every
    /// plan: retire the window if a side the plan reads is empty; run the
    /// chain over its arrays in at most W lists ([`Self::run_partitions`]);
    /// then one tail list that gathers each side (an unkeyed reduce reads
    /// the arrays directly), applies the reduce (if any) and egresses. The
    /// fire's first list — its first chain list, or the tail when the chain
    /// is empty — records `watermarks` at its head, so the attested delay
    /// from them to the egress spans the whole fire; `watermarks` is
    /// emptied once that list has run.
    fn fire_window(
        &self,
        win: WindowId,
        arrival: Instant,
        watermarks: &mut Vec<Watermark>,
    ) -> Result<(), DataPlaneError> {
        let Some(window) = self.windows.lock().remove(&win) else {
            return Ok(()); // empty window: nothing to do, nothing to egress
        };
        let overhead_before = self.platform.stats().snapshot();
        let span_start = self.telemetry().tracer().start();

        // 1. A side the plan reads is empty: nothing to fire. Retire what
        // the window holds, in one list. (A side it does not read is only
        // ever retired.)
        let mut sides: Vec<Vec<OpaqueRef>> =
            window.into_iter().map(|lanes| lanes.into_values().collect()).collect();
        let unread = sides.split_off(self.plan.sides);
        if sides.iter().any(Vec::is_empty) {
            self.retire(sides.into_iter().chain(unread).flatten());
            return Ok(());
        }
        self.retire(unread.into_iter().flatten());

        // 2. The chain over the arrays, in at most W parallel lists. A
        // mid-window failure — e.g. an intermediate tripping the tenant's
        // quota — costs the window but never strands quota or pages.
        let sides = self.run_partitions(sides, watermarks)?;

        // 3. The tail: one list from the watermarks (when no chain list
        // recorded them) through the gathers, the reduce, the egress and its
        // retire. If it fails, the data plane retires the arrays it names
        // and drops the sealed result and any watermark records with the
        // rest.
        let mut tail = Steps::default();
        tail.watermarks(watermarks);
        let gathered: Vec<Arg> = sides
            .iter()
            .flat_map(|refs| match self.plan.gather {
                Some(op) => vec![tail.gather(op, refs).expect("a fired side has arrays")],
                None => refs.iter().map(|r| Arg::Ref(*r)).collect(),
            })
            .collect();
        let result = self.plan.reduce.map_or(gathered[0], |(op, params)| {
            tail.consume(op, params, HintSet::none(), gathered)
        });
        tail.egress(result);
        let replies = tail.run(&self.gateway)?;
        watermarks.clear();
        let message = replies
            .into_iter()
            .find_map(|reply| match reply {
                Reply::Egress(message) => Some(message),
                _ => None,
            })
            .expect("the tail list egresses");
        let result_records = message.ciphertext.len();
        self.results.lock().push(message);

        // 4. Metrics. The reported memory is the peak observed while this
        // window was in flight (after completion everything has been
        // reclaimed, so sampling now would always read near zero).
        let overhead_after = self.platform.stats().snapshot();
        let overhead = overhead_after.delta_since(&overhead_before).total_overhead_nanos()
            / self.config.cores.max(1) as u64;
        self.sample_memory();
        let memory = std::mem::take(&mut *self.window_peak_memory.lock());
        let output_delay_nanos = arrival.elapsed().as_nanos() as u64 + overhead;
        self.window_results.lock().push(WindowResult {
            window: win,
            output_delay_nanos,
            result_records,
            memory_bytes: memory,
        });
        // Telemetry: one WindowFire span for the execution itself, and the
        // watermark-to-emit latency into the tenant's histogram.
        let telemetry = self.telemetry();
        telemetry.tracer().record(
            SpanKind::WindowFire,
            self.tenant().0,
            span_start,
            result_records as u64,
        );
        telemetry.record_latency(self.tenant().0, LatencyKind::WindowEmit, output_delay_nanos);
        Ok(())
    }

    /// Retire references in one list. Should one retire fail, the data
    /// plane still retires all the others as it unwinds the list, so the
    /// error is moot.
    fn retire(&self, refs: impl IntoIterator<Item = OpaqueRef>) {
        let retires: Vec<_> = refs.into_iter().map(|r| Command::Retire(Arg::Ref(r))).collect();
        if !retires.is_empty() {
            let _ = self.gateway.call(&retires);
        }
    }

    /// Run the plan's chain once on every array of every side: the sides'
    /// arrays, in lane order, cut into `min(total, W)` contiguous command
    /// lists run in parallel, where `total` counts the arrays of all sides
    /// (at most W a side) and `W` is the pool's workers plus the joining
    /// thread. A list carries, for each of its arrays, the chain and the
    /// retire of its input; array `i` of a side's `n` carries the one hint
    /// "sibling `i` of `n` consumed in parallel" on every output. An empty
    /// chain costs nothing. The first list records `watermarks` at its head
    /// and, once it has run, empties them. Outputs come back in array
    /// order. A list that fails has retired every array it names; when one
    /// does, the outputs of the other lists are retired in one list and the
    /// first error is returned.
    fn run_partitions(
        &self,
        sides: Vec<Vec<OpaqueRef>>,
        watermarks: &mut Vec<Watermark>,
    ) -> Result<Vec<Vec<OpaqueRef>>, DataPlaneError> {
        if self.plan.chain.is_empty() {
            return Ok(sides);
        }
        let parts: Vec<_> = sides
            .iter()
            .flat_map(|side| {
                let k = side.len() as u32;
                side.iter().zip(0..).map(move |(r, i)| (*r, HintSet::consumed_in_parallel(k, i)))
            })
            .collect();
        let tasks: Vec<_> = self
            .cut(parts)
            .into_iter()
            .enumerate()
            .map(|(i, list)| {
                let head = if i == 0 { watermarks.clone() } else { Vec::new() };
                let (gw, plan) = (Arc::clone(&self.gateway), Arc::clone(&self.plan));
                move || {
                    let mut steps = Steps::default();
                    steps.watermarks(&head);
                    let outs: Vec<Arg> = list
                        .into_iter()
                        .map(|(r, hints)| {
                            plan.chain.iter().fold(Arg::Ref(r), |input, &(op, params)| {
                                steps.consume(op, params, hints.clone(), vec![input])
                            })
                        })
                        .collect();
                    let done = steps.run(&gw)?;
                    let resolve =
                        |out: &Arg| out.resolve(&done).expect("a list that ran names its outputs");
                    Ok(outs.iter().map(resolve).collect::<Vec<_>>())
                }
            })
            .collect();
        let mut outs = Vec::new();
        let mut outcome = Ok(());
        for (list, result) in self.pool.run_all(tasks).into_iter().enumerate() {
            match result {
                Ok(done) => {
                    if list == 0 {
                        watermarks.clear();
                    }
                    outs.extend(done)
                }
                Err(e) => outcome = outcome.and(Err(e)),
            }
        }
        if let Err(e) = outcome {
            self.retire(outs);
            return Err(e);
        }
        let mut outs = outs.into_iter();
        Ok(sides.iter().map(|side| outs.by_ref().take(side.len()).collect()).collect())
    }

    /// Cut `items`, in order, into `min(n, W)` contiguous lists whose
    /// lengths differ by at most one (the longer ones first), W being the
    /// pool's workers plus the joining thread: how a fire's arrays spread
    /// over the pool.
    fn cut<T>(&self, items: Vec<T>) -> Vec<Vec<T>> {
        let total = items.len();
        let n = total.min(self.pool.size() + 1);
        let mut items = items.into_iter();
        (0..n)
            .map(|list| items.by_ref().take(total / n + usize::from(list < total % n)).collect())
            .collect()
    }
}
