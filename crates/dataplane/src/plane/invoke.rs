//! The shared primitive entry point: reference resolution, the dispatch
//! table, and in-place production into uArrays.

use super::call::Staged;
use super::DataPlane;
use crate::command::{Arg, Command, Reply};
use crate::error::DataPlaneError;
use crate::opaque::OpaqueRef;
use crate::params::{InvokeOutput, PrimitiveParams};
use crate::stats::InvocationBreakdown;
use crate::store::StoredData;
use sbt_attest::{AuditRecord, UArrayRef};
use sbt_primitives as prim;
use sbt_types::{infallible, Event, PrimitiveKind, RecordCount, RecordSink, TenantId, WindowId};
use sbt_uarray::{
    CommitBudget, ConsumptionHint, HintSet, UArray, UArrayError, UArrayId, UArrayWriter, PAGE_SIZE,
};
use std::sync::Arc;
use std::time::Instant;

/// An output uArray under production: the record sink primitives produce
/// into inside the TEE.
///
/// A primitive's kernel appends to a [`RecordSink`]; here that sink is an
/// open [`UArrayWriter`], so records are written once, in their final
/// location, pages committing as the append index crosses them. The newtype
/// exists because neither the trait (`sbt_types`) nor the writer
/// (`sbt_uarray`) is this crate's, and keeping them apart keeps the uArray
/// layer free of the record model.
pub(crate) struct Output<'a, T: Copy>(pub(crate) UArrayWriter<'a, T>);

impl<T: Copy> RecordSink<T> for Output<'_, T> {
    type Error = UArrayError;

    #[inline]
    fn push(&mut self, record: T) -> Result<(), UArrayError> {
        self.0.push(record)
    }

    #[inline]
    fn extend_from_slice(&mut self, records: &[T]) -> Result<(), UArrayError> {
        self.0.extend_from_slice(records)
    }
}

/// The grouped aggregates and `Join` read their inputs as key runs. Over an
/// unsorted array they would return a well-sized but meaningless result, so
/// an input that is not key-sorted is refused before anything is reserved.
fn key_sorted(events: &[Event]) -> Result<&[Event], DataPlaneError> {
    if events.windows(2).all(|w| w[0].key <= w[1].key) {
        Ok(events)
    } else {
        Err(DataPlaneError::BadArguments("input not key-sorted"))
    }
}

impl DataPlane {
    /// Execute a trusted primitive over opaque inputs, producing opaque
    /// outputs (the single entry function shared by all 23 primitives).
    /// Inputs resolve only in the calling tenant's reference namespace;
    /// outputs are charged against the tenant's memory quota. A one-command
    /// list.
    pub fn invoke(
        &self,
        tenant: TenantId,
        op: PrimitiveKind,
        inputs: &[OpaqueRef],
        params: PrimitiveParams,
        hints: &HintSet,
    ) -> Result<Vec<InvokeOutput>, DataPlaneError> {
        let inputs = inputs.iter().map(|r| Arg::Ref(*r)).collect();
        match self.call_one(tenant, Command::Invoke { op, inputs, params, hints: hints.clone() })? {
            Reply::Invoke(outputs) => Ok(outputs),
            other => unreachable!("invoke replied {other:?}"),
        }
    }

    /// The body of an `Invoke` command: the outputs are registered at once,
    /// their records staged in `list`.
    pub(super) fn run_invoke(
        &self,
        list: &mut Staged<'_>,
        op: PrimitiveKind,
        inputs: &[OpaqueRef],
        params: PrimitiveParams,
        hints: &HintSet,
    ) -> Result<Vec<InvokeOutput>, DataPlaneError> {
        let (tenant, ts) = (list.tenant, list.ts);
        // Validate all references and hints before doing any work.
        let mut resolved = Vec::with_capacity(inputs.len());
        for r in inputs {
            resolved.push(self.lookup(ts, *r)?);
        }
        self.check_hints(tenant, op, hints)?;
        let input_ids: Vec<UArrayId> = resolved.iter().map(|(id, _)| *id).collect();

        // What the tenant may still commit: the outputs draw on it page by
        // page as they are produced, so an invocation that would overrun the
        // quota stops mid-production with its pages released. (The admission
        // in `commit_outputs` stays the authority: a concurrent invocation
        // of the same tenant may have used the headroom meanwhile.)
        let budget =
            CommitBudget::new(self.alloc.lock().allocator.owner_headroom(tenant.owner_tag()));
        let compute_start = Instant::now();
        let produced = self.execute(op, &resolved, &params, &budget)?;
        let compute_nanos = compute_start.elapsed().as_nanos() as u64;
        if hints.len() > produced.len() {
            // Only `Segment` gets here: its output count is known only now.
            for (data, _) in produced {
                self.pager.release_pages(data.committed_bytes() / PAGE_SIZE);
            }
            return Err(DataPlaneError::BadArguments("more hints than outputs"));
        }

        // Register outputs: allocator placement (guided by hints) with quota
        // charging, reference minting, audit records. The producer tag
        // identifies the primitive *type*: the Figure 10 baseline policy
        // treats all outputs of the same primitive as one generation and
        // co-locates them.
        let producer_tag = op.code() as u64;
        let committed = self.commit_outputs(tenant, producer_tag, produced, hints)?;
        let mut outputs = Vec::with_capacity(committed.len());
        let mut output_ids = Vec::with_capacity(committed.len());
        let mut memory_nanos = 0;
        for (id, len, window, paging_nanos) in committed {
            memory_nanos += paging_nanos;
            let opaque = ts.lock().refs.mint(id);
            output_ids.push(id);
            outputs.push(InvokeOutput { opaque, len, window });
            if let Some(w) = window {
                list.records.push(AuditRecord::Windowing {
                    ts_ms: self.now_ms(),
                    input: UArrayRef(input_ids[0].0 as u32),
                    win_no: w.0 as u16,
                    output: UArrayRef(id.0 as u32),
                });
            }
        }
        // Windowing is fully described by its Windowing records; everything
        // else gets an Execution record.
        if op != PrimitiveKind::Segment {
            list.records.push(AuditRecord::Execution {
                ts_ms: self.now_ms(),
                op,
                inputs: input_ids.iter().map(|i| UArrayRef(i.0 as u32)).collect(),
                outputs: output_ids.iter().map(|i| UArrayRef(i.0 as u32)).collect(),
                hints: hints.iter().map(|h| h.encode()).collect(),
            });
        }
        self.stats.record_invocation(InvocationBreakdown { compute_nanos, memory_nanos });
        Ok(outputs)
    }

    /// Hints are control-plane input like the references they travel with,
    /// and the trail attests them, so malformed ones are refused before
    /// anything is reserved: more hints than outputs (every primitive but
    /// `Segment` has one output; `Segment`'s count is checked once the
    /// batch is cut), a parallel hint whose index is outside `0..k`, and a
    /// consumed-after hint naming a uArray not charged to the caller —
    /// placement would otherwise append the output to another tenant's
    /// uGroup.
    fn check_hints(
        &self,
        tenant: TenantId,
        op: PrimitiveKind,
        hints: &HintSet,
    ) -> Result<(), DataPlaneError> {
        if op != PrimitiveKind::Segment && hints.len() > 1 {
            return Err(DataPlaneError::BadArguments("more hints than outputs"));
        }
        for hint in hints.iter() {
            match hint {
                ConsumptionHint::ConsumedInParallel { k, index } if index >= k => {
                    return Err(DataPlaneError::BadArguments("parallel hint index outside 0..k"));
                }
                ConsumptionHint::ConsumedAfter(pred)
                    if self.alloc.lock().allocator.owner_of(pred) != Some(tenant.owner_tag()) =>
                {
                    return Err(DataPlaneError::BadArguments(
                        "consumed-after hint names a foreign uArray",
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Produce one output in place: open a writer reserved for `items`
    /// records, let `fill` run a primitive kernel with the writer as its
    /// sink, then seal it under a freshly minted id. If `fill` fails — the
    /// tenant's budget or the carve-out ran out mid-production — the writer
    /// is dropped unsealed and every page it committed is released.
    fn produce<'a, T: Copy>(
        &'a self,
        budget: &'a CommitBudget,
        items: usize,
        layout: fn(UArray<T>) -> StoredData,
        fill: impl FnOnce(&mut Output<'a, T>) -> Result<(), UArrayError>,
    ) -> Result<StoredData, DataPlaneError> {
        let mut output = Output(UArrayWriter::reserve(items, &self.pager, budget));
        fill(&mut output)?;
        Ok(layout(output.0.seal(self.next_id())))
    }

    /// The primitive dispatch table. Every arm runs its primitive's kernel
    /// with an open uArray writer as the record sink (see
    /// [`produce`](DataPlane::produce)), reserved for the output's exact
    /// size where the inputs determine it and for an upper bound otherwise.
    /// Returns the produced arrays, each with an optional window assignment
    /// (only `Segment` assigns windows).
    fn execute(
        &self,
        op: PrimitiveKind,
        inputs: &[(UArrayId, Arc<StoredData>)],
        params: &PrimitiveParams,
        budget: &CommitBudget,
    ) -> Result<Vec<(StoredData, Option<WindowId>)>, DataPlaneError> {
        let one_events = |n: usize| -> Result<&[Event], DataPlaneError> {
            inputs.get(n).ok_or(DataPlaneError::BadArguments("missing input"))?.1.as_events()
        };
        let all_events = || (0..inputs.len()).map(one_events).collect::<Result<Vec<_>, _>>();
        let events_of = |items, fill: &dyn Fn(&mut Output<Event>) -> Result<(), UArrayError>| {
            self.produce(budget, items, StoredData::Events, fill)
        };
        let scalars_of = |scalars: &[u64]| {
            self.produce(budget, scalars.len(), StoredData::Scalars, |w| {
                w.extend_from_slice(scalars)
            })
        };
        let output = match op {
            PrimitiveKind::Ingress | PrimitiveKind::Egress => {
                return Err(DataPlaneError::BadArguments(
                    "boundary operations are not invokable primitives",
                ))
            }
            PrimitiveKind::Segment => {
                let spec = match params {
                    PrimitiveParams::Window(spec) => *spec,
                    _ => return Err(DataPlaneError::BadArguments("Segment needs a window spec")),
                };
                // The spec's fields come straight from the control plane: a
                // zero size or slide would mean a window per microsecond or
                // an unbounded replication loop inside the TEE.
                if !spec.is_well_formed() {
                    return Err(DataPlaneError::BadArguments("malformed window spec"));
                }
                // Ids are minted once every window is produced, in window
                // order, whatever order the batch's events met them in.
                let mut open = Vec::new();
                prim::segment_into(one_events(0)?, &spec, &mut open, |at_most| {
                    Output(UArrayWriter::reserve(at_most, &self.pager, budget))
                })?;
                return Ok(open
                    .into_iter()
                    .map(|(win, w)| (StoredData::Events(w.0.seal(self.next_id())), Some(win)))
                    .collect());
            }
            PrimitiveKind::Sort => {
                let events = one_events(0)?;
                events_of(events.len(), &|w| prim::sort_events_into(events, |e| e.key, w))?
            }
            PrimitiveKind::SortByValue => {
                let events = one_events(0)?;
                events_of(events.len(), &|w| prim::sort_events_into(events, |e| e.value, w))?
            }
            PrimitiveKind::SortByTime => {
                let events = one_events(0)?;
                events_of(events.len(), &|w| prim::sort_events_into(events, |e| e.ts_ms, w))?
            }
            PrimitiveKind::Merge | PrimitiveKind::Union => {
                let (a, b) = (one_events(0)?, one_events(1)?);
                events_of(a.len() + b.len(), &|w| prim::merge_sorted_by_key_into(a, b, w))?
            }
            PrimitiveKind::MergeK => {
                one_events(0)?;
                let runs = all_events()?;
                let total = runs.iter().map(|r| r.len()).sum();
                events_of(total, &|w| prim::merge_runs_by_key_into(&runs, w))?
            }
            PrimitiveKind::Concat => {
                let parts = all_events()?;
                let total = parts.iter().map(|p| p.len()).sum();
                events_of(total, &|w| prim::concat_events_into(&parts, w))?
            }
            PrimitiveKind::SumCnt | PrimitiveKind::AveragePerKey => {
                let events = key_sorted(one_events(0)?)?;
                self.produce(budget, prim::key_runs(events), StoredData::Aggs, |w| {
                    prim::sum_count_per_key_into(events, w)
                })?
            }
            PrimitiveKind::CountPerKey => {
                let events = key_sorted(one_events(0)?)?;
                self.produce(budget, prim::key_runs(events), StoredData::Pairs, |w| {
                    prim::count_per_key_into(events, w)
                })?
            }
            PrimitiveKind::MedianPerKey => {
                let events = key_sorted(one_events(0)?)?;
                self.produce(budget, prim::key_runs(events), StoredData::Pairs, |w| {
                    prim::median_per_key_into(events, w)
                })?
            }
            PrimitiveKind::Unique => {
                let events = key_sorted(one_events(0)?)?;
                self.produce(budget, prim::key_runs(events), StoredData::Scalars, |w| {
                    prim::unique_keys_into(events, w)
                })?
            }
            PrimitiveKind::Sum => scalars_of(&[prim::sum(one_events(0)?)])?,
            PrimitiveKind::Count => scalars_of(&[prim::count(one_events(0)?)])?,
            PrimitiveKind::Average => scalars_of(&[prim::average(one_events(0)?)])?,
            PrimitiveKind::Median => {
                scalars_of(&[prim::median(one_events(0)?).unwrap_or(0) as u64])?
            }
            PrimitiveKind::MinMax => {
                let (lo, hi) = prim::min_max(one_events(0)?).unwrap_or((0, 0));
                scalars_of(&[lo as u64, hi as u64])?
            }
            PrimitiveKind::TopK => {
                let k = match params {
                    PrimitiveParams::K(k) => *k,
                    _ => return Err(DataPlaneError::BadArguments("TopK needs K")),
                };
                let events = one_events(0)?;
                self.produce(budget, events.len().min(k), StoredData::Scalars, |w| {
                    prim::top_k_by_value_into(events, k, w)
                })?
            }
            PrimitiveKind::TopKPerKey => {
                let k = match params {
                    PrimitiveParams::K(k) => *k,
                    _ => return Err(DataPlaneError::BadArguments("TopKPerKey needs K")),
                };
                let events = key_sorted(one_events(0)?)?;
                self.produce(budget, prim::top_k_per_key_len(events, k), StoredData::Pairs, |w| {
                    prim::top_k_per_key_into(events, k, w)
                })?
            }
            PrimitiveKind::FilterBand => {
                let (lo, hi) = match params {
                    PrimitiveParams::Band { lo, hi } => (*lo, *hi),
                    _ => return Err(DataPlaneError::BadArguments("FilterBand needs a band")),
                };
                let events = one_events(0)?;
                let mut kept = RecordCount::default();
                infallible(prim::filter_band_into(events, lo, hi, &mut kept));
                events_of(kept.0, &|w| prim::filter_band_into(events, lo, hi, w))?
            }
            PrimitiveKind::FilterTime => {
                let (start, end) = match params {
                    PrimitiveParams::TimeRange { start, end } => (*start, *end),
                    _ => return Err(DataPlaneError::BadArguments("FilterTime needs a range")),
                };
                let events = one_events(0)?;
                let mut kept = RecordCount::default();
                infallible(prim::filter_time_into(events, start, end, &mut kept));
                events_of(kept.0, &|w| prim::filter_time_into(events, start, end, w))?
            }
            PrimitiveKind::Project => {
                let events = one_events(0)?;
                self.produce(budget, events.len(), StoredData::Scalars, |w| {
                    prim::project_keys_into(events, w)
                })?
            }
            PrimitiveKind::Sample => {
                let every = match params {
                    PrimitiveParams::Every(n) => *n,
                    _ => return Err(DataPlaneError::BadArguments("Sample needs a period")),
                };
                let events = one_events(0)?;
                events_of(events.len().div_ceil(every.max(1)), &|w| {
                    prim::sample_every_into(events, every, w)
                })?
            }
            PrimitiveKind::Join => {
                let (left, right) = (key_sorted(one_events(0)?)?, key_sorted(one_events(1)?)?);
                // Counted first: the result can be many times its inputs and
                // must be reserved exactly so it never relocates.
                self.produce(budget, prim::join_len(left, right), StoredData::Pairs, |w| {
                    prim::join_by_key_into(left, right, w)
                })?
            }
        };
        Ok(vec![(output, None)])
    }
}
