//! The shared primitive entry point: reference resolution, the dispatch
//! table, and in-place production into uArrays — into fresh pages, or, for
//! a `Sort` of an input its list consumes, into the input's own.
//!
//! Every invocation produces exactly one output, so its hints, and a list's
//! references to its output, are checked before anything runs. `Segment` is not invokable:
//! windowing has one home, the windowed ingress (`ingress.rs`), which cuts
//! a batch into its window arrays as it decrypts it.

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
use sbt_types::{infallible, Event, PrimitiveKind, RecordCount, RecordSink, TenantId};
use sbt_uarray::{CommitBudget, ConsumptionHint, HintSet, UArray, UArrayId, UArrayWriter};
use std::sync::Arc;
use std::time::Instant;

/// An output uArray under production: the record sink primitives produce
/// into inside the TEE, and a windowed ingress appends to.
///
/// A primitive's kernel appends to a [`RecordSink`]; here that sink is an
/// open [`UArrayWriter`], so records are written once, in their final
/// location, pages committing as the append index crosses them. The newtype
/// exists because neither the trait (`sbt_types`) nor the writer
/// (`sbt_uarray`) is this crate's, and keeping them apart keeps the uArray
/// layer free of the record model.
pub(crate) struct Output<'a, T: Copy>(pub(crate) UArrayWriter<'a, T>);

impl<T: Copy> RecordSink<T> for Output<'_, T> {
    type Error = DataPlaneError;

    #[inline]
    fn push(&mut self, record: T) -> Result<(), DataPlaneError> {
        Ok(self.0.push(record)?)
    }

    #[inline]
    fn extend_from_slice(&mut self, records: &[T]) -> Result<(), DataPlaneError> {
        Ok(self.0.extend_from_slice(records)?)
    }
}

/// An input of an invocation.
pub(super) enum Input {
    /// Shared with the store, and with whoever else holds it.
    Shared(Arc<StoredData>),
    /// Consumed by the invoking list and held by nothing else: the output
    /// may take over its pages.
    Owned(StoredData),
}

impl Input {
    fn data(&self) -> &StoredData {
        match self {
            Input::Shared(data) => data,
            Input::Owned(data) => data,
        }
    }
}

/// The field a sort primitive orders by; `None` for every other primitive.
fn sort_field(op: PrimitiveKind) -> Option<fn(&Event) -> u32> {
    match op {
        PrimitiveKind::Sort => Some(|e| e.key),
        PrimitiveKind::SortByValue => Some(|e| e.value),
        PrimitiveKind::SortByTime => Some(|e| e.ts_ms),
        _ => None,
    }
}

/// The grouped aggregates and `Join` read their inputs as key-sorted runs.
/// Over an unsorted run they would return a well-sized but meaningless
/// result, so a run that is not key-sorted is refused before anything is
/// reserved.
fn key_sorted(runs: Vec<&[Event]>) -> Result<Vec<&[Event]>, DataPlaneError> {
    if runs.iter().all(|run| run.windows(2).all(|w| w[0].key <= w[1].key)) {
        Ok(runs)
    } else {
        Err(DataPlaneError::BadArguments("input not key-sorted"))
    }
}

impl DataPlane {
    /// Execute a trusted primitive over opaque inputs, producing one opaque
    /// output (the single entry function shared by the primitives; the
    /// boundary operations and `Segment`, which runs only at windowed
    /// ingress, are refused). Inputs resolve only in the calling tenant's
    /// reference namespace; the output is charged against the tenant's
    /// memory quota. A one-command list; the output comes back alone in
    /// its `Vec`.
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
            Reply::Invoke(output) => Ok(vec![output]),
            other => unreachable!("invoke replied {other:?}"),
        }
    }

    /// The body of an `Invoke` command: the output is registered at once,
    /// its record staged in `list`. `take_first`: the list consumes the
    /// first input (see [`command::consumes`](crate::command)), so a sort
    /// may take over its pages.
    pub(super) fn run_invoke(
        &self,
        list: &mut Staged<'_>,
        op: PrimitiveKind,
        inputs: &[OpaqueRef],
        params: PrimitiveParams,
        hints: &HintSet,
        take_first: bool,
    ) -> Result<InvokeOutput, DataPlaneError> {
        let tenant = list.tenant;
        // The boundary operations have entry points of their own, and
        // windowing runs only where a batch enters (`WindowedIngress`).
        if matches!(op, PrimitiveKind::Ingress | PrimitiveKind::Egress | PrimitiveKind::Segment) {
            return Err(DataPlaneError::BadArguments("not an invokable primitive"));
        }
        // Validate all references and hints before doing any work.
        let mut resolved = Vec::with_capacity(inputs.len());
        for (i, r) in inputs.iter().enumerate() {
            resolved.push(if i == 0 && take_first && sort_field(op).is_some() {
                self.take(list, *r)?
            } else {
                let (id, data) = self.lookup(list.ts, *r)?;
                (id, Input::Shared(data))
            });
        }
        self.check_hints(tenant, hints)?;
        let input_ids: Vec<UArrayId> = resolved.iter().map(|(id, _)| *id).collect();
        // The output of a sort that takes over its input holds the input's
        // pages: the ledger moves them from one to the other.
        let from = match resolved.first() {
            Some((id, Input::Owned(data))) => Some((*id, data.committed_bytes())),
            _ => None,
        };

        // What the tenant may still commit: the output draws on it page by
        // page as it is produced, so an invocation that would overrun the
        // quota stops mid-production with its pages released. (The admission
        // in `commit_output` stays the authority: a concurrent invocation
        // of the same tenant may have used the headroom meanwhile.)
        let budget =
            CommitBudget::new(self.alloc.lock().allocator.owner_headroom(tenant.owner_tag()));
        let compute_start = Instant::now();
        let inputs = resolved.into_iter().map(|(_, input)| input).collect();
        let produced = self.execute(op, inputs, &params, &budget)?;
        let compute_nanos = compute_start.elapsed().as_nanos() as u64;
        let memory_nanos = produced.paging_nanos();

        // Register the output: allocator placement (guided by hints) with
        // quota charging, reference minting, its audit record. The producer
        // tag identifies the primitive *type*: the Figure 10 baseline policy
        // treats all outputs of the same primitive as one generation and
        // co-locates them.
        let producer_tag = op.code() as u64;
        let (id, output) = self.commit_output(list, producer_tag, produced, hints, from)?;
        list.records.push(AuditRecord::Execution {
            ts_ms: self.now_ms(),
            op,
            inputs: input_ids.iter().map(|i| UArrayRef(i.0 as u32)).collect(),
            outputs: [UArrayRef(id.0 as u32)].into(),
            hints: hints.iter().map(|h| h.encode()).collect(),
        });
        self.stats.record_invocation(InvocationBreakdown { compute_nanos, memory_nanos });
        Ok(output)
    }

    /// Hints are control-plane input like the references they travel with,
    /// and the trail attests them, so malformed ones are refused before
    /// anything is reserved: more than one (an invocation has one output),
    /// a parallel hint whose index is outside `0..k`, and a consumed-after
    /// hint naming a uArray not charged to the caller — placement would
    /// otherwise append the output to another tenant's uGroup.
    fn check_hints(&self, tenant: TenantId, hints: &HintSet) -> Result<(), DataPlaneError> {
        if hints.len() > 1 {
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
        fill: impl FnOnce(&mut Output<'a, T>) -> Result<(), DataPlaneError>,
    ) -> Result<StoredData, DataPlaneError> {
        let mut output = Output(UArrayWriter::reserve(items, &self.pager, budget));
        fill(&mut output)?;
        Ok(layout(output.0.seal(self.next_id())))
    }

    /// Sort an event array in place, by `field`: in the input's own pages
    /// when the list consumes it and nothing else holds it, otherwise in
    /// fresh pages holding a copy of it. One kernel either way.
    fn sort(
        &self,
        input: Input,
        field: fn(&Event) -> u32,
        budget: &CommitBudget,
    ) -> Result<StoredData, DataPlaneError> {
        let mut output = match input {
            Input::Owned(StoredData::Events(array)) => {
                UArrayWriter::take_over(array, &self.pager, budget)?
            }
            input => {
                let events = input.data().as_events()?;
                let mut fresh = UArrayWriter::reserve(events.len(), &self.pager, budget);
                fresh.extend_from_slice(events)?;
                fresh
            }
        };
        prim::sort_events_in_place(output.records_mut(), field);
        Ok(StoredData::Events(output.seal(self.next_id())))
    }

    /// The primitive dispatch table. A sort rewrites its input in place
    /// (see [`sort`](DataPlane::sort)); every other arm runs its
    /// primitive's kernel with an open uArray writer as the record sink
    /// (see [`produce`](DataPlane::produce)), reserved for the output's
    /// exact size where the inputs determine it and for an upper bound
    /// otherwise. Returns the one array produced.
    fn execute(
        &self,
        op: PrimitiveKind,
        inputs: Vec<Input>,
        params: &PrimitiveParams,
        budget: &CommitBudget,
    ) -> Result<StoredData, DataPlaneError> {
        if let Some(field) = sort_field(op) {
            let input =
                inputs.into_iter().next().ok_or(DataPlaneError::BadArguments("missing input"))?;
            return self.sort(input, field, budget);
        }
        let one_events = |n: usize| -> Result<&[Event], DataPlaneError> {
            inputs.get(n).ok_or(DataPlaneError::BadArguments("missing input"))?.data().as_events()
        };
        // Every input, at least one: what a merge, a concatenation and an
        // unkeyed reduce (over a window's arrays) read.
        let all_events = || {
            one_events(0)?;
            (0..inputs.len()).map(one_events).collect::<Result<Vec<_>, _>>()
        };
        let events_of = |items, fill: &dyn Fn(&mut Output<Event>) -> Result<(), DataPlaneError>| {
            self.produce(budget, items, StoredData::Events, fill)
        };
        let scalars_of = |scalars: &[u64]| {
            self.produce(budget, scalars.len(), StoredData::Scalars, |w| {
                w.extend_from_slice(scalars)
            })
        };
        Ok(match op {
            PrimitiveKind::Ingress | PrimitiveKind::Egress | PrimitiveKind::Segment => {
                unreachable!("refused before any input resolves")
            }
            PrimitiveKind::Sort | PrimitiveKind::SortByValue | PrimitiveKind::SortByTime => {
                unreachable!("a sort rewrites its input in place")
            }
            PrimitiveKind::Merge | PrimitiveKind::Union => {
                let (a, b) = (one_events(0)?, one_events(1)?);
                events_of(a.len() + b.len(), &|w| prim::merge_sorted_by_key_into(a, b, w))?
            }
            PrimitiveKind::MergeK => {
                let runs = all_events()?;
                let total = runs.iter().map(|r| r.len()).sum();
                events_of(total, &|w| prim::merge_runs_by_key_into(&runs, w))?
            }
            PrimitiveKind::Concat => {
                let parts = all_events()?;
                let total = parts.iter().map(|p| p.len()).sum();
                events_of(total, &|w| prim::concat_events_into(&parts, w))?
            }
            // The keyed reduces read all their inputs as the key-sorted runs
            // of one window, where they lie: no merged copy.
            PrimitiveKind::SumCnt | PrimitiveKind::AveragePerKey => {
                let runs = key_sorted(all_events()?)?;
                self.produce(budget, prim::key_runs(&runs), StoredData::Aggs, |w| {
                    prim::sum_count_per_key_into(&runs, w)
                })?
            }
            PrimitiveKind::CountPerKey => {
                let runs = key_sorted(all_events()?)?;
                self.produce(budget, prim::key_runs(&runs), StoredData::Pairs, |w| {
                    prim::count_per_key_into(&runs, w)
                })?
            }
            PrimitiveKind::MedianPerKey => {
                let runs = key_sorted(all_events()?)?;
                self.produce(budget, prim::key_runs(&runs), StoredData::Pairs, |w| {
                    prim::median_per_key_into(&runs, w)
                })?
            }
            PrimitiveKind::Unique => {
                let runs = key_sorted(all_events()?)?;
                self.produce(budget, prim::key_runs(&runs), StoredData::Scalars, |w| {
                    prim::unique_keys_into(&runs, w)
                })?
            }
            // The unkeyed reduces read all their inputs as one window: a
            // window's arrays, without a concatenated copy.
            PrimitiveKind::Sum => scalars_of(&[all_events()?.into_iter().map(prim::sum).sum()])?,
            PrimitiveKind::Count => {
                scalars_of(&[all_events()?.into_iter().map(prim::count).sum()])?
            }
            PrimitiveKind::Average => {
                let runs = all_events()?;
                let (sum, count) =
                    (runs.iter().map(|r| prim::sum(r)), runs.iter().map(|r| r.len()));
                scalars_of(&[sum
                    .sum::<u64>()
                    .checked_div(count.sum::<usize>() as u64)
                    .unwrap_or(0)])?
            }
            PrimitiveKind::Median => {
                scalars_of(&[prim::median(&all_events()?).unwrap_or(0) as u64])?
            }
            PrimitiveKind::MinMax => {
                let ranges = all_events()?.into_iter().filter_map(prim::min_max);
                let (lo, hi) =
                    ranges.reduce(|(a, b), (c, d)| (a.min(c), b.max(d))).unwrap_or((0, 0));
                scalars_of(&[lo as u64, hi as u64])?
            }
            PrimitiveKind::TopK => {
                let k = match params {
                    PrimitiveParams::K(k) => *k,
                    _ => return Err(DataPlaneError::BadArguments("TopK needs K")),
                };
                let runs = all_events()?;
                let events: usize = runs.iter().map(|r| r.len()).sum();
                self.produce(budget, events.min(k), StoredData::Scalars, |w| {
                    prim::top_k_by_value_into(&runs, k, w)
                })?
            }
            PrimitiveKind::TopKPerKey => {
                let k = match params {
                    PrimitiveParams::K(k) => *k,
                    _ => return Err(DataPlaneError::BadArguments("TopKPerKey needs K")),
                };
                let runs = key_sorted(all_events()?)?;
                self.produce(budget, prim::top_k_per_key_len(&runs, k), StoredData::Pairs, |w| {
                    prim::top_k_per_key_into(&runs, k, w)
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
                // `Left(n)`: the first n inputs are the left side's runs;
                // `None`: one input a side.
                let left = match params {
                    PrimitiveParams::None if inputs.len() == 2 => 1,
                    PrimitiveParams::Left(n) if (1..inputs.len()).contains(n) => *n,
                    _ => return Err(DataPlaneError::BadArguments("Join needs runs on both sides")),
                };
                let runs = key_sorted(all_events()?)?;
                // Counted first: the result can be many times its inputs and
                // must be reserved exactly so it never relocates.
                self.produce(budget, prim::join_len(&runs, left), StoredData::Pairs, |w| {
                    prim::join_by_key_into(&runs, left, w)
                })?
            }
        })
    }
}
