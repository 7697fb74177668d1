//! Trusted primitives: the only computations allowed on protected stream
//! data inside the StreamBox-TZ data plane (§5, Table 2).
//!
//! Trusted primitives are stateless, single-threaded functions over
//! contiguous arrays. They deliberately trade algorithmic sophistication for
//! simple logic and low memory overhead: the data plane's universal data
//! container is a flat array, so most primitives are sequential scans or
//! merge passes over sorted arrays rather than hash-table lookups. The two
//! hottest primitives — Sort and Merge — use a lane-parallel, branch-reduced
//! implementation standing in for the paper's hand-written ARMv8 NEON
//! kernels (the scalar baselines they are compared against in §9.3 live in
//! the benchmark harness).
//!
//! Each primitive that produces an array is one kernel, `…_into`, that
//! appends its output to a [`sbt_types::RecordSink`] in a single pass and
//! allocates nothing of its own (working memory is per-thread scratch). The
//! data plane runs the kernel over an open uArray writer, so the output is
//! written once, in place; the `Vec`-returning function of the same name is
//! the same kernel over a `Vec`. Sort is the exception that proves the
//! rule: [`sort_events_in_place`] rewrites its array where it lies, so the
//! data plane can sort a consumed uArray in its own pages (or a fresh copy
//! of a shared one), and `sort_events_by_*` sort a copy. The keyed kernels
//! (the per-key aggregates, TopKPerKey, Join) take a window's key-sorted
//! runs and read them where they lie, key by key, in the order a `MergeK`
//! of the runs would give; their `Vec` functions are the one-run case.
//! Where the output size is not implied by the input lengths a cheap
//! `…_len` pass (or a run over [`sbt_types::RecordCount`]) gives it
//! exactly, for producers that reserve before they write.
//!
//! All primitives are pure functions of their inputs, which is what lets the
//! cloud verifier reason about dataflow without re-executing them, and what
//! makes parallel invocation from many worker threads safe without any
//! locking inside the TEE.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod concat;
pub mod filter;
pub mod grouped;
pub mod join;
pub mod merge;
mod scratch;
pub mod segment;
pub mod sort;
pub mod topk;

pub use aggregate::{average, count, median, min_max, sum, sum_count};
pub use concat::{concat_events, concat_events_into, union_events};
pub use filter::{
    filter_band, filter_band_into, filter_time, filter_time_into, project_keys, project_keys_into,
    sample_every, sample_every_into,
};
pub use grouped::{
    avg_per_key, count_per_key, count_per_key_into, key_runs, median_per_key, median_per_key_into,
    sum_count_per_key, sum_count_per_key_into, unique_keys, unique_keys_into,
};
pub use join::{join_by_key, join_by_key_into, join_len};
pub use merge::{merge_runs_by_key_into, merge_sorted_by_key, merge_sorted_by_key_into};
pub use segment::{segment_by_window, segment_into};
pub use sort::{
    sort_events_by_key, sort_events_by_time, sort_events_by_value, sort_events_in_place,
    vector_sort_u64,
};
pub use topk::{
    top_k_by_value, top_k_by_value_into, top_k_per_key, top_k_per_key_into, top_k_per_key_len,
};
