//! Criterion benchmarks for the Sort/Merge trusted primitives versus the
//! generic comparison sorts the paper compares against (§9.3), and for the
//! other kernels on a pipeline's hot path — Segment, MergeK, event Merge,
//! TopKPerKey, Join — at the shapes the repository's benchmark drives them
//! with. All run over the `Vec` sink: the same kernels the data plane runs
//! over a uArray writer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sbt_primitives::{
    join_by_key, merge_runs_by_key_into, merge_sorted_by_key, segment_by_window,
    sort_events_by_key, top_k_per_key, vector_sort_u64,
};
use sbt_types::{infallible, Duration, Event, WindowSpec};

fn make_u64s(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| (i.wrapping_mul(2654435761)) & 0xFFFF_FFFF).collect()
}

fn make_events(n: usize) -> Vec<Event> {
    (0..n).map(|i| Event::new(((i * 2654435761) % 1000) as u32, i as u32, 0)).collect()
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort_u64");
    group.sample_size(10);
    for &n in &[64_000usize, 256_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("vectorized", n), &n, |b, &n| {
            let data = make_u64s(n);
            b.iter(|| {
                let mut v = data.clone();
                vector_sort_u64(&mut v);
                v
            });
        });
        group.bench_with_input(BenchmarkId::new("std_unstable", n), &n, |b, &n| {
            let data = make_u64s(n);
            b.iter(|| {
                let mut v = data.clone();
                v.sort_unstable();
                v
            });
        });
    }
    group.finish();
}

fn bench_event_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort_events_by_key");
    group.sample_size(10);
    {
        let n = 100_000usize;
        group.throughput(Throughput::Elements(n as u64));
        let events = make_events(n);
        group.bench_with_input(BenchmarkId::new("vectorized", n), &n, |b, _| {
            b.iter(|| sort_events_by_key(&events));
        });
        group.bench_with_input(BenchmarkId::new("std_by_key", n), &n, |b, _| {
            b.iter(|| {
                let mut v = events.clone();
                v.sort_by_key(|e| e.key);
                v
            });
        });
    }
    group.finish();
}

/// MergeK at a fire's two shapes: `topk`'s 4 sorted partitions of 25 000
/// events and a `tenants4_small_batch` TopK tenant's 25 of 1 000, both over
/// 1 000 keys.
fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge");
    group.sample_size(10);
    for (k, run_len) in [(4usize, 25_000usize), (25, 1_000)] {
        let events = make_stream(k * run_len, 1_000, 1_000);
        let runs: Vec<Vec<Event>> = events.chunks(run_len).map(sort_events_by_key).collect();
        let runs: Vec<&[Event]> = runs.iter().map(Vec::as_slice).collect();
        let mut out = Vec::with_capacity(events.len());
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_function(format!("merge_k_{k}x{run_len}"), |b| {
            b.iter(|| {
                out.clear();
                infallible(merge_runs_by_key_into(&runs, &mut out));
            })
        });
    }
    group.finish();
}

/// `n` events over `keys` keys, spread evenly in time order over `span_ms`.
fn make_stream(n: usize, keys: usize, span_ms: usize) -> Vec<Event> {
    (0..n)
        .map(|i| {
            let key = (i.wrapping_mul(2654435761) % keys) as u32;
            let value = (i.wrapping_mul(40503) % 1_000_003) as u32;
            Event::new(key, value, (i * span_ms / n) as u32)
        })
        .collect()
}

fn bench_segment(c: &mut Criterion) {
    let mut group = c.benchmark_group("segment");
    group.sample_size(10);
    let spec = WindowSpec::fixed(Duration::from_secs(1));
    let n = 100_000usize;
    group.throughput(Throughput::Elements(n as u64));
    let one_window = make_stream(n, 1_000, 1_000);
    group.bench_function("one_window_100k", |b| b.iter(|| segment_by_window(&one_window, &spec)));
    let three_windows = make_stream(n, 1_000, 3_000);
    group.bench_function("three_windows_100k", |b| {
        b.iter(|| segment_by_window(&three_windows, &spec))
    });
    group.finish();
}

fn bench_event_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_kernels");
    group.sample_size(10);

    let halves = make_stream(100_000, 1_000, 1_000);
    let (a, b_run) = halves.split_at(50_000);
    let (a, b_run) = (sort_events_by_key(a), sort_events_by_key(b_run));
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("merge_by_key_2x50k", |b| b.iter(|| merge_sorted_by_key(&a, &b_run)));

    // 1 000 keys × 100 events, top 10 of each: the `topk` workload's fire.
    let sorted = sort_events_by_key(&make_stream(100_000, 1_000, 1_000));
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("top_k_per_key_1000x100_k10", |b| b.iter(|| top_k_per_key(&sorted, 10)));

    // 10 000 keys, 4 events a side: 160 000 joined rows, the `join`
    // workload's fire.
    let left = sort_events_by_key(&make_stream(40_000, 10_000, 1_000));
    let right = sort_events_by_key(&make_stream(40_000, 10_000, 1_000));
    assert_eq!(join_by_key(&left, &right).len(), 160_000);
    group.throughput(Throughput::Elements(80_000));
    group.bench_function("join_10k_keys_160k_rows", |b| b.iter(|| join_by_key(&left, &right)));
    group.finish();
}

criterion_group!(
    benches,
    bench_sort,
    bench_event_sort,
    bench_merge,
    bench_segment,
    bench_event_kernels
);
criterion_main!(benches);
