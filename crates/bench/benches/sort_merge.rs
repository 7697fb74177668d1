//! Criterion benchmarks for the Sort/Merge trusted primitives versus the
//! generic comparison sorts the paper compares against (§9.3), and for the
//! other kernels on a pipeline's hot path — Segment, MergeK, event Merge,
//! TopKPerKey, Join — at the shapes the repository's benchmark drives them
//! with, and a keyed fire's reduce reading its sorted runs where they lie
//! beside the `MergeK` + reduce it replaced. All run over the `Vec` sink:
//! the same kernels the data plane runs over a uArray writer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sbt_primitives::{
    join_by_key, join_by_key_into, join_len, merge_runs_by_key_into, merge_sorted_by_key,
    segment_by_window, sort_events_by_key, top_k_per_key, top_k_per_key_into, vector_sort_u64,
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

/// MergeK at two window shapes: 4 sorted partitions of 25 000 events and
/// 25 of 1 000, both over 1 000 keys. (A fire no longer merges; MergeK is
/// the one-command `invoke`'s.)
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

/// A keyed fire's tail, over the window's sorted runs: the reduce reading
/// them where they lie, and `MergeK` into one array (once a side for Join)
/// followed by the reduce over it. `topk`: two runs of 50 000 events over
/// 1 000 keys, top 10 of each key. `join`: two runs of 20 000 a side over
/// 10 000 keys, 160 000 rows. The outputs are reserved once, as a uArray
/// writer's are.
fn bench_fire_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("fire_reduce");
    group.sample_size(10);
    let sorted_runs = |n: usize, keys: usize, runs: usize| -> Vec<Vec<Event>> {
        let events = make_stream(n, keys, 1_000);
        events.chunks(n / runs).map(sort_events_by_key).collect()
    };

    let topk = sorted_runs(100_000, 1_000, 2);
    let runs: Vec<&[Event]> = topk.iter().map(Vec::as_slice).collect();
    let (mut merged, mut pairs) = (Vec::with_capacity(100_000), Vec::with_capacity(10_000));
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("top_k_per_key_over_2x50k_runs", |b| {
        b.iter(|| {
            pairs.clear();
            infallible(top_k_per_key_into(&runs, 10, &mut pairs));
        })
    });
    group.bench_function("merge_k_then_top_k_per_key_2x50k", |b| {
        b.iter(|| {
            merged.clear();
            pairs.clear();
            infallible(merge_runs_by_key_into(&runs, &mut merged));
            infallible(top_k_per_key_into(&[&merged], 10, &mut pairs));
        })
    });

    let (left, right) = (sorted_runs(40_000, 10_000, 2), sorted_runs(40_000, 10_000, 2));
    let runs: Vec<&[Event]> = left.iter().chain(&right).map(Vec::as_slice).collect();
    let rows = join_len(&runs, 2);
    assert_eq!(rows, 160_000);
    let mut sides = [Vec::with_capacity(40_000), Vec::with_capacity(40_000)];
    let mut joined = Vec::with_capacity(rows);
    group.throughput(Throughput::Elements(80_000));
    group.bench_function("join_over_2x20k_runs_a_side", |b| {
        b.iter(|| {
            joined.clear();
            infallible(join_by_key_into(&runs, 2, &mut joined));
        })
    });
    group.bench_function("merge_k_a_side_then_join_2x20k", |b| {
        b.iter(|| {
            joined.clear();
            for (side, side_runs) in sides.iter_mut().zip(runs.chunks(2)) {
                side.clear();
                infallible(merge_runs_by_key_into(side_runs, side));
            }
            infallible(join_by_key_into(&[&sides[0], &sides[1]], 1, &mut joined));
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sort,
    bench_event_sort,
    bench_merge,
    bench_segment,
    bench_event_kernels,
    bench_fire_reduce
);
criterion_main!(benches);
