//! Criterion benchmark behind Figure 11: growing output buffers during an
//! N-way merge — uArray in-place growth versus std::vector-style relocation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sbt_baselines::growth::multiway_merge_relocating;
use sbt_tz::{CostModel, SecureMemory, TzStats};
use sbt_uarray::{TeePager, UArray, UArrayId};
use std::sync::Arc;

fn make_runs(count: usize, run_len: usize) -> Vec<Vec<u64>> {
    (0..count)
        .map(|r| {
            let mut v: Vec<u64> = (0..run_len as u64)
                .map(|i| (i.wrapping_mul(2654435761) ^ ((r as u64) << 17)) & 0xFFFF_FFFF)
                .collect();
            v.sort_unstable();
            v
        })
        .collect()
}

fn merge_with_uarrays(runs: &[Vec<u64>], pager: &TeePager) -> Vec<u64> {
    let mut current: Vec<Vec<u64>> = runs.to_vec();
    let mut id = 0u64;
    while current.len() > 1 {
        let mut next = Vec::with_capacity(current.len().div_ceil(2));
        for pair in current.chunks(2) {
            match pair {
                [a, b] => {
                    let mut out: UArray<u64> =
                        UArray::with_reservation(UArrayId(id), a.len() + b.len());
                    id += 1;
                    let (mut i, mut j) = (0, 0);
                    while i < a.len() && j < b.len() {
                        if a[i] <= b[j] {
                            out.append(a[i], pager).unwrap();
                            i += 1;
                        } else {
                            out.append(b[j], pager).unwrap();
                            j += 1;
                        }
                    }
                    out.extend_from_slice(&a[i..], pager).unwrap();
                    out.extend_from_slice(&b[j..], pager).unwrap();
                    let merged = out.as_slice().to_vec();
                    out.retire();
                    out.reclaim(pager);
                    next.push(merged);
                }
                [a] => next.push(a.clone()),
                _ => unreachable!(),
            }
        }
        current = next;
    }
    current.pop().unwrap_or_default()
}

fn bench_growth(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiway_merge_growth");
    group.sample_size(10);
    let runs = make_runs(32, 16_384);
    let total: usize = runs.iter().map(|r| r.len()).sum();
    group.throughput(Throughput::Elements(total as u64));

    group.bench_function("uarray_in_place", |b| {
        let pager = TeePager::new(
            Arc::new(SecureMemory::new(1 << 30)),
            Arc::new(TzStats::new()),
            CostModel::hikey(),
        );
        b.iter(|| merge_with_uarrays(&runs, &pager));
    });
    group.bench_function("vector_relocating", |b| {
        b.iter(|| multiway_merge_relocating(&runs));
    });
    group.finish();
}

criterion_group!(benches, bench_growth);
criterion_main!(benches);
