//! Figure 11: 128-way merge over dynamically growing buffers — uArray
//! (in-place growth backed by the TEE pager) versus a `std::vector`-style
//! relocating buffer. The paper measures uArray about 4× faster.
//!
//! Run with `cargo run --release -p sbt-bench --bin fig11_uarray`.

use sbt_baselines::growth::multiway_merge_relocating_stats;
use sbt_bench::print_table;
use sbt_tz::{CostModel, SecureMemory, TzStats};
use sbt_uarray::{TeePager, UArray, UArrayId};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct MergeRow {
    container: String,
    seconds: f64,
    relocation_overhead_s: f64,
}

/// Build the 128 sorted runs of the microbenchmark (512 KB each at paper
/// scale: 128K 32-bit integers, stored here as u64 for the shared kernels).
fn make_runs(run_len: usize) -> Vec<Vec<u64>> {
    (0..128)
        .map(|r| {
            let mut v: Vec<u64> = (0..run_len as u64)
                .map(|i| (i.wrapping_mul(2654435761) ^ (r as u64) << 17) & 0xFFFF_FFFF)
                .collect();
            v.sort_unstable();
            v
        })
        .collect()
}

/// N-way merge using uArrays as the growing output buffers: pairwise merges
/// where each output uArray grows in place, committing pages through the
/// TEE pager.
fn merge_with_uarrays(runs: &[Vec<u64>], pager: &TeePager) -> (Vec<u64>, u64) {
    let mut current: Vec<Vec<u64>> = runs.to_vec();
    let mut next_id = 0u64;
    let mut paging_nanos = 0u64;
    while current.len() > 1 {
        let mut next = Vec::with_capacity(current.len().div_ceil(2));
        let mut iter = current.chunks(2);
        for pair in &mut iter {
            match pair {
                [a, b] => {
                    let mut out: UArray<u64> =
                        UArray::with_reservation(UArrayId(next_id), a.len() + b.len());
                    next_id += 1;
                    let (mut i, mut j) = (0, 0);
                    while i < a.len() && j < b.len() {
                        if a[i] <= b[j] {
                            out.append(a[i], pager).expect("secure memory");
                            i += 1;
                        } else {
                            out.append(b[j], pager).expect("secure memory");
                            j += 1;
                        }
                    }
                    out.extend_from_slice(&a[i..], pager).expect("secure memory");
                    out.extend_from_slice(&b[j..], pager).expect("secure memory");
                    paging_nanos += out.paging_nanos();
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
    (current.pop().unwrap_or_default(), paging_nanos)
}

fn main() {
    let full = std::env::var("SBT_FULL").map(|v| v == "1").unwrap_or(false);
    let run_len: usize = if full { 128 * 1024 } else { 32 * 1024 };
    let runs = make_runs(run_len);
    let total: usize = runs.iter().map(|r| r.len()).sum();

    // uArray variant: growth backed by the TEE pager (cheap page commits).
    let cost = CostModel::hikey();
    let pager = TeePager::new(Arc::new(SecureMemory::new(1 << 30)), Arc::new(TzStats::new()), cost);
    let start = Instant::now();
    let (merged_ua, paging_nanos) = merge_with_uarrays(&runs, &pager);
    let uarray_secs = start.elapsed().as_secs_f64() + paging_nanos as f64 / 1e9;
    assert_eq!(merged_ua.len(), total);

    // std::vector variant: relocating growth. Every intermediate merge level
    // allocates fresh buffers the commodity OS must fault in and zero, and
    // every capacity doubling copies the live prefix; both costs come from
    // the same cost model the TEE side is charged with (which charges the
    // much cheaper in-TEE page commits instead, and no relocation at all).
    let start = Instant::now();
    let (merged_vec, growth) = multiway_merge_relocating_stats(&runs);
    let os_paging = cost.os_paging_nanos(growth.touched_bytes.div_ceil(4096)) as f64 / 1e9;
    let relocation_penalty = cost.relocation_nanos(growth.relocated_bytes) as f64 / 1e9;
    let vec_secs = start.elapsed().as_secs_f64() + os_paging + relocation_penalty;
    assert_eq!(merged_vec.len(), total);
    assert_eq!(merged_ua, merged_vec);

    let rows = vec![
        MergeRow {
            container: "uArray".to_string(),
            seconds: uarray_secs,
            relocation_overhead_s: paging_nanos as f64 / 1e9,
        },
        MergeRow {
            container: "std::vector".to_string(),
            seconds: vec_secs,
            relocation_overhead_s: os_paging + relocation_penalty,
        },
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.container.clone(),
                format!("{:.3}", r.seconds),
                format!("{:.3}", r.relocation_overhead_s),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 11 — 128-way merge of {run_len}-integer runs"),
        &["container", "execution time (s)", "growth overhead (s)"],
        &table,
    );
    println!("std::vector / uArray: {:.1}x (paper reports ~4x)", vec_secs / uarray_secs);
    sbt_bench::dump_json("fig11_uarray", &rows);
}
