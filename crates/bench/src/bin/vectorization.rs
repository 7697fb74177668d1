//! §9.3 trusted-primitive vectorization: replacing the lane-parallel Sort
//! kernel that underpins GroupBy with generic comparison sorts (a libc-style
//! qsort and std::sort) drops GroupBy throughput — the paper measures up to
//! 7x (qsort) and 2x (std::sort).
//!
//! The same lesson applies to the TEE boundary's cipher: the second table
//! compares the CTR kernel the process actually runs (AES-NI, eight blocks
//! per iteration, where the CPU has it — the header says which), the
//! portable kernel (four blocks per iteration through the word-parallel
//! round tables, keystream consumed with whole-word XORs) and the
//! byte-at-a-time single-block reference.
//!
//! Run with `cargo run --release -p sbt_bench --bin vectorization`.

use sbt_bench::print_table;
use sbt_crypto::{soft, Aes128, AesCtr};
use sbt_primitives::{sort_events_by_key, sum_count_per_key};
use sbt_types::Event;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct SortRow {
    implementation: String,
    groupby_mevents_per_sec: f64,
    slowdown_vs_vectorized: f64,
}

/// A deliberately generic, callback-driven quicksort standing in for libc's
/// `qsort`: every comparison goes through an opaque function pointer on
/// byte buffers, which is exactly why `qsort` cannot be inlined or
/// vectorized.
fn qsort_like(events: &mut [Event], cmp: fn(&[u8], &[u8]) -> std::cmp::Ordering) {
    if events.len() <= 1 {
        return;
    }
    let pivot = events[events.len() / 2].to_bytes();
    let (mut left, mut right): (Vec<Event>, Vec<Event>) = (Vec::new(), Vec::new());
    let mut equal = Vec::new();
    for e in events.iter() {
        match cmp(&e.to_bytes(), &pivot) {
            std::cmp::Ordering::Less => left.push(*e),
            std::cmp::Ordering::Equal => equal.push(*e),
            std::cmp::Ordering::Greater => right.push(*e),
        }
    }
    qsort_like(&mut left, cmp);
    qsort_like(&mut right, cmp);
    for (i, e) in left.into_iter().chain(equal).chain(right).enumerate() {
        events[i] = e;
    }
}

fn key_cmp(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
    let ka = u32::from_le_bytes(a[0..4].try_into().unwrap());
    let kb = u32::from_le_bytes(b[0..4].try_into().unwrap());
    ka.cmp(&kb)
}

/// GroupBy = sort by key + per-key aggregation, timed over `iters` batches.
fn groupby_throughput(
    events: &[Event],
    iters: usize,
    sort: impl Fn(&[Event]) -> Vec<Event>,
) -> f64 {
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..iters {
        let sorted = sort(events);
        let aggs = sum_count_per_key(&sorted);
        sink = sink.wrapping_add(aggs.len() as u64);
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    (events.len() * iters) as f64 / 1e6 / elapsed
}

#[derive(Serialize)]
struct CtrRow {
    implementation: String,
    mb_per_sec: f64,
    speedup_vs_scalar: f64,
}

/// Throughput of `apply(buf, start_block)` over `buf`, in MB/s.
fn ctr_throughput(buf: &mut [u8], iters: usize, apply: impl Fn(&mut [u8], u32)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        apply(buf, i as u32);
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(&buf[0]);
    (buf.len() * iters) as f64 / 1e6 / elapsed
}

fn ctr_comparison(full: bool) -> Vec<CtrRow> {
    let (key, nonce) = ([7u8; 16], [9u8; 16]);
    let ctr = AesCtr::new(&key, &nonce);
    let round_keys = Aes128::new(&key);
    let mut buf = vec![0xA5u8; if full { 4 << 20 } else { 1 << 20 }];
    let iters = if full { 32 } else { 8 };
    let active = ctr_throughput(&mut buf, iters, |b, at| ctr.apply_keystream_at(b, at));
    let portable =
        ctr_throughput(&mut buf, iters, |b, at| soft::ctr_xor(&round_keys, &nonce, at, None, b));
    let scalar = ctr_throughput(&mut buf, iters, |b, at| ctr.apply_keystream_scalar_at(b, at));
    [
        (format!("active kernel ({})", sbt_crypto::backend().aes), active),
        ("portable CTR (4 blocks/iter, round tables, word XOR)".to_string(), portable),
        ("scalar CTR (1 block/iter, byte XOR)".to_string(), scalar),
    ]
    .into_iter()
    .map(|(implementation, mb_per_sec)| CtrRow {
        implementation,
        mb_per_sec,
        speedup_vs_scalar: mb_per_sec / scalar,
    })
    .collect()
}

fn main() {
    sbt_bench::print_crypto_backend();
    let full = std::env::var("SBT_FULL").map(|v| v == "1").unwrap_or(false);
    let n: usize = if full { 1_000_000 } else { 200_000 };
    let iters = if full { 5 } else { 10 };
    let events: Vec<Event> = (0..n)
        .map(|i| Event::new(((i as u64 * 2654435761) % 1000) as u32, (i % 65536) as u32, 0))
        .collect();

    let vectorized = groupby_throughput(&events, iters, sort_events_by_key);
    let std_sort = groupby_throughput(&events, iters, |e| {
        let mut v = e.to_vec();
        v.sort_by_key(|ev| ev.key);
        v
    });
    let qsort = groupby_throughput(&events, iters, |e| {
        let mut v = e.to_vec();
        qsort_like(&mut v, key_cmp);
        v
    });

    let rows = vec![
        SortRow {
            implementation: "vectorized Sort (StreamBox-TZ)".to_string(),
            groupby_mevents_per_sec: vectorized,
            slowdown_vs_vectorized: 1.0,
        },
        SortRow {
            implementation: "std::sort-style".to_string(),
            groupby_mevents_per_sec: std_sort,
            slowdown_vs_vectorized: vectorized / std_sort,
        },
        SortRow {
            implementation: "qsort-style (callback compare)".to_string(),
            groupby_mevents_per_sec: qsort,
            slowdown_vs_vectorized: vectorized / qsort,
        },
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.implementation.clone(),
                format!("{:.2}", r.groupby_mevents_per_sec),
                format!("{:.1}x", r.slowdown_vs_vectorized),
            ]
        })
        .collect();
    print_table(
        &format!("§9.3 — GroupBy throughput by Sort implementation ({n} events/batch)"),
        &["sort implementation", "GroupBy Mevents/s", "slowdown vs vectorized"],
        &table,
    );
    println!("\nExpectation from the paper: qsort up to ~7x slower, std::sort up to ~2x slower.");

    let ctr_rows = ctr_comparison(full);
    let ctr_table: Vec<Vec<String>> = ctr_rows
        .iter()
        .map(|r| {
            vec![
                r.implementation.clone(),
                format!("{:.1}", r.mb_per_sec),
                format!("{:.2}x", r.speedup_vs_scalar),
            ]
        })
        .collect();
    print_table(
        "AES-CTR keystream throughput (TEE ingress/egress hot loop)",
        &["ctr implementation", "MB/s", "speedup vs scalar"],
        &ctr_table,
    );
    sbt_bench::dump_json("vectorization", &rows);
    sbt_bench::dump_json("vectorization_ctr", &ctr_rows);
}
