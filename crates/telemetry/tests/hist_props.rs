//! Histogram correctness, proven two ways:
//!
//! 1. **Property**: per-worker histograms merged together equal a
//!    single-threaded reference histogram over the union of the samples —
//!    identical counts and sums, identical quantiles — and every reported
//!    quantile brackets the exact sorted-order quantile within the
//!    log-bucket error bound (one sub-bucket, ≈3.1% relative).
//! 2. **Allocation-free**: the shared counting allocator (`counting_alloc`)
//!    shows that recording into an existing histogram performs zero
//!    allocations, at any value magnitude.

use proptest::prelude::*;
use sbt_telemetry::hist::{bucket_ceil, bucket_floor, bucket_index};
use sbt_telemetry::LatencyHistogram;

// Per-thread accounting: sibling tests allocating on other threads cannot
// disturb a measurement.
#[global_allocator]
static GLOBAL: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator;

/// Exact reference quantile: the `ceil(q·n)`-th smallest sample.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merged per-worker histograms are indistinguishable from one
    /// histogram that saw every sample, and quantiles respect the bucket
    /// error bound against the exact sorted reference.
    #[test]
    fn merged_workers_equal_single_threaded_reference(
        worker_samples in collection::vec(
            collection::vec(0u64..=200_000_000_000, 1..200),
            1..5,
        )
    ) {
        let reference = LatencyHistogram::new();
        let merged = LatencyHistogram::new();
        let mut all: Vec<u64> = Vec::new();
        for samples in &worker_samples {
            let worker = LatencyHistogram::new();
            for &v in samples {
                worker.record(v);
                reference.record(v);
                all.push(v);
            }
            merged.merge_from(&worker);
        }
        all.sort_unstable();

        let (sm, sr) = (merged.snapshot(), reference.snapshot());
        prop_assert_eq!(sm.count, sr.count);
        prop_assert_eq!(sm.sum, sr.sum);
        prop_assert_eq!(sm.max, sr.max);
        prop_assert_eq!(sm.max, *all.last().unwrap());
        prop_assert_eq!(sm.sum, all.iter().copied().sum::<u64>());

        for q in [0.5, 0.95, 0.99, 1.0] {
            let reported = sm.quantile(q);
            prop_assert_eq!(reported, sr.quantile(q), "merge changed quantile q={}", q);
            // The reported value is the ceiling of the bucket holding the
            // exact quantile, capped at max: never below the exact value,
            // and above it by at most one sub-bucket.
            let exact = exact_quantile(&all, q);
            prop_assert!(reported >= exact, "q={} reported {} < exact {}", q, reported, exact);
            let bound = bucket_ceil(bucket_index(exact));
            prop_assert!(reported <= bound, "q={} reported {} > bucket bound {}", q, reported, bound);
        }
    }

    /// The bucket mapping is monotone and self-consistent over the whole
    /// input domain.
    #[test]
    fn bucket_mapping_is_monotone_and_consistent(v in 0u64..=u64::MAX) {
        let i = bucket_index(v);
        prop_assert!(bucket_floor(i) <= v);
        prop_assert!(v <= bucket_ceil(i));
        if v > 0 {
            prop_assert!(bucket_index(v - 1) <= i);
        }
        if v < u64::MAX {
            prop_assert!(bucket_index(v + 1) >= i);
        }
    }
}

#[test]
fn recording_is_allocation_free() {
    let h = LatencyHistogram::new(); // the only allocation this type makes
                                     // Touch every code path once (small exact buckets, large log buckets).
    h.record(3);
    h.record(1_000_000_000);

    let before = counting_alloc::counts().allocations;
    for i in 0..10_000u64 {
        h.record(i * 37); // spans exact and log-bucketed ranges
        h.record(u64::MAX / (i + 1));
    }
    let snapshot_pre = counting_alloc::counts().allocations;
    assert_eq!(snapshot_pre - before, 0, "record() allocated");

    // Merging into an existing histogram is also allocation-free.
    let other = LatencyHistogram::new();
    other.record(55);
    let before_merge = counting_alloc::counts().allocations;
    h.merge_from(&other);
    assert_eq!(counting_alloc::counts().allocations - before_merge, 0, "merge_from() allocated");
}
