//! Parallel in-enclave ingest: lane planning and the worker-pool hook.
//!
//! One large ingest batch crosses the TEE boundary once; what happens
//! *after* the crossing — decrypting and parsing the payload into the
//! reserved uArray — is embarrassingly parallel because AES-CTR is
//! seekable. This module plans the split (CTR-block- and event-aligned
//! **lanes**); the lanes run on the [`sbt_types::LanePool`] the control
//! plane lends the data plane, so the data plane never depends on the
//! engine crate.
//!
//! The paper's data plane is multithreaded inside the TEE (§4: the control
//! plane maps pipeline parallelism onto data-plane threads); here the same
//! executor threads that run operators also run ingest lanes, and the split
//! never adds boundary crossings — all lanes live inside the one ingress
//! invocation.

/// The fixed decrypt window of zero-copy ingest, in bytes.
///
/// A multiple of both event layouts (lcm(12, 16) = 48) and of the AES block
/// size, so every window holds whole events and starts on a CTR block
/// boundary. Lane boundaries are multiples of this same window, which keeps
/// the parallel path's window sequence — and therefore its output —
/// byte-identical to the serial path's.
pub(crate) const WIRE_CHUNK: usize = 4080;

/// Least decrypt work a lane must carry before a batch fans out.
///
/// A lane is not free: its task is enqueued and picked up on another thread,
/// it fills a lane buffer instead of the destination, and the caller stitches
/// every lane buffer into the reserved extent afterwards — a second pass over
/// the payload that the serial path does not make. What a lane buys is its
/// share of the *decrypt*, so the floor is in decrypt time, and how many
/// bytes that is depends on the kernel doing the decrypting.
///
/// Measured on the reference host (2 SMT-sibling vCPUs, one worker plus the
/// helping caller, median of 200 encrypted batches, serial → two lanes): on
/// the portable kernel 24 KB 78 → 78 µs, 32 KB 114 → 74 µs, 64 KB
/// 225 → 133 µs, 1 MB 3.46 → 1.86 ms — two lanes of four windows each
/// (≈ 47 µs of decrypt per lane) already win, which is the floor this
/// constant encodes. On AES-NI the decrypt is ≈ 0.1 of the ≈ 0.34 ns/B a
/// serial ingest costs, the stitch costs more than the split saves, and two
/// lanes lose at every size tried (32 KB 11 → 13 µs, 256 KB 86 → 94 µs, 1 MB
/// 378 → 450 µs); the same floor keeps every batch under ≈ 860 KB serial
/// there and splits the paper's 1.2 MB batch two ways instead of eight.
const LANE_FLOOR_NANOS: u64 = 45_000;

/// CTR cost of the active back-end in picoseconds per byte, as measured on
/// the reference host (`cargo bench -p sbt_bench --bench crypto`, the
/// `backends[…]/ctr_*` rows): AES-NI ≈ 9.6 GB/s, portable ≈ 345 MB/s.
fn ctr_picos_per_byte() -> u64 {
    if sbt_crypto::backend().aes.is_hardware() {
        105
    } else {
        2_900
    }
}

/// Minimum decrypt windows per lane: [`LANE_FLOOR_NANOS`] of decrypt at the
/// active back-end's speed, in whole windows — 4 on the portable kernel,
/// 106 on AES-NI. Batches below twice this many windows stay serial.
pub(crate) fn min_lane_chunks() -> usize {
    let lane_bytes = LANE_FLOOR_NANOS * 1_000 / ctr_picos_per_byte();
    (lane_bytes as usize).div_ceil(WIRE_CHUNK)
}

/// Split a payload of `payload_bytes` into at most `workers` lanes of
/// whole [`WIRE_CHUNK`] windows: `(byte_offset, byte_len)` per lane,
/// contiguous and covering the payload exactly.
///
/// Lanes are balanced to within one window of each other, every lane
/// boundary is window-aligned — so a lane holds whole events and starts on
/// a CTR block boundary regardless of the record layout — and no lane is
/// shorter than `min_lane_chunks` windows (a payload too small for two
/// such lanes stays serial; the data plane passes [`min_lane_chunks`]).
pub(crate) fn lane_plan(
    payload_bytes: usize,
    workers: usize,
    min_lane_chunks: usize,
) -> Vec<(usize, usize)> {
    let chunks = payload_bytes.div_ceil(WIRE_CHUNK);
    if chunks == 0 {
        return Vec::new();
    }
    let lanes = workers.max(1).min(chunks / min_lane_chunks.max(1)).max(1);
    let mut plan = Vec::with_capacity(lanes);
    let mut taken_chunks = 0usize;
    for lane in 0..lanes {
        // Distribute the remainder one chunk at a time so lane sizes differ
        // by at most one window.
        let lane_chunks = chunks / lanes + usize::from(lane < chunks % lanes);
        let offset = taken_chunks * WIRE_CHUNK;
        let len = (lane_chunks * WIRE_CHUNK).min(payload_bytes - offset);
        plan.push((offset, len));
        taken_chunks += lane_chunks;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The portable kernel's floor, so the plans below do not depend on the
    /// runner's CPU.
    const MIN_LANE_CHUNKS: usize = 4;

    fn lane_plan(payload_bytes: usize, workers: usize) -> Vec<(usize, usize)> {
        super::lane_plan(payload_bytes, workers, MIN_LANE_CHUNKS)
    }

    #[test]
    fn the_floor_is_the_same_decrypt_time_on_either_back_end() {
        let windows = min_lane_chunks();
        let nanos = (windows * WIRE_CHUNK) as u64 * ctr_picos_per_byte() / 1_000;
        assert!(nanos >= LANE_FLOOR_NANOS, "{windows} windows are only {nanos} ns of decrypt");
        let expected = if sbt_crypto::backend().aes.is_hardware() { 106 } else { 4 };
        assert_eq!(windows, expected);
    }

    #[test]
    fn a_longer_floor_means_fewer_lanes_never_a_different_split_unit() {
        // The paper's 1.2 MB batch on an 8-wide pool: eight lanes at the
        // portable floor, two at the hardware one — window-aligned either way.
        assert_eq!(super::lane_plan(100_000 * 12, 8, 4).len(), 8);
        let plan = super::lane_plan(100_000 * 12, 8, 106);
        assert_eq!(plan.len(), 2);
        covers_exactly(&plan, 100_000 * 12);
    }

    fn covers_exactly(plan: &[(usize, usize)], total: usize) {
        let mut expect = 0;
        for &(off, len) in plan {
            assert_eq!(off, expect, "lanes must be contiguous");
            assert!(len > 0, "no empty lanes");
            assert!(off.is_multiple_of(WIRE_CHUNK), "lane start not window-aligned");
            expect = off + len;
        }
        assert_eq!(expect, total, "lanes must cover the payload");
    }

    #[test]
    fn plans_cover_and_align_across_shapes() {
        for total in [1usize, 48, 4080, 4081, 8160, 100_000 * 12, 254 * 16, 7 * 4080 + 1000] {
            for workers in [1usize, 2, 3, 4, 8, 16] {
                let plan = lane_plan(total, workers);
                covers_exactly(&plan, total);
                assert!(plan.len() <= workers.max(1));
                // Balanced to within one window (the unit of the split; the
                // final window may be partial, so compare window counts).
                if plan.len() > 1 {
                    let windows: Vec<usize> =
                        plan.iter().map(|&(_, l)| l.div_ceil(WIRE_CHUNK)).collect();
                    let max = windows.iter().max().unwrap();
                    let min = windows.iter().min().unwrap();
                    assert!(max - min <= 1, "unbalanced: {plan:?}");
                }
            }
        }
    }

    #[test]
    fn small_payloads_stay_serial() {
        // One window or less can only form one lane, whatever the pool width.
        assert_eq!(lane_plan(4080, 8).len(), 1);
        assert_eq!(lane_plan(100, 8).len(), 1);
        assert!(lane_plan(0, 8).is_empty());
    }

    #[test]
    fn fan_out_requires_min_windows_per_lane() {
        // Below 2 * MIN_LANE_CHUNKS windows there is no split: a lane must
        // amortize its dispatch cost over at least MIN_LANE_CHUNKS windows.
        assert_eq!(lane_plan(3 * WIRE_CHUNK, 8).len(), 1);
        assert_eq!(lane_plan((2 * MIN_LANE_CHUNKS - 1) * WIRE_CHUNK, 8).len(), 1);
        assert_eq!(lane_plan(2 * MIN_LANE_CHUNKS * WIRE_CHUNK, 8).len(), 2);
        // Width still caps the split once lanes are long enough.
        assert_eq!(lane_plan(100 * WIRE_CHUNK, 2).len(), 2);
        for &(_, len) in &lane_plan(100 * WIRE_CHUNK, 8) {
            assert!(len >= MIN_LANE_CHUNKS * WIRE_CHUNK);
        }
    }

    #[test]
    fn wide_pools_split_large_batches_per_worker() {
        // The paper's 100 K-event batch (1.2 MB) fills an 8-wide pool.
        let plan = lane_plan(100_000 * 12, 8);
        assert_eq!(plan.len(), 8);
        covers_exactly(&plan, 100_000 * 12);
    }

    #[test]
    fn lane_event_and_block_alignment() {
        // Every lane start must be both whole-event (12 and 16 byte) and
        // CTR-block (16 byte) aligned — guaranteed by window alignment.
        for &(off, _) in &lane_plan(100_000 * 12, 8) {
            assert!(off.is_multiple_of(12));
            assert!(off.is_multiple_of(16));
        }
    }
}
