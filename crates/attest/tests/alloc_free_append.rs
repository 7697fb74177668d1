//! Proof that the steady-state audit append path performs no heap
//! allocation: every record field streams into pre-sized column buffers at
//! append time (the paper logs into pre-laid-out TEE buffers; batching rows
//! on the heap would be both slower and a TEE-memory liability).
//!
//! The shared counting allocator (`counting_alloc`, per-thread accounting)
//! wraps the system allocator; after a warm-up flush cycle has sized the
//! encoder's buffers, a burst of appends — including the records' own
//! construction — must allocate exactly nothing.
//!
//! On the cloud side, the same allocator bounds what decoding a forged
//! payload may reserve: in proportion to the bytes it holds, not to the
//! counts it claims.

use sbt_attest::{AuditLog, AuditRecord, DataRef, UArrayRef};
use sbt_crypto::SigningKey;
use sbt_types::PrimitiveKind;

#[global_allocator]
static GLOBAL: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator;

/// The steady-state record mix of a real pipeline: ingress, windowing,
/// execution (two inputs, one output, no hints), periodic watermarks and
/// egress. All constructions are inline — no `Vec` beyond empty hints.
fn append_mix(log: &mut AuditLog, i: u32) {
    let base = i * 4;
    log.append(AuditRecord::Ingress { ts_ms: i, data: DataRef::UArray(UArrayRef(base)) });
    log.append(AuditRecord::Windowing {
        ts_ms: i,
        input: UArrayRef(base),
        win_no: (i % 100) as u16,
        output: UArrayRef(base + 1),
    });
    log.append(AuditRecord::Execution {
        ts_ms: i,
        op: PrimitiveKind::Sort,
        inputs: [UArrayRef(base + 1), UArrayRef(base + 2)].into(),
        outputs: [UArrayRef(base + 3)].into(),
        hints: Vec::new(),
    });
    if i.is_multiple_of(16) {
        log.append(AuditRecord::Ingress { ts_ms: i, data: DataRef::Watermark(i * 10) });
        log.append(AuditRecord::Egress { ts_ms: i, data: UArrayRef(base + 3) });
    }
}

#[test]
fn steady_state_append_allocates_nothing() {
    const BURST: u32 = 500;
    // Threshold far above the measured burst so no flush fires mid-count.
    let mut log = AuditLog::new(SigningKey::new(b"alloc-free-append"), 1_000_000);

    // Warm-up: run the same mix through a full seal cycle twice, so every
    // column buffer (and the lazily built static entropy tables) is sized
    // and the encoder has proven its reset path keeps capacity.
    for round in 0..2 {
        for i in 0..BURST {
            append_mix(&mut log, round * BURST + i);
        }
        assert!(log.flush().is_some());
    }

    // The counter is per thread, so every measured burst must be clean —
    // nothing a sibling test allocates can land in the window.
    for round in 2..7 {
        let before = counting_alloc::counts();
        for i in 0..BURST {
            append_mix(&mut log, round * BURST + i);
        }
        let allocs = counting_alloc::counts().since(before).allocations;
        assert_eq!(
            allocs, 0,
            "steady-state append path allocated {allocs} times in a {BURST}-record burst",
        );
        log.flush().expect("burst flushes");
    }
    for i in 0..BURST {
        append_mix(&mut log, 7 * BURST + i);
    }

    // The measured records were really recorded, and still decode.
    let seg = log.flush().expect("pending records flush");
    let decoded = sbt_attest::decompress_records(&seg.compressed).expect("segment decodes");
    assert_eq!(decoded.len(), seg.record_count);
}

/// The large-segment regime: with the uploader recycling payload buffers
/// ([`AuditLog::recycle`]), a full 16 K-record append **and flush** cycle
/// allocates nothing in steady state — the column accumulators keep their
/// high-water capacity across seals, the seal writes into the recycled
/// payload buffer, and part-wise signing needs no scratch concatenation.
#[test]
fn steady_state_large_segment_flush_allocates_nothing() {
    // append_mix appends 3 records per call plus 2 every 16th: ~12.8 K
    // records per burst, the codec gate's large-segment regime in spirit.
    const CALLS: u32 = 4096;
    let mut log = AuditLog::new(SigningKey::new(b"alloc-free-large-flush"), 1_000_000);

    // Warm-up: two full append+flush+recycle cycles size every buffer.
    for round in 0..2 {
        for i in 0..CALLS {
            append_mix(&mut log, round * CALLS + i);
        }
        let seg = log.flush().expect("warm-up burst flushes");
        log.recycle(seg.compressed);
    }

    // Every cycle clean, as above: the append+seal+sign+recycle loop itself
    // allocates nothing.
    let mut record_count = 0;
    for round in 2..7 {
        let before = counting_alloc::counts();
        for i in 0..CALLS {
            append_mix(&mut log, round * CALLS + i);
        }
        let seg = log.flush().expect("measured burst flushes");
        log.recycle(seg.compressed);
        let allocs = counting_alloc::counts().since(before).allocations;
        assert_eq!(allocs, 0, "steady-state large-segment flush cycle allocated {allocs} times");
        record_count = seg.record_count;
    }
    assert!(record_count > 12_000, "burst too small to call this the large-segment regime");

    // The recycled-buffer segments are real: the next one still decodes.
    for i in 0..CALLS {
        append_mix(&mut log, 7 * CALLS + i);
    }
    let seg = log.flush().expect("pending records flush");
    let decoded = sbt_attest::decompress_records(&seg.compressed).expect("segment decodes");
    assert_eq!(decoded.len(), seg.record_count);
}

/// 18 bytes announcing 2²⁴ records, all in a constant tags block: the
/// decoder refuses the count before it reserves anything for it (a record
/// costs at least one byte of the numeric stream), not after asking for
/// the 16 MiB of tags and 2 GiB of records the count claims.
#[test]
fn a_forged_record_count_is_refused_before_any_reservation() {
    use sbt_attest::varint::write_u64;
    let n = 1u64 << 24;
    let mut payload = sbt_attest::FORMAT_PREFIX.to_vec();
    payload.push(sbt_attest::FORMAT_VERSION_STREAMING);
    write_u64(n, &mut payload);
    // The tags block: n symbols, constant mode (1), all tag 3.
    write_u64(n, &mut payload);
    payload.extend_from_slice(&[1, 3]);
    // Empty ops, counts and reasons blocks, no ops-hi pairs, no numbers.
    payload.extend_from_slice(&[0; 5]);
    assert_eq!(payload.len(), 18);

    let before = counting_alloc::counts();
    let decoded = sbt_attest::decompress_records(&payload);
    let spent = counting_alloc::counts().since(before);
    assert!(decoded.is_err(), "a forged count decoded: {decoded:?}");
    assert!(spent.bytes < 64 * 1024, "decoding 18 bytes asked for {} bytes", spent.bytes);
}
