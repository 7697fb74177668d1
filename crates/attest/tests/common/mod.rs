//! Fixtures and record generators shared by the attest integration tests.

// Each test crate uses a different subset.
#![allow(dead_code)]

use sbt_attest::record::PortList;
use sbt_attest::{AuditRecord, DataRef, DepartureReason, UArrayRef};
use sbt_types::PrimitiveKind;

/// Build an arbitrary record from a generated spec tuple.
pub fn record_from_spec(kind: u8, ts: u32, id: u32, win: u16) -> AuditRecord {
    match kind {
        0 => AuditRecord::Ingress { ts_ms: ts, data: DataRef::UArray(UArrayRef(id)) },
        1 => AuditRecord::Ingress { ts_ms: ts, data: DataRef::Watermark(id) },
        2 => AuditRecord::Egress { ts_ms: ts, data: UArrayRef(id) },
        3 => AuditRecord::Windowing {
            ts_ms: ts,
            input: UArrayRef(id),
            win_no: win,
            output: UArrayRef(id + 1),
        },
        4 => AuditRecord::Rekey { ts_ms: ts, epoch: id },
        5 => AuditRecord::Departure {
            ts_ms: ts,
            reason: if id.is_multiple_of(2) {
                DepartureReason::Drained
            } else {
                DepartureReason::Evicted
            },
        },
        6 => {
            // Execution with a heap-spilled port list: more inputs than fit
            // inline, exercising the slow construction path end to end.
            let inputs: PortList = (id..id + 6).map(UArrayRef).collect();
            AuditRecord::Execution {
                ts_ms: ts,
                op: PrimitiveKind::TRUSTED_PRIMITIVES[(id % 23) as usize],
                inputs,
                outputs: [UArrayRef(id + 7)].into(),
                hints: vec![id as u64, (id as u64) << 33],
            }
        }
        _ => AuditRecord::Execution {
            ts_ms: ts,
            op: PrimitiveKind::TRUSTED_PRIMITIVES[(id % 23) as usize],
            inputs: [UArrayRef(id)].into(),
            outputs: [UArrayRef(id + 1), UArrayRef(id + 2)].into(),
            hints: if id.is_multiple_of(3) { vec![id as u64] } else { vec![] },
        },
    }
}

/// A format-v1 payload, compressed by the v1 batch encoder from
/// [`v1_fixture_records`]: every record kind.
pub const V1_FIXTURE: &[u8] = include_bytes!("../fixtures/v1_segment.bin");

/// A checkpoint-free format-v1 payload, compressed by the v1 batch encoder
/// from [`v1_checkpoint_free_records`]: the legacy layout, which ends at
/// the departure-reasons column.
pub const V1_CHECKPOINT_FREE: &[u8] = include_bytes!("../fixtures/v1_checkpoint_free.bin");

/// A 64-bit consumed-in-parallel hint record value.
pub fn parallel(k: u64, index: u64) -> u64 {
    (1 << 63) | (k << 32) | index
}

/// An execution record over the given uArray ids.
pub fn exec(
    ts_ms: u32,
    op: PrimitiveKind,
    inputs: &[u32],
    outputs: &[u32],
    hints: Vec<u64>,
) -> AuditRecord {
    AuditRecord::Execution {
        ts_ms,
        op,
        inputs: inputs.iter().map(|i| UArrayRef(*i)).collect(),
        outputs: outputs.iter().map(|o| UArrayRef(*o)).collect(),
        hints,
    }
}

/// The records [`V1_FIXTURE`] was compressed from: a two-partition TopK
/// window with hinted sorts, a 6-input `Concat` whose port list spills to
/// the heap (with a consumed-after, a parallel and an all-ones hint), and
/// a checkpoint sealed, a rekey, the checkpoint resumed and an eviction.
pub fn v1_fixture_records() -> Vec<AuditRecord> {
    let mut records = Vec::new();
    for i in 0..2u32 {
        records.push(AuditRecord::Ingress { ts_ms: i, data: DataRef::UArray(UArrayRef(2 * i)) });
        records.push(AuditRecord::Windowing {
            ts_ms: i,
            input: UArrayRef(2 * i),
            win_no: 0,
            output: UArrayRef(2 * i + 1),
        });
    }
    records.push(AuditRecord::Ingress { ts_ms: 2, data: DataRef::Watermark(1_000) });
    records.push(exec(3, PrimitiveKind::Sort, &[1], &[4], vec![parallel(2, 0)]));
    records.push(exec(3, PrimitiveKind::Sort, &[3], &[5], vec![parallel(2, 1)]));
    records.push(exec(4, PrimitiveKind::Merge, &[4, 5], &[6], vec![]));
    records.push(exec(5, PrimitiveKind::TopKPerKey, &[6], &[7], vec![]));
    records.push(AuditRecord::Egress { ts_ms: 5, data: UArrayRef(7) });
    let spilled: Vec<u32> = (8..14).collect();
    records.push(exec(
        6,
        PrimitiveKind::Concat,
        &spilled,
        &[14],
        vec![4, parallel(6, 5), u64::MAX],
    ));
    let hash: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(0x3B).wrapping_add(0x81));
    records.push(AuditRecord::Checkpoint { ts_ms: 7, seq: 0, resumed: false, hash });
    records.push(AuditRecord::Rekey { ts_ms: 8, epoch: 1 });
    records.push(AuditRecord::Checkpoint { ts_ms: 9, seq: 0, resumed: true, hash });
    records.push(AuditRecord::Departure { ts_ms: 10, reason: DepartureReason::Evicted });
    records
}

/// The records [`V1_CHECKPOINT_FREE`] was compressed from: one WinSum
/// window of three batches.
pub fn v1_checkpoint_free_records() -> Vec<AuditRecord> {
    let mut records = Vec::new();
    for i in 0..3u32 {
        records.push(AuditRecord::Ingress {
            ts_ms: 100 + i,
            data: DataRef::UArray(UArrayRef(20 + 2 * i)),
        });
        records.push(AuditRecord::Windowing {
            ts_ms: 100 + i,
            input: UArrayRef(20 + 2 * i),
            win_no: 4,
            output: UArrayRef(21 + 2 * i),
        });
    }
    records.push(AuditRecord::Ingress { ts_ms: 104, data: DataRef::Watermark(5_000) });
    records.push(exec(105, PrimitiveKind::Concat, &[21, 23, 25], &[26], vec![]));
    records.push(exec(106, PrimitiveKind::Sum, &[26], &[27], vec![]));
    records.push(AuditRecord::Egress { ts_ms: 106, data: UArrayRef(27) });
    records
}

/// Both v1 fixtures with the records they decode to.
pub fn v1_fixtures() -> [(&'static [u8], Vec<AuditRecord>); 2] {
    [(V1_FIXTURE, v1_fixture_records()), (V1_CHECKPOINT_FREE, v1_checkpoint_free_records())]
}
