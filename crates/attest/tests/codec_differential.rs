//! Tests of the columnar codec across segments and trails.
//!
//! Only format v3 exists: a captured seal pins its bytes, every truncation
//! and bit flip of a seal fails closed, and trails of sealed segments
//! verify across rekeys.

mod common;

use common::{all_kinds_records, exec, parallel, record_from_spec, winsum_window_records};
use proptest::prelude::*;
use sbt_attest::{
    compress_records_streaming, decompress_records, verify_tenant_trail, AuditLog, AuditRecord,
    DataRef, DepartureReason, LogSegment, UArrayRef,
};
use sbt_crypto::{SigningKey, TenantKeychain, VerifierKeySet};
use sbt_types::{PrimitiveKind, TenantId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Segment-splitting invariance: encoding a stream as several sealed
    /// v3 segments and concatenating the decodes gives back the whole
    /// stream (each seal resets delta state, so segments stay independent).
    #[test]
    fn segmented_streaming_equals_batch(
        specs in proptest::collection::vec(
            (0u8..8, 0u32..100_000, 0u32..50_000, 0u16..500), 1..200),
        split in 1usize..50,
    ) {
        let records: Vec<AuditRecord> =
            specs.into_iter().map(|(k, ts, id, win)| record_from_spec(k, ts, id, win)).collect();
        let mut enc = sbt_attest::ColumnarEncoder::new();
        let mut reassembled = Vec::new();
        for chunk in records.chunks(split) {
            for r in chunk {
                enc.append(r);
            }
            let payload = enc.seal();
            reassembled.extend(decompress_records(&payload).expect("segment decodes"));
        }
        prop_assert_eq!(&reassembled, &records);
    }
}

/// The seal of [`all_kinds_records`], captured from the encoder.
const V3_SEGMENT: &[u8] = include_bytes!("fixtures/v3_segment.bin");

/// Today's encoder reproduces the captured seal byte for byte, and the seal
/// decodes to its records: the wire format has not moved.
#[test]
fn the_v3_segment_fixture_is_reproduced_byte_for_byte() {
    assert_eq!(compress_records_streaming(&all_kinds_records()), V3_SEGMENT);
    assert_eq!(decompress_records(V3_SEGMENT).expect("v3 decodes"), all_kinds_records());
}

/// Every truncation of a seal is an error, and every single-bit flip
/// decodes to an error or to some records — never a panic. Flipped back,
/// the payload decodes to its records again.
#[test]
fn v3_payloads_fail_closed_under_every_truncation_and_bit_flip() {
    for records in [all_kinds_records(), escaped_counts_records(), winsum_window_records()] {
        let payload = compress_records_streaming(&records);
        for cut in 0..payload.len() {
            assert!(decompress_records(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = payload.clone();
        for bit in 0..payload.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decompress_records(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(decompress_records(&flipped).unwrap(), records);
    }
}

/// One four-partition TopK window whose Sorts each carry all four sibling
/// hints (a shape whose counts spill to the escape) and whose Merges each
/// carry a consumed-after hint, a 9-input Concat (another escape) with
/// hints at the edges of both kinds, then a rekey, a checkpoint and a
/// departure.
fn escaped_counts_records() -> Vec<AuditRecord> {
    let mut records = Vec::new();
    for i in 0..4u32 {
        records.push(AuditRecord::Ingress { ts_ms: i, data: DataRef::UArray(UArrayRef(2 * i)) });
        records.push(AuditRecord::Windowing {
            ts_ms: i,
            input: UArrayRef(2 * i),
            win_no: 0,
            output: UArrayRef(2 * i + 1),
        });
    }
    records.push(AuditRecord::Ingress { ts_ms: 5, data: DataRef::Watermark(1_000) });
    for i in 0..4u32 {
        let hints = (0..4).map(|index| parallel(4, index)).collect();
        records.push(exec(6, PrimitiveKind::Sort, &[2 * i + 1], &[8 + i], hints));
    }
    records.push(exec(7, PrimitiveKind::Merge, &[8, 9], &[12], vec![0]));
    records.push(exec(7, PrimitiveKind::Merge, &[10, 11], &[13], vec![0]));
    records.push(exec(8, PrimitiveKind::Merge, &[12, 13], &[14], vec![0]));
    records.push(exec(9, PrimitiveKind::TopKPerKey, &[14], &[15], vec![]));
    records.push(AuditRecord::Egress { ts_ms: 9, data: UArrayRef(15) });
    let many: Vec<u32> = (16..25).collect();
    records.push(exec(
        10,
        PrimitiveKind::Concat,
        &many,
        &[25],
        vec![7, parallel(25, 24), parallel(3, 0), u64::MAX >> 1, u64::MAX],
    ));
    records.push(AuditRecord::Rekey { ts_ms: 11, epoch: 1 });
    records.push(AuditRecord::Checkpoint {
        ts_ms: 12,
        seq: 3,
        resumed: false,
        hash: std::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(5)),
    });
    records.push(AuditRecord::Departure { ts_ms: 13, reason: DepartureReason::Drained });
    records
}

/// Lists past what a count byte holds: a 300-input `Concat` (a window of
/// more than 255 batches) and a 256-hint record come back whole.
#[test]
fn long_port_and_hint_lists_round_trip_in_v3() {
    let records = vec![
        AuditRecord::Execution {
            ts_ms: 1,
            op: PrimitiveKind::Concat,
            inputs: (0..300).map(UArrayRef).collect(),
            outputs: [UArrayRef(300)].into(),
            hints: vec![],
        },
        AuditRecord::Execution {
            ts_ms: 2,
            op: PrimitiveKind::Sort,
            inputs: [UArrayRef(300)].into(),
            outputs: [UArrayRef(301)].into(),
            hints: (0..256).map(|i| if i % 2 == 0 { parallel(256, i) } else { i }).collect(),
        },
    ];
    let decoded = decompress_records(&compress_records_streaming(&records)).expect("v3 decodes");
    let AuditRecord::Execution { inputs, .. } = &decoded[0] else { panic!("an execution") };
    assert_eq!(inputs.len(), 300);
    assert_eq!(decoded, records);
}

/// A trail of sealed segments verifies end to end across a rekey: the
/// segments after the all-kinds one (whose records include the rekey) are
/// signed under the next epoch's key.
#[test]
fn a_multi_segment_trail_verifies_across_a_rekey() {
    let tenant = TenantId(7);
    let keys =
        [SigningKey::new(b"multi-segment-trail-0"), SigningKey::new(b"multi-segment-trail-1")];
    let record = |i: u32| AuditRecord::Ingress { ts_ms: i, data: DataRef::UArray(UArrayRef(i)) };
    let batch =
        |seq: u32| -> Vec<AuditRecord> { (0..5).map(|i| record(100 + seq * 5 + i)).collect() };
    let trail = [
        all_kinds_records(),
        batch(1),
        escaped_counts_records(),
        batch(3),
        winsum_window_records(),
    ];

    let mut segments = Vec::new();
    let mut all_records = Vec::new();
    for (seq, records) in trail.into_iter().enumerate() {
        let epoch = (seq > 0) as u32;
        let raw = AuditRecord::raw_size(&records);
        let payload = compress_records_streaming(&records);
        segments.push(LogSegment::new_signed(
            tenant,
            epoch,
            seq as u64,
            payload,
            raw,
            records.len(),
            &keys[epoch as usize],
        ));
        all_records.extend(records);
    }

    let keychain = TenantKeychain::from_epochs(
        tenant.0,
        (0..2).map(|e| VerifierKeySet::signing_only(e, keys[e as usize].clone())).collect(),
    );
    let verified = verify_tenant_trail(&segments, tenant, &keychain).expect("trail verifies");
    assert_eq!(verified, all_records);

    // Tampering with any segment's payload breaks its signature.
    for idx in 0..segments.len() {
        let mut tampered = segments.clone();
        tampered[idx].compressed[3] ^= 0x40;
        assert!(verify_tenant_trail(&tampered, tenant, &keychain).is_err());
    }
}

/// An `AuditLog`'s segments extend a trail that opens with a segment sealed
/// elsewhere, across a rekey boundary.
#[test]
fn audit_log_segments_extend_a_sealed_trail() {
    let tenant = TenantId(3);
    let key0 = SigningKey::new(b"epoch-0");
    let key1 = SigningKey::new(b"epoch-1");
    let record = |i: u32| AuditRecord::Ingress { ts_ms: i, data: DataRef::UArray(UArrayRef(i)) };

    // Segment 0: sealed on its own under epoch 0.
    let old_batch = winsum_window_records();
    let seg0 = LogSegment::new_signed(
        tenant,
        0,
        0,
        compress_records_streaming(&old_batch),
        AuditRecord::raw_size(&old_batch),
        old_batch.len(),
        &key0,
    );

    // Segments 1..: produced by a live AuditLog that rekeys to epoch 1.
    let mut log = AuditLog::for_tenant(key0.clone(), 100, tenant);
    // Seed the log's sequence counter past the first segment.
    log.append(record(4));
    let seg_probe = log.flush().unwrap();
    assert_eq!(seg_probe.seq, 0);
    // Renumber: the first segment owns seq 0, so rebuild the probe as seq 1.
    let seg1 = LogSegment::new_signed(
        tenant,
        0,
        1,
        seg_probe.compressed.clone(),
        seg_probe.raw_bytes,
        seg_probe.record_count,
        &key0,
    );
    log.rekey(key1.clone(), 1);
    log.append(record(5));
    let seg_probe2 = log.flush().unwrap();
    let seg2 = LogSegment::new_signed(
        tenant,
        1,
        2,
        seg_probe2.compressed.clone(),
        seg_probe2.raw_bytes,
        seg_probe2.record_count,
        &key1,
    );

    let keychain = TenantKeychain::from_epochs(
        tenant.0,
        vec![VerifierKeySet::signing_only(0, key0), VerifierKeySet::signing_only(1, key1)],
    );
    let verified =
        verify_tenant_trail(&[seg0, seg1, seg2], tenant, &keychain).expect("trail verifies");
    let mut expected = old_batch;
    expected.extend([record(4), record(5)]);
    assert_eq!(verified, expected);
}
