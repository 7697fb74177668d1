//! Tests across the columnar codec generations.
//!
//! Only format v3 is written. Formats v1 and v2 are decoded forever: a
//! payload each older encoder produced is kept as a fixture and must keep
//! decoding to the records it was made from, and the trail verifier accepts
//! trails that interleave segments from every format (the format-version
//! bytes in each payload select the decoder).

mod common;

use common::{exec, parallel, record_from_spec, v1_checkpoint_free_records, v1_fixtures};
use proptest::prelude::*;
use sbt_attest::{
    compress_records_streaming, decompress_records, verify_tenant_trail, AuditLog, AuditRecord,
    DataRef, DepartureReason, LogSegment, UArrayRef, FORMAT_VERSION_STREAMING, FORMAT_VERSION_V2,
};
use sbt_crypto::{SigningKey, TenantKeychain};
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

/// A format-v2 payload, sealed by the v2 streaming encoder from
/// [`v2_fixture_records`].
const V2_FIXTURE: &[u8] = include_bytes!("fixtures/v2_segment.bin");

#[test]
fn v1_payloads_still_decode_to_their_records() {
    for (payload, records) in v1_fixtures() {
        assert_eq!(decompress_records(payload).expect("v1 decodes"), records);
    }
}

/// Every truncation and every single-bit flip of a v1 or v2 payload
/// decodes to an error or to some records — never a panic.
#[test]
fn legacy_payloads_fail_closed_under_every_truncation_and_bit_flip() {
    let v2 = (V2_FIXTURE, v2_fixture_records());
    for (payload, records) in v1_fixtures().into_iter().chain([v2]) {
        for cut in 0..payload.len() {
            let _ = decompress_records(&payload[..cut]);
        }
        let mut flipped = payload.to_vec();
        for bit in 0..payload.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decompress_records(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(decompress_records(&flipped).unwrap(), records);
    }
}

/// The v1 records re-sealed by today's encoder are v3, and no larger.
#[test]
fn v3_reseal_of_v1_payloads_is_no_larger() {
    for (payload, records) in v1_fixtures() {
        let v3 = compress_records_streaming(&records);
        assert_eq!(v3[2], FORMAT_VERSION_STREAMING);
        assert_eq!(decompress_records(&v3).unwrap(), records);
        assert!(v3.len() <= payload.len(), "v3 {} B vs v1 {} B", v3.len(), payload.len());
    }
}

/// The records [`V2_FIXTURE`] was sealed from: one four-partition TopK
/// window as the v2-era engine attested it (every Sort carrying all four
/// sibling hints, every Merge a consumed-after placeholder), a 9-input
/// Concat whose counts spill to the escape, and the lifecycle records.
fn v2_fixture_records() -> Vec<AuditRecord> {
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

#[test]
fn a_v2_payload_still_decodes_to_its_records() {
    assert_eq!(V2_FIXTURE[2], FORMAT_VERSION_V2);
    assert_eq!(decompress_records(V2_FIXTURE).expect("v2 decodes"), v2_fixture_records());
    // The same records re-sealed today are v3, and smaller: each of the
    // fixture's parallel hints costs ten bytes in v2 and two in v3.
    let v3 = compress_records_streaming(&v2_fixture_records());
    assert_eq!(v3[2], FORMAT_VERSION_STREAMING);
    assert_eq!(decompress_records(&v3).unwrap(), v2_fixture_records());
    assert!(v3.len() < V2_FIXTURE.len(), "v3 {} B vs v2 {} B", v3.len(), V2_FIXTURE.len());
}

/// Lists past what a count byte holds: a 300-input `Concat` (a window of
/// more than 255 batches) and a 256-hint record come back whole from v3.
/// The older formats clamped both to 255.
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

/// A trail interleaving every format's segments — the upgrade scenario
/// where an edge device flushes v1 segments, then v2 after a code update,
/// then v3 after another — verifies end to end, honoring each payload's
/// format-version bytes.
#[test]
fn mixed_format_trail_verifies() {
    let tenant = TenantId(7);
    let key = SigningKey::new(b"mixed-format-trail");
    let record = |i: u32| AuditRecord::Ingress { ts_ms: i, data: DataRef::UArray(UArrayRef(i)) };

    let mut segments = Vec::new();
    let mut all_records = Vec::new();
    let [(v1, v1_records), (v1_legacy, v1_legacy_records)] = v1_fixtures();
    let v3_batch =
        |seq: u32| -> Vec<AuditRecord> { (0..5).map(|i| record(100 + seq * 5 + i)).collect() };
    let trail = [
        (v1.to_vec(), v1_records),
        (compress_records_streaming(&v3_batch(1)), v3_batch(1)),
        (V2_FIXTURE.to_vec(), v2_fixture_records()),
        (compress_records_streaming(&v3_batch(3)), v3_batch(3)),
        (v1_legacy.to_vec(), v1_legacy_records),
    ];
    for (seq, (compressed, batch)) in trail.into_iter().enumerate() {
        let raw = AuditRecord::raw_size(&batch);
        let seq = seq as u64;
        segments.push(LogSegment::new_signed(tenant, 0, seq, compressed, raw, batch.len(), &key));
        all_records.extend(batch);
    }

    let keychain = TenantKeychain::single(tenant.0, key.clone());
    let verified = verify_tenant_trail(&segments, tenant, &keychain).expect("mixed trail verifies");
    assert_eq!(verified, all_records);

    // Tampering with any format's payload still breaks the signature.
    for idx in [0usize, 1, 2] {
        let mut tampered = segments.clone();
        tampered[idx].compressed[3] ^= 0x40;
        assert!(verify_tenant_trail(&tampered, tenant, &keychain).is_err());
    }
}

/// An `AuditLog` (always streaming) interoperates with hand-built legacy
/// segments in one trail, across a rekey boundary.
#[test]
fn audit_log_segments_extend_a_legacy_trail() {
    let tenant = TenantId(3);
    let key0 = SigningKey::new(b"epoch-0");
    let key1 = SigningKey::new(b"epoch-1");
    let record = |i: u32| AuditRecord::Ingress { ts_ms: i, data: DataRef::UArray(UArrayRef(i)) };

    // Segment 0: legacy payload under epoch 0.
    let old_batch = v1_checkpoint_free_records();
    let seg0 = LogSegment::new_signed(
        tenant,
        0,
        0,
        common::V1_CHECKPOINT_FREE.to_vec(),
        AuditRecord::raw_size(&old_batch),
        old_batch.len(),
        &key0,
    );

    // Segments 1..: produced by a live AuditLog that rekeys to epoch 1.
    let mut log = AuditLog::for_tenant(key0.clone(), 100, tenant);
    // Seed the log's sequence counter past the legacy segment.
    log.append(record(4));
    let seg_probe = log.flush().unwrap();
    assert_eq!(seg_probe.seq, 0);
    // Renumber: the legacy trail owns seq 0, so rebuild the probe as seq 1.
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
        vec![
            sbt_crypto::VerifierKeySet::signing_only(0, key0),
            sbt_crypto::VerifierKeySet::signing_only(1, key1),
        ],
    );
    let verified =
        verify_tenant_trail(&[seg0, seg1, seg2], tenant, &keychain).expect("trail verifies");
    let mut expected = old_batch;
    expected.extend([record(4), record(5)]);
    assert_eq!(verified, expected);
}
