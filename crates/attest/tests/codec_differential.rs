//! Tests of the columnar codec across segments and trails.
//!
//! Only format v4 exists: captured seals pin its bytes and the entropy
//! planner's choices, every truncation, bit flip, foreign block mode and
//! forged count of a seal fails closed, and trails of sealed segments
//! verify across rekeys.

mod common;

use common::{all_kinds_records, exec, parallel, record_from_spec, winsum_window_records};
use proptest::prelude::*;
use sbt_attest::huffman;
use sbt_attest::{
    compress_records_streaming, decompress_records, verify_tenant_trail, AuditLog, AuditRecord,
    DataRef, DepartureReason, LogSegment, UArrayRef,
};
use sbt_crypto::{SigningKey, TenantKeychain, VerifierKeySet};
use sbt_types::{PrimitiveKind, TenantId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Segment-splitting invariance: encoding a stream as several sealed
    /// segments and concatenating the decodes gives back the whole
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
const V4_SEGMENT: &[u8] = include_bytes!("fixtures/v4_segment.bin");

/// Today's encoder reproduces the captured seal byte for byte, and the seal
/// decodes to its records: the wire format has not moved.
#[test]
fn the_v4_segment_fixture_is_reproduced_byte_for_byte() {
    assert_eq!(compress_records_streaming(&all_kinds_records()), V4_SEGMENT);
    assert_eq!(decompress_records(V4_SEGMENT).expect("v4 decodes"), all_kinds_records());
}

/// Every truncation of a seal is an error, and every single-bit flip
/// decodes to an error or to some records — never a panic. Flipped back,
/// the payload decodes to its records again. Each block's mode byte
/// rewritten to 3 (a fitted code with its header, which v4 dropped) or to
/// `0xFF`, the version byte rewritten to 3, and an escaped count past the
/// bytes left in the numeric stream are each an error.
#[test]
fn v4_payloads_fail_closed_under_every_truncation_and_bit_flip() {
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

        let layout = seal_layout(&payload);
        assert!(!layout.mode_bytes.is_empty());
        for &at in &layout.mode_bytes {
            for mode in [3, 0xFF] {
                let mut foreign = payload.clone();
                foreign[at] = mode;
                assert!(decompress_records(&foreign).is_err(), "mode {mode} at byte {at}");
            }
        }
        let mut v3 = payload.clone();
        v3[2] = 3;
        assert!(decompress_records(&v3).is_err(), "a v3 payload");
    }

    // The escaped Concat of `escaped_counts_records`, alone in its seal:
    // its timestamp, then its input, output and hint counts, each one byte.
    let concat = escaped_counts_records()
        .into_iter()
        .find(|r| matches!(r, AuditRecord::Execution { op: PrimitiveKind::Concat, .. }))
        .expect("a Concat");
    let payload = compress_records_streaming(&[concat]);
    let nums = seal_layout(&payload).nums;
    assert_eq!(payload[nums + 1..nums + 4], [9, 1, 5], "the counts follow the timestamp");
    for at in nums + 1..nums + 4 {
        // More ports or hints than the stream has bytes left.
        let mut forged = payload.clone();
        forged[at] = 0x7F;
        assert!(decompress_records(&forged).is_err(), "count byte {}", at - nums);
    }
}

/// Where a seal's pieces sit: each non-empty entropy block's mode byte, and
/// the start of the numeric stream.
struct SealLayout {
    mode_bytes: Vec<usize>,
    nums: usize,
}

fn seal_layout(seal: &[u8]) -> SealLayout {
    let mut pos = 3;
    let n = sbt_attest::varint::read_u64(seal, &mut pos).expect("record count") as usize;
    let mut mode_bytes = Vec::new();
    for _ in 0..4 {
        let mut header = pos;
        if sbt_attest::varint::read_u64(seal, &mut header).expect("block count") > 0 {
            mode_bytes.push(header);
        }
        huffman::decode_block(seal, &mut pos, n).expect("block decodes");
    }
    sbt_attest::varint::read_u64(seal, &mut pos).expect("numeric stream length");
    SealLayout { mode_bytes, nums: pos }
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
/// more than 255 batches) and a 256-hint record come back whole, their
/// counts escaped to the numeric stream.
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
    let decoded = decompress_records(&compress_records_streaming(&records)).expect("v4 decodes");
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

/// An entropy block's mode, as [`column_plans`] reads it off a seal.
#[derive(Debug, PartialEq)]
enum Plan {
    Empty,
    Raw,
    Const,
    Static,
}

/// The plans of a seal's four byte columns (tags, ops, counts, reasons).
fn column_plans(seal: &[u8]) -> [Plan; 4] {
    let layout = seal_layout(seal);
    let mut modes = layout.mode_bytes.iter();
    let mut pos = 3;
    let n = sbt_attest::varint::read_u64(seal, &mut pos).expect("record count") as usize;
    std::array::from_fn(|_| {
        let column = huffman::decode_block(seal, &mut pos, n).expect("block decodes");
        if column.is_empty() {
            return Plan::Empty;
        }
        match seal[*modes.next().expect("a mode byte")] {
            0 => Plan::Raw,
            1 => Plan::Const,
            2 => Plan::Static,
            mode => panic!("unknown block mode {mode}"),
        }
    })
}

/// An engine-shaped record stream: batches ingested and windowed, then a
/// watermark fires the window through per-partition lists and one tail.
#[derive(Default)]
struct EngineShaped {
    ts: u32,
    id: u32,
    win: u16,
    records: Vec<AuditRecord>,
}

impl EngineShaped {
    fn next_id(&mut self) -> u32 {
        self.id += 1;
        self.id
    }

    /// `n` batches ingested and windowed into the current window; the
    /// windowed partitions' ids.
    fn batches(&mut self, n: u32) -> Vec<u32> {
        (0..n)
            .map(|_| {
                self.ts += 3;
                let input = self.next_id();
                let output = self.next_id();
                self.records.push(AuditRecord::Ingress {
                    ts_ms: self.ts,
                    data: DataRef::UArray(UArrayRef(input)),
                });
                self.records.push(AuditRecord::Windowing {
                    ts_ms: self.ts,
                    input: UArrayRef(input),
                    win_no: self.win,
                    output: UArrayRef(output),
                });
                output
            })
            .collect()
    }

    fn watermark(&mut self) {
        self.ts += 1;
        self.win += 1;
        self.records.push(AuditRecord::Ingress {
            ts_ms: self.ts,
            data: DataRef::Watermark(self.win as u32 * 1_000),
        });
    }

    fn exec(&mut self, op: PrimitiveKind, inputs: &[u32], hints: Vec<u64>) -> u32 {
        let output = self.next_id();
        self.records.push(exec(self.ts, op, inputs, &[output], hints));
        output
    }

    fn egress(&mut self, id: u32) {
        self.records.push(AuditRecord::Egress { ts_ms: self.ts, data: UArrayRef(id) });
    }

    /// A WinSum-like window: `n` batches, one `Concat` tail reduced by `agg`.
    fn concat_window(&mut self, n: u32, agg: PrimitiveKind) {
        let parts = self.batches(n);
        self.watermark();
        let all = self.exec(PrimitiveKind::Concat, &parts, vec![]);
        let reduced = self.exec(agg, &[all], vec![]);
        self.egress(reduced);
    }

    /// A TopK-like window: `n` batches, each sorted under a parallel hint,
    /// one `MergeK` over the sorted runs, then `TopKPerKey`.
    fn sorted_window(&mut self, n: u32) {
        let parts = self.batches(n);
        self.watermark();
        let runs: Vec<u32> = parts
            .iter()
            .enumerate()
            .map(|(i, &p)| self.exec(PrimitiveKind::Sort, &[p], vec![parallel(n as u64, i as u64)]))
            .collect();
        let merged = self.exec(PrimitiveKind::MergeK, &runs, vec![]);
        let top = self.exec(PrimitiveKind::TopKPerKey, &[merged], vec![]);
        self.egress(top);
    }

    /// The first 256 records of the stream, the data plane's segment size.
    fn seal_of(mut self) -> Vec<AuditRecord> {
        assert!(self.records.len() >= 256, "only {} records", self.records.len());
        self.records.truncate(256);
        self.records
    }
}

/// Five 256-record seals, sealed in order through one encoder:
/// WinSum-like windows whose tails reduce with `Sum` and, once, `Unique`;
/// the same without `Unique`; TopK-like windows; one long window fired by
/// two executions (raw ops and counts); and small windows ending in a
/// checkpoint and a departure (a constant reasons column).
fn planner_segments() -> Vec<Vec<AuditRecord>> {
    let mut seals = Vec::new();
    let mut s = EngineShaped::default();
    for w in 0..24 {
        s.concat_window(4, if w == 5 { PrimitiveKind::Unique } else { PrimitiveKind::Sum });
    }
    seals.push(s.seal_of());
    let mut s = EngineShaped::default();
    for _ in 0..24 {
        s.concat_window(4, PrimitiveKind::Sum);
    }
    seals.push(s.seal_of());
    let mut s = EngineShaped::default();
    for _ in 0..17 {
        s.sorted_window(4);
    }
    seals.push(s.seal_of());
    let mut s = EngineShaped::default();
    s.concat_window(126, PrimitiveKind::Sum);
    s.concat_window(2, PrimitiveKind::Sum);
    seals.push(s.seal_of());
    let mut s = EngineShaped::default();
    for _ in 0..20 {
        s.concat_window(5, PrimitiveKind::Sum);
    }
    s.records.truncate(254);
    s.records.push(AuditRecord::Checkpoint {
        ts_ms: s.ts,
        seq: 0,
        resumed: false,
        hash: [0x5A; 32],
    });
    s.records.push(AuditRecord::Departure { ts_ms: s.ts + 1, reason: DepartureReason::Drained });
    seals.push(s.seal_of());
    seals
}

/// [`planner_segments`] sealed through one reused encoder, each seal
/// framed by its varint length.
const V4_PLANNER_SEGMENTS: &[u8] = include_bytes!("fixtures/v4_planner_segments.bin");

fn sealed_planner_segments() -> Vec<u8> {
    let mut enc = sbt_attest::ColumnarEncoder::with_capacity(256);
    let mut out = Vec::new();
    for records in planner_segments() {
        for r in &records {
            enc.append(r);
        }
        let seal = enc.seal();
        sbt_attest::varint::write_u64(seal.len() as u64, &mut out);
        out.extend_from_slice(&seal);
    }
    out
}

/// Today's encoder reproduces the captured planner seals byte for byte,
/// each decodes to its records, and between them the seals exercise the
/// raw, constant and static block modes — and no other.
#[test]
fn the_planner_segments_fixture_is_reproduced_byte_for_byte() {
    assert_eq!(sealed_planner_segments(), V4_PLANNER_SEGMENTS);
    let (mut pos, mut plans) = (0, Vec::new());
    for records in planner_segments() {
        let len = sbt_attest::varint::read_u64(V4_PLANNER_SEGMENTS, &mut pos).unwrap() as usize;
        let seal = &V4_PLANNER_SEGMENTS[pos..pos + len];
        assert_eq!(decompress_records(seal).expect("v4 decodes"), records);
        plans.extend(column_plans(seal));
        pos += len;
    }
    assert_eq!(pos, V4_PLANNER_SEGMENTS.len());
    for mode in [Plan::Raw, Plan::Const, Plan::Static] {
        assert!(plans.contains(&mode), "a {mode:?} block");
    }
}
