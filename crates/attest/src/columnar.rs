//! Domain-specific columnar compression of audit records (§7, Figure 12).
//!
//! Raw audit records are produced in row order; the codec separates the
//! record fields into columns and applies a per-column encoding that
//! exploits what the data plane knows about each field:
//!
//! * **timestamps, uArray ids, window numbers** increase (nearly)
//!   monotonically → delta + zigzag + varint coding;
//! * **tags, op codes and count fields** come from tiny, heavily skewed
//!   alphabets → entropy coding (Huffman);
//! * **hints** carry a kind bit in the low bit of their first varint: a
//!   consumed-after hint is `id << 1`, a consumed-in-parallel hint is
//!   `(k << 1) | 1` followed by `index`. Both are small numbers, so a
//!   hint costs a few bytes instead of the ten its 64-bit record encoding
//!   (kind in bit 63) would.
//!
//! There is one wire format, v4: every payload opens with [`FORMAT_PREFIX`]
//! and [`FORMAT_VERSION_STREAMING`], and [`decompress_records`] rejects any
//! other opening with a [`CodecError`]. The layout is self-describing, so
//! the cloud side can decompress without any out-of-band schema, and
//! decompression restores the exact record sequence.
//!
//! [`ColumnarEncoder`], the one encoder, streams: fields go straight into
//! per-column delta/varint accumulators at *append* time, so sealing a
//! segment only entropy-codes the small byte columns and copies the
//! already-encoded numeric stream. The seal hands each byte column, with its
//! static table, to [`huffman::encode_block`]: a constant, static or raw
//! block. The counts column holds one byte per execution; an execution whose
//! counts do not fit that byte escapes, and its three counts follow its
//! timestamp in the numeric stream, so lists of any length round-trip.

use crate::huffman;
use crate::record::{
    join_hint, split_hint, AuditRecord, DataRef, DepartureReason, HintWord, PortList, UArrayRef,
};
use crate::varint;
use sbt_types::PrimitiveKind;

/// Record-kind tags used by the codec (distinct from op codes: they identify
/// the record *layout*).
const TAG_INGRESS_DATA: u8 = 0;
const TAG_INGRESS_WM: u8 = 1;
const TAG_EGRESS: u8 = 2;
const TAG_WINDOWING: u8 = 3;
const TAG_EXECUTION: u8 = 4;
const TAG_REKEY: u8 = 5;
const TAG_DEPARTURE: u8 = 6;
const TAG_CKPT_SEALED: u8 = 7;
const TAG_CKPT_RESUMED: u8 = 8;

/// Two-byte prefix every payload opens with, followed by the
/// format-version byte.
pub const FORMAT_PREFIX: [u8; 2] = [0x00, 0xFF];

/// The format version the codec writes and the only one it reads (v4).
pub const FORMAT_VERSION_STREAMING: u8 = 4;

/// Errors from decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "audit codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// The streaming encoder (format v4)
// ---------------------------------------------------------------------------

/// Packed execution count byte: `(inputs << 5) | (outputs << 2) | hints`.
/// [`COUNTS_ESCAPE`] (which is also a *valid* packing — 7/7/3 — and must
/// therefore spill) announces the three counts in full instead, as varints
/// in the numeric stream after the record's timestamp.
const COUNTS_ESCAPE: u8 = 0xFF;

/// The numeric-stream words of one hint's 64-bit record value: `id << 1`
/// for a consumed-after hint, `(k << 1) | 1` then `index` for a consumed-in-
/// parallel one. Every `u64` maps to words [`NumReader::hint`] inverts.
#[inline]
fn hint_words(raw: u64) -> ([u64; 2], usize) {
    match split_hint(raw) {
        HintWord::After(id) => ([id << 1, 0], 1),
        HintWord::Parallel { k, index } => ([((k as u64) << 1) | 1, index as u64], 2),
    }
}

#[inline]
fn pack_counts(n_in: usize, n_out: usize, n_hints: usize) -> Option<u8> {
    if n_in < 8 && n_out < 8 && n_hints < 4 {
        let packed = ((n_in as u8) << 5) | ((n_out as u8) << 2) | n_hints as u8;
        if packed != COUNTS_ESCAPE {
            return Some(packed);
        }
    }
    None
}

/// Per-field-type delta contexts of the interleaved numeric stream. Each
/// field kind keeps its own previous value, as if it were delta-coded in a
/// column of its own — only the byte *placement* is interleaved in record
/// order, which is what lets one `extend_from_slice` carry a whole record.
#[derive(Default)]
struct DeltaCtx {
    ts: i64,
    id: i64,
    wm: i64,
    win: i64,
    epoch: i64,
    ckpt: i64,
}

/// Incremental columnar encoder: the audit log appends records directly
/// into per-column accumulators, so `seal` — the once-per-segment flush —
/// only entropy-codes the small byte columns, concatenates the
/// already-encoded numeric stream, and resets for the next segment.
///
/// Per record, `append` performs exactly one write per byte column touched
/// plus a single `extend_from_slice` carrying every numeric field
/// (delta/zigzag/varint-coded against per-field contexts). All buffers
/// retain capacity across seals: after warm-up, `append` performs no heap
/// allocation.
#[derive(Default)]
pub struct ColumnarEncoder {
    n: u64,
    raw_bytes: u64,
    /// Record-kind tags, one byte per record.
    tags: Vec<u8>,
    /// Execution op codes (`PrimitiveKind` codes are 0..=26), one per
    /// execution record.
    ops: Vec<u8>,
    /// Packed execution counts (see [`pack_counts`]) or the escape, one per
    /// execution record.
    counts: Vec<u8>,
    /// Departure reason codes.
    reasons: Vec<u8>,
    /// The interleaved numeric stream: per record, its timestamp delta then
    /// its tag-specific numeric fields.
    nums: Vec<u8>,
    ctx: DeltaCtx,
}

impl ColumnarEncoder {
    /// A fresh encoder with empty (unallocated) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh encoder with buffers sized for roughly `records` appends, so
    /// even the first segment's append path stays allocation-free.
    pub fn with_capacity(records: usize) -> Self {
        ColumnarEncoder {
            tags: Vec::with_capacity(records),
            ops: Vec::with_capacity(records),
            counts: Vec::with_capacity(records),
            reasons: Vec::with_capacity(8),
            nums: Vec::with_capacity(records * 8),
            ..Default::default()
        }
    }

    /// Number of records appended since the last seal.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether no records are pending.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total row-format bytes of the pending records (tracked incrementally
    /// for bandwidth accounting; nothing is serialized).
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    #[inline]
    fn delta(prev: &mut i64, v: u64) -> u64 {
        let value = v as i64;
        let z = varint::zigzag(value.wrapping_sub(*prev));
        *prev = value;
        z
    }

    /// Append up to eight varints with one store: when every value in the
    /// group is below `0x80` — the overwhelmingly common case for
    /// delta-coded audit fields — the group packs into a single
    /// little-endian word written with one 8-byte extend. Larger values
    /// fall back to per-value varint writes; both paths produce identical
    /// bytes, so the decoder is oblivious to which one ran.
    #[inline]
    fn write_varint_group(nums: &mut Vec<u8>, vals: &[u64]) {
        debug_assert!(vals.len() <= 8);
        let mut word = 0u64;
        let mut any = 0u64;
        for (i, &v) in vals.iter().enumerate() {
            any |= v;
            word |= (v & 0x7F) << (8 * i);
        }
        if any < 0x80 {
            let start = nums.len();
            nums.extend_from_slice(&word.to_le_bytes());
            nums.truncate(start + vals.len());
        } else {
            for &v in vals {
                varint::write_u64(v, nums);
            }
        }
    }

    /// Append one record's fields to the column accumulators. One match
    /// dispatches the record; every numeric field is delta/zigzag/varint
    /// coded straight into the interleaved stream.
    #[inline]
    pub fn append(&mut self, r: &AuditRecord) {
        self.n += 1;
        self.raw_bytes += r.row_len() as u64;
        let nums = &mut self.nums;
        let ctx = &mut self.ctx;
        match r {
            AuditRecord::Ingress { ts_ms, data } => {
                let dts = Self::delta(&mut ctx.ts, *ts_ms as u64);
                match data {
                    DataRef::UArray(id) => {
                        self.tags.push(TAG_INGRESS_DATA);
                        let did = Self::delta(&mut ctx.id, id.0 as u64);
                        Self::write_varint_group(nums, &[dts, did]);
                    }
                    DataRef::Watermark(wm) => {
                        self.tags.push(TAG_INGRESS_WM);
                        let dwm = Self::delta(&mut ctx.wm, *wm as u64);
                        Self::write_varint_group(nums, &[dts, dwm]);
                    }
                }
            }
            AuditRecord::Egress { ts_ms, data } => {
                self.tags.push(TAG_EGRESS);
                let dts = Self::delta(&mut ctx.ts, *ts_ms as u64);
                let did = Self::delta(&mut ctx.id, data.0 as u64);
                Self::write_varint_group(nums, &[dts, did]);
            }
            AuditRecord::Windowing { ts_ms, input, win_no, output } => {
                self.tags.push(TAG_WINDOWING);
                let dts = Self::delta(&mut ctx.ts, *ts_ms as u64);
                let din = Self::delta(&mut ctx.id, input.0 as u64);
                let dout = Self::delta(&mut ctx.id, output.0 as u64);
                let dwin = Self::delta(&mut ctx.win, *win_no as u64);
                Self::write_varint_group(nums, &[dts, din, dout, dwin]);
            }
            AuditRecord::Execution { ts_ms, op, inputs, outputs, hints } => {
                self.tags.push(TAG_EXECUTION);
                self.ops.push(u8::try_from(op.code()).expect("op codes are 0..=26"));
                let packed = pack_counts(inputs.len(), outputs.len(), hints.len());
                self.counts.push(packed.unwrap_or(COUNTS_ESCAPE));
                let hint_words_total: usize = hints.iter().map(|&h| hint_words(h).1).sum();
                let words = 1 + inputs.len() + outputs.len() + hint_words_total;
                if packed.is_some() && words <= 8 {
                    // Every common shape fits one group — among them every
                    // per-partition invocation with its one parallel hint:
                    // gather the words, then one store carries the whole
                    // record.
                    let mut vals = [0u64; 8];
                    vals[0] = Self::delta(&mut ctx.ts, *ts_ms as u64);
                    let mut k = 1;
                    for i in inputs.iter() {
                        vals[k] = Self::delta(&mut ctx.id, i.0 as u64);
                        k += 1;
                    }
                    for o in outputs.iter() {
                        vals[k] = Self::delta(&mut ctx.id, o.0 as u64);
                        k += 1;
                    }
                    for &h in hints.iter() {
                        let (w, n) = hint_words(h);
                        vals[k..k + n].copy_from_slice(&w[..n]);
                        k += n;
                    }
                    Self::write_varint_group(nums, &vals[..k]);
                } else {
                    varint::write_u64(Self::delta(&mut ctx.ts, *ts_ms as u64), nums);
                    if packed.is_none() {
                        for count in [inputs.len(), outputs.len(), hints.len()] {
                            varint::write_u64(count as u64, nums);
                        }
                    }
                    for i in inputs.iter() {
                        varint::write_u64(Self::delta(&mut ctx.id, i.0 as u64), nums);
                    }
                    for o in outputs.iter() {
                        varint::write_u64(Self::delta(&mut ctx.id, o.0 as u64), nums);
                    }
                    for &h in hints.iter() {
                        let (w, n) = hint_words(h);
                        for &word in &w[..n] {
                            varint::write_u64(word, nums);
                        }
                    }
                }
            }
            AuditRecord::Rekey { ts_ms, epoch } => {
                self.tags.push(TAG_REKEY);
                let dts = Self::delta(&mut ctx.ts, *ts_ms as u64);
                let dep = Self::delta(&mut ctx.epoch, *epoch as u64);
                Self::write_varint_group(nums, &[dts, dep]);
            }
            AuditRecord::Departure { ts_ms, reason } => {
                self.tags.push(TAG_DEPARTURE);
                self.reasons.push(reason.code());
                varint::write_u64(Self::delta(&mut ctx.ts, *ts_ms as u64), nums);
            }
            AuditRecord::Checkpoint { ts_ms, seq, resumed, hash } => {
                self.tags.push(if *resumed { TAG_CKPT_RESUMED } else { TAG_CKPT_SEALED });
                // Timestamp and checkpoint-seq deltas, then the snapshot
                // hash as four verbatim little-endian words (uniformly
                // random bytes — no transform helps them).
                let dts = Self::delta(&mut ctx.ts, *ts_ms as u64);
                let dseq = Self::delta(&mut ctx.ckpt, *seq);
                Self::write_varint_group(nums, &[dts, dseq]);
                for word in hash.chunks_exact(8) {
                    varint::write_u64(
                        u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
                        nums,
                    );
                }
            }
        }
    }

    /// Seal the pending records into a format-v4 payload appended to `out`,
    /// then reset (keeping buffer capacity) for the next segment.
    pub fn seal_into(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&FORMAT_PREFIX);
        out.push(FORMAT_VERSION_STREAMING);
        varint::write_u64(self.n, out);
        // Layout: tags / ops / packed counts / reasons entropy blocks, then
        // the interleaved numeric stream.
        for (column, table) in [
            (&self.tags, huffman::StaticTable::Tags),
            (&self.ops, huffman::StaticTable::Ops),
            (&self.counts, huffman::StaticTable::Counts),
            (&self.reasons, huffman::StaticTable::Reasons),
        ] {
            huffman::encode_block(column, table, out);
        }
        varint::write_u64(self.nums.len() as u64, out);
        out.extend_from_slice(&self.nums);
        self.reset();
    }

    /// Discard the pending records, keeping buffer capacity (the reset half
    /// of [`seal_into`](Self::seal_into) without emitting a payload).
    pub fn reset(&mut self) {
        self.tags.clear();
        self.ops.clear();
        self.counts.clear();
        self.reasons.clear();
        self.nums.clear();
        self.ctx = DeltaCtx::default();
        self.n = 0;
        self.raw_bytes = 0;
    }

    /// Seal into a fresh buffer.
    pub fn seal(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.tags.len() + self.nums.len());
        self.seal_into(&mut out);
        out
    }
}

/// One-shot convenience over [`ColumnarEncoder`]: compress a batch of
/// records into the streaming (format-v4) layout.
pub fn compress_records_streaming(records: &[AuditRecord]) -> Vec<u8> {
    let mut enc = ColumnarEncoder::with_capacity(records.len());
    for r in records {
        enc.append(r);
    }
    enc.seal()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decompress a [`ColumnarEncoder`] seal. A payload that does not open with
/// [`FORMAT_PREFIX`] and [`FORMAT_VERSION_STREAMING`] is a [`CodecError`],
/// and so is an entropy block of a mode other than raw, constant or static.
pub fn decompress_records(data: &[u8]) -> Result<Vec<AuditRecord>, CodecError> {
    let versioned =
        data.strip_prefix(&FORMAT_PREFIX[..]).ok_or(CodecError("missing format prefix"))?;
    match versioned.split_first() {
        Some((&FORMAT_VERSION_STREAMING, body)) => decompress_streaming(body),
        Some(_) => Err(CodecError("unsupported format version")),
        None => Err(CodecError("missing format version")),
    }
}

/// Reader over the interleaved numeric stream, holding the per-field delta
/// contexts (mirror of the encoder's [`DeltaCtx`]).
struct NumReader<'a> {
    data: &'a [u8],
    pos: usize,
    ctx: DeltaCtx,
}

impl NumReader<'_> {
    #[inline]
    fn varint(&mut self) -> Result<u64, CodecError> {
        varint::read_u64(self.data, &mut self.pos).ok_or(CodecError("truncated numeric stream"))
    }

    /// Bytes left in the stream: every field still to read costs at least
    /// one.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// One hint (the inverse of [`hint_words`]), as its 64-bit record value.
    fn hint(&mut self) -> Result<u64, CodecError> {
        let first = self.varint()?;
        if first & 1 == 0 {
            return Ok(join_hint(HintWord::After(first >> 1)));
        }
        let (k, index) = (first >> 1, self.varint()?);
        if k > 0x7FFF_FFFF || index > 0xFFFF_FFFF {
            return Err(CodecError("parallel hint out of range"));
        }
        Ok(join_hint(HintWord::Parallel { k: k as u32, index: index as u32 }))
    }

    #[inline]
    fn delta(&mut self, which: fn(&mut DeltaCtx) -> &mut i64) -> Result<u64, CodecError> {
        let z = self.varint()?;
        let prev = which(&mut self.ctx);
        let v = prev.wrapping_add(varint::unzigzag(z));
        if v < 0 {
            return Err(CodecError("negative value after delta decoding"));
        }
        *prev = v;
        Ok(v as u64)
    }

    /// A delta-coded field of a record type narrower than 64 bits: a value
    /// the type cannot hold is an error, never a silent truncation.
    #[inline]
    fn field<T: TryFrom<u64>>(
        &mut self,
        which: fn(&mut DeltaCtx) -> &mut i64,
    ) -> Result<T, CodecError> {
        T::try_from(self.delta(which)?).map_err(|_| CodecError("field out of range"))
    }

    /// An escaped port or hint count. Each port and hint costs at least one
    /// byte further on, so a count past the bytes left is an error, never a
    /// reservation.
    fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(CodecError("truncated numeric stream"));
        }
        Ok(n as usize)
    }

    fn id(&mut self) -> Result<UArrayRef, CodecError> {
        self.field(|c| &mut c.id).map(UArrayRef)
    }
}

/// Decode a payload after its format prefix and version byte.
fn decompress_streaming(data: &[u8]) -> Result<Vec<AuditRecord>, CodecError> {
    let mut pos = 0usize;
    let n = varint::read_u64(data, &mut pos).ok_or(CodecError("truncated record count"))?;
    // Every record costs at least one byte of the numeric stream: a forged
    // count must not drive a reservation the payload cannot back.
    if n > (data.len() - pos) as u64 {
        return Err(CodecError("record count exceeds payload"));
    }
    let n = n as usize;
    let block = |pos: &mut usize, max_count: usize| {
        huffman::decode_block(data, pos, max_count).ok_or(CodecError("corrupt entropy block"))
    };
    let tags = block(&mut pos, n)?;
    if tags.len() != n {
        return Err(CodecError("column length mismatch"));
    }
    let ops = block(&mut pos, n)?;
    let counts = block(&mut pos, n)?;
    let reasons = block(&mut pos, n)?;
    // The interleaved numeric stream.
    let nums_len =
        varint::read_u64(data, &mut pos).ok_or(CodecError("truncated numeric length"))? as usize;
    let nums_end = pos.checked_add(nums_len).ok_or(CodecError("truncated numeric stream"))?;
    if nums_end > data.len() {
        return Err(CodecError("truncated numeric stream"));
    }
    let mut nums = NumReader { data: &data[pos..nums_end], pos: 0, ctx: DeltaCtx::default() };

    let mut out = Vec::with_capacity(n);
    let (mut exec_i, mut reason_i) = (0usize, 0usize);
    for &tag in &tags {
        let ts_ms = nums.field(|c| &mut c.ts)?;
        let rec = match tag {
            TAG_INGRESS_DATA => AuditRecord::Ingress { ts_ms, data: DataRef::UArray(nums.id()?) },
            TAG_INGRESS_WM => {
                AuditRecord::Ingress { ts_ms, data: DataRef::Watermark(nums.field(|c| &mut c.wm)?) }
            }
            TAG_EGRESS => AuditRecord::Egress { ts_ms, data: nums.id()? },
            TAG_WINDOWING => {
                let input = nums.id()?;
                let output = nums.id()?;
                let win_no = nums.field(|c| &mut c.win)?;
                AuditRecord::Windowing { ts_ms, input, win_no, output }
            }
            TAG_EXECUTION => {
                let code = *ops.get(exec_i).ok_or(CodecError("missing op code"))?;
                let op =
                    PrimitiveKind::from_code(code as u16).ok_or(CodecError("unknown op code"))?;
                let packed = *counts.get(exec_i).ok_or(CodecError("missing count"))?;
                exec_i += 1;
                let (n_in, n_out, n_hint) = if packed != COUNTS_ESCAPE {
                    (
                        (packed >> 5) as usize,
                        ((packed >> 2) & 0x7) as usize,
                        (packed & 0x3) as usize,
                    )
                } else {
                    (nums.count()?, nums.count()?, nums.count()?)
                };
                // Every port and hint costs at least one byte: an
                // adversarial count must not drive a huge reservation.
                if n_in.saturating_add(n_out).saturating_add(n_hint) > nums.remaining() {
                    return Err(CodecError("truncated numeric stream"));
                }
                let mut inputs = PortList::new();
                for _ in 0..n_in {
                    inputs.push(nums.id()?);
                }
                let mut outputs = PortList::new();
                for _ in 0..n_out {
                    outputs.push(nums.id()?);
                }
                let mut hints = Vec::with_capacity(n_hint);
                for _ in 0..n_hint {
                    hints.push(nums.hint()?);
                }
                AuditRecord::Execution { ts_ms, op, inputs, outputs, hints }
            }
            TAG_REKEY => AuditRecord::Rekey { ts_ms, epoch: nums.field(|c| &mut c.epoch)? },
            TAG_DEPARTURE => {
                let code = *reasons.get(reason_i).ok_or(CodecError("missing reason"))?;
                reason_i += 1;
                let reason =
                    DepartureReason::from_code(code).ok_or(CodecError("unknown reason code"))?;
                AuditRecord::Departure { ts_ms, reason }
            }
            TAG_CKPT_SEALED | TAG_CKPT_RESUMED => {
                let seq = nums.delta(|c| &mut c.ckpt)?;
                let mut hash = [0u8; 32];
                for word in hash.chunks_exact_mut(8) {
                    word.copy_from_slice(&nums.varint()?.to_le_bytes());
                }
                AuditRecord::Checkpoint { ts_ms, seq, resumed: tag == TAG_CKPT_RESUMED, hash }
            }
            _ => return Err(CodecError("unknown record tag")),
        };
        out.push(rec);
    }
    // One payload per record sequence: every column and the numeric stream
    // are read to their ends, and nothing follows the stream.
    if exec_i != ops.len() || exec_i != counts.len() || reason_i != reasons.len() {
        return Err(CodecError("column longer than its records"));
    }
    if nums.remaining() != 0 {
        return Err(CodecError("numeric stream longer than its records"));
    }
    if nums_end != data.len() {
        return Err(CodecError("bytes after the numeric stream"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn adversarial_huffman_length_is_an_error_not_a_panic() {
        // Record count, then a tags block claiming u64::MAX symbols: the
        // count must not wrap around a bounds check or drive a reservation.
        let mut data = FORMAT_PREFIX.to_vec();
        data.push(FORMAT_VERSION_STREAMING);
        varint::write_u64(3, &mut data);
        varint::write_u64(u64::MAX, &mut data);
        data.extend_from_slice(&[1, TAG_EGRESS]);
        assert_eq!(decompress_records(&data), Err(CodecError("corrupt entropy block")));
    }

    fn sample_records(n: u32) -> Vec<AuditRecord> {
        // A realistic-looking stream: ingress, windowing, sort, sum, egress,
        // with monotone timestamps and ids.
        let mut records = Vec::new();
        let mut id = 0u32;
        for i in 0..n {
            let base_ts = i * 10;
            let ingress_id = id;
            records.push(AuditRecord::Ingress {
                ts_ms: base_ts,
                data: DataRef::UArray(UArrayRef(ingress_id)),
            });
            id += 1;
            let windowed = id;
            records.push(AuditRecord::Windowing {
                ts_ms: base_ts + 1,
                input: UArrayRef(ingress_id),
                win_no: (i % 100) as u16,
                output: UArrayRef(windowed),
            });
            id += 1;
            let sorted = id;
            records.push(AuditRecord::Execution {
                ts_ms: base_ts + 2,
                op: PrimitiveKind::Sort,
                inputs: [UArrayRef(windowed)].into(),
                outputs: [UArrayRef(sorted)].into(),
                hints: vec![],
            });
            id += 1;
            if i % 10 == 9 {
                records.push(AuditRecord::Ingress {
                    ts_ms: base_ts + 3,
                    data: DataRef::Watermark(i * 1000),
                });
                records.push(AuditRecord::Egress { ts_ms: base_ts + 5, data: UArrayRef(sorted) });
            }
        }
        records
    }

    #[test]
    fn streaming_round_trip_realistic_stream() {
        let records = sample_records(200);
        let compressed = compress_records_streaming(&records);
        assert_eq!(compressed[0..2], FORMAT_PREFIX);
        assert_eq!(compressed[2], FORMAT_VERSION_STREAMING);
        let decompressed = decompress_records(&compressed).unwrap();
        assert_eq!(decompressed, records);
    }

    #[test]
    fn streaming_encoder_is_reusable_across_seals() {
        let mut enc = ColumnarEncoder::new();
        // Cover every record variant, so every arm of `append` runs.
        let mut records = sample_records(40);
        records.push(AuditRecord::Rekey { ts_ms: 900, epoch: 1 });
        records.push(AuditRecord::Checkpoint {
            ts_ms: 900,
            seq: 0,
            resumed: false,
            hash: [0x5A; 32],
        });
        records.push(AuditRecord::Execution {
            ts_ms: 901,
            op: PrimitiveKind::MergeK,
            inputs: (0..7).map(UArrayRef).collect(),
            outputs: [UArrayRef(8)].into(),
            hints: vec![1, 2, 3],
        });
        records.push(AuditRecord::Departure { ts_ms: 902, reason: DepartureReason::Drained });
        for r in &records {
            enc.append(r);
        }
        assert_eq!(enc.len(), records.len());
        assert_eq!(enc.raw_bytes(), AuditRecord::raw_size(&records) as u64);
        let first = enc.seal();
        assert!(enc.is_empty());
        assert_eq!(enc.raw_bytes(), 0);
        assert_eq!(decompress_records(&first).unwrap(), records);

        // The second segment through the same encoder is independent: delta
        // state and columns reset.
        let more = sample_records(7);
        for r in &more {
            enc.append(r);
        }
        let second = enc.seal();
        assert_eq!(decompress_records(&second).unwrap(), more);
    }

    #[test]
    fn compression_beats_raw_rows_substantially() {
        let records = sample_records(500);
        let raw = AuditRecord::raw_size(&records);
        let compressed = compress_records_streaming(&records).len();
        let ratio = raw as f64 / compressed as f64;
        // The paper reports 5x–6.7x; the codec should comfortably exceed 3x
        // on this synthetic-but-realistic stream.
        assert!(ratio > 3.0, "ratio only {ratio:.2} ({raw} -> {compressed})");
    }

    #[test]
    fn lifecycle_records_round_trip() {
        let records = vec![
            AuditRecord::Ingress { ts_ms: 1, data: DataRef::UArray(UArrayRef(1)) },
            AuditRecord::Rekey { ts_ms: 2, epoch: 1 },
            AuditRecord::Ingress { ts_ms: 3, data: DataRef::UArray(UArrayRef(2)) },
            AuditRecord::Rekey { ts_ms: 4, epoch: 2 },
            AuditRecord::Departure { ts_ms: 5, reason: DepartureReason::Drained },
        ];
        assert_eq!(decompress_records(&compress_records_streaming(&records)).unwrap(), records);
        let evicted = vec![AuditRecord::Departure { ts_ms: 0, reason: DepartureReason::Evicted }];
        assert_eq!(decompress_records(&compress_records_streaming(&evicted)).unwrap(), evicted);
    }

    #[test]
    fn checkpoint_records_round_trip() {
        // A sealed/resumed pair with distinct hashes, mixed into ordinary
        // traffic; hashes use bytes exercising every varint length.
        let mut hash_a = [0u8; 32];
        for (i, b) in hash_a.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(0x3B).wrapping_add(0x81);
        }
        let mut hash_b = hash_a;
        hash_b[31] ^= 0xFF;
        let records = vec![
            AuditRecord::Ingress { ts_ms: 1, data: DataRef::UArray(UArrayRef(1)) },
            AuditRecord::Checkpoint { ts_ms: 2, seq: 0, resumed: false, hash: hash_a },
            AuditRecord::Ingress { ts_ms: 3, data: DataRef::UArray(UArrayRef(2)) },
            AuditRecord::Checkpoint { ts_ms: 4, seq: 1, resumed: false, hash: hash_b },
            AuditRecord::Checkpoint { ts_ms: 5, seq: 1, resumed: true, hash: hash_b },
        ];
        assert_eq!(decompress_records(&compress_records_streaming(&records)).unwrap(), records);
    }

    #[test]
    fn empty_batch_round_trips() {
        let empty = compress_records_streaming(&[]);
        assert_eq!(decompress_records(&empty).unwrap(), Vec::<AuditRecord>::new());
    }

    /// Only v4 decodes: a future version, an old one (1–3), and a payload
    /// too short to carry a prefix and a version are each a typed error.
    #[test]
    fn unsupported_future_version_is_an_error() {
        let version = |v: u8| [FORMAT_PREFIX[0], FORMAT_PREFIX[1], v, 0x00];
        for (payload, err) in [
            (&[][..], "missing format prefix"),
            (&[0x00], "missing format prefix"),
            // An old v1 empty batch: no prefix.
            (&[0x00, 0x06, 0, 0, 0, 0, 0, 0], "missing format prefix"),
            (&FORMAT_PREFIX, "missing format version"),
            (&version(1), "unsupported format version"),
            (&version(2), "unsupported format version"),
            (&version(3), "unsupported format version"),
            (&version(0x77), "unsupported format version"),
        ] {
            assert_eq!(decompress_records(payload), Err(CodecError(err)), "{payload:?}");
        }
    }

    #[test]
    fn hints_survive_round_trip() {
        let mut records = vec![AuditRecord::Execution {
            ts_ms: 1,
            op: PrimitiveKind::SumCnt,
            inputs: [UArrayRef(1), UArrayRef(2)].into(),
            outputs: [UArrayRef(3)].into(),
            hints: vec![0xDEAD_BEEF, (1 << 63) | 42],
        }];
        // Every 64-bit value is a hint the record can carry; the codec's hint
        // words must round-trip the edges of both kinds exactly.
        for hint in [
            0,
            0x7F,
            u32::MAX as u64,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) | (25 << 32) | 24,
            (1 << 63) | (0x7FFF_FFFF << 32),
            u64::MAX,
        ] {
            records.push(AuditRecord::Execution {
                ts_ms: 2,
                op: PrimitiveKind::Sort,
                inputs: [UArrayRef(3)].into(),
                outputs: [UArrayRef(4)].into(),
                hints: vec![hint],
            });
        }
        assert_eq!(decompress_records(&compress_records_streaming(&records)).unwrap(), records);
    }

    #[test]
    fn a_parallel_hint_costs_two_bytes() {
        // Sibling 24 of 25: the shape every per-partition Sort carries.
        let record = |hints| AuditRecord::Execution {
            ts_ms: 1,
            op: PrimitiveKind::Sort,
            inputs: [UArrayRef(1)].into(),
            outputs: [UArrayRef(2)].into(),
            hints,
        };
        let bare = compress_records_streaming(&[record(vec![])]).len();
        let hinted = compress_records_streaming(&[record(vec![(1 << 63) | (25 << 32) | 24])]);
        assert_eq!(hinted.len(), bare + 2);
        let after = compress_records_streaming(&[record(vec![40])]);
        assert_eq!(after.len(), bare + 1);
    }

    /// A hand-built payload: one record per tag, the given ops, counts and
    /// reasons columns, and the numeric stream.
    fn hand_built(tags: &[u8], columns: [&[u8]; 3], nums: &[u64]) -> Vec<u8> {
        let mut payload = FORMAT_PREFIX.to_vec();
        payload.push(FORMAT_VERSION_STREAMING);
        varint::write_u64(tags.len() as u64, &mut payload);
        let [ops, counts, reasons] = columns;
        for (column, table) in [
            (tags, huffman::StaticTable::Tags),
            (ops, huffman::StaticTable::Ops),
            (counts, huffman::StaticTable::Counts),
            (reasons, huffman::StaticTable::Reasons),
        ] {
            huffman::encode_block(column, table, &mut payload);
        }
        let mut stream = Vec::new();
        for &v in nums {
            varint::write_u64(v, &mut stream);
        }
        varint::write_u64(stream.len() as u64, &mut payload);
        payload.extend_from_slice(&stream);
        payload
    }

    /// A hand-built payload of one record with the given tag, counts column
    /// and numeric stream; an execution record is a `Sort`.
    fn one_record_v3(tag: u8, counts: &[u8], nums: &[u64]) -> Vec<u8> {
        let ops: &[u8] =
            if tag == TAG_EXECUTION { &[PrimitiveKind::Sort.code() as u8] } else { &[] };
        hand_built(&[tag], [ops, counts, &[]], nums)
    }

    #[test]
    fn surplus_symbols_and_bytes_are_an_error_not_ignored() {
        // An egress and a one-in, one-out `Sort`: two ids and three.
        let sort = PrimitiveKind::Sort.code() as u8;
        let tags = [TAG_EGRESS, TAG_EXECUTION];
        let nums = [0; 5];
        let canonical = hand_built(&tags, [&[sort], &[0x24], &[]], &nums);
        let records = decompress_records(&canonical).unwrap();
        assert!(matches!(records[..], [AuditRecord::Egress { .. }, AuditRecord::Execution { .. }]));
        assert_eq!(compress_records_streaming(&records), canonical, "the one encoding");
        let column = Err(CodecError("column longer than its records"));
        for columns in [
            [&[sort, sort][..], &[0x24], &[]],
            [&[sort], &[0x24, 0x24], &[]],
            [&[sort], &[0x24], &[0]],
            [&[sort, sort], &[0x24, 0x24], &[0]],
        ] {
            assert_eq!(decompress_records(&hand_built(&tags, columns, &nums)), column);
        }
        let longer = hand_built(&tags, [&[sort], &[0x24], &[]], &[0; 6]);
        assert_eq!(
            decompress_records(&longer),
            Err(CodecError("numeric stream longer than its records"))
        );
        let mut trailing = canonical;
        trailing.push(0);
        assert_eq!(
            decompress_records(&trailing),
            Err(CodecError("bytes after the numeric stream"))
        );
    }

    /// [`one_record_v3`] for a `Sort` execution record.
    fn one_execution_v3(counts: &[u8], nums: &[u64]) -> Vec<u8> {
        one_record_v3(TAG_EXECUTION, counts, nums)
    }

    #[test]
    fn out_of_range_fields_are_an_error_not_a_truncation() {
        // Per field kind: a record's tag, the length of its numeric stream
        // (timestamp first), the field's place in it and its widest value.
        let (u32_max, u16_max) = (u32::MAX as u64, u16::MAX as u64);
        for (tag, words, at, max) in [
            (TAG_INGRESS_DATA, 2, 0, u32_max), // timestamp
            (TAG_EGRESS, 2, 1, u32_max),       // uArray id
            (TAG_INGRESS_WM, 2, 1, u32_max),   // watermark
            (TAG_REKEY, 2, 1, u32_max),        // epoch
            (TAG_WINDOWING, 4, 3, u16_max),    // window number
            (TAG_EXECUTION, 3, 2, u32_max),    // output id
        ] {
            let counts: &[u8] = if tag == TAG_EXECUTION { &[0x24] } else { &[] };
            let payload = |v: u64| {
                let mut nums = vec![0; words];
                nums[at] = varint::zigzag(v as i64);
                one_record_v3(tag, counts, &nums)
            };
            assert!(decompress_records(&payload(max)).is_ok(), "tag {tag}: the widest value");
            // One past it must not wrap to 0, which would decode two
            // payloads to the same records.
            for v in [max + 1, i64::MAX as u64] {
                assert_eq!(
                    decompress_records(&payload(v)),
                    Err(CodecError("field out of range")),
                    "tag {tag}, value {v}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_v3_parallel_hint_is_an_error() {
        // 1 in, 1 out, 1 hint; then ts, input, output and the hint words.
        let hinted = |first: u64| one_execution_v3(&[0x25], &[0, 2, 2, first, 1]);
        let well_formed = AuditRecord::Execution {
            ts_ms: 0,
            op: PrimitiveKind::Sort,
            inputs: [UArrayRef(1)].into(),
            outputs: [UArrayRef(2)].into(),
            hints: vec![(1 << 63) | (0x7FFF_FFFF << 32) | 1],
        };
        assert_eq!(decompress_records(&hinted((0x7FFF_FFFF << 1) | 1)), Ok(vec![well_formed]));
        // k = 2³¹ has no 64-bit record encoding.
        assert_eq!(
            decompress_records(&hinted((1 << 32) | 1)),
            Err(CodecError("parallel hint out of range"))
        );
    }

    #[test]
    fn an_adversarial_escaped_count_is_an_error_not_a_reservation() {
        // An escaped execution: its timestamp, then 1 input, 1 output and a
        // hint count of 2⁶⁰ in a stream with two words left.
        let escaped = |hints: u64| one_execution_v3(&[COUNTS_ESCAPE], &[0, 1, 1, hints, 2, 4]);
        let well_formed = AuditRecord::Execution {
            ts_ms: 0,
            op: PrimitiveKind::Sort,
            inputs: [UArrayRef(1)].into(),
            outputs: [UArrayRef(3)].into(),
            hints: vec![],
        };
        assert_eq!(decompress_records(&escaped(0)), Ok(vec![well_formed]));
        for hints in [3, 1 << 60, u64::MAX] {
            assert_eq!(
                decompress_records(&escaped(hints)),
                Err(CodecError("truncated numeric stream")),
                "{hints} hints"
            );
        }
    }

    #[test]
    fn a_column_longer_than_its_records_allow_is_an_error() {
        // One record: its counts column holds one byte.
        let counts = |len: usize| one_execution_v3(&vec![0x24; len], &[0, 2, 2]);
        assert!(decompress_records(&counts(1)).is_ok());
        assert_eq!(decompress_records(&counts(2)), Err(CodecError("corrupt entropy block")));
    }

    #[test]
    fn spilled_port_lists_round_trip() {
        // More ports than fit inline: the codec carries them all.
        let many: PortList = (0..9).map(UArrayRef).collect();
        let records = vec![AuditRecord::Execution {
            ts_ms: 1,
            op: PrimitiveKind::MergeK,
            inputs: many.clone(),
            outputs: [UArrayRef(100)].into(),
            hints: vec![],
        }];
        assert_eq!(decompress_records(&compress_records_streaming(&records)).unwrap(), records);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn arbitrary_records_round_trip(
            specs in proptest::collection::vec((0u8..9, 0u32..10_000, 0u32..5_000, 0u16..200), 0..200),
        ) {
            let mut records = Vec::new();
            for (kind, ts, id, win) in specs {
                let rec = match kind {
                    0 => AuditRecord::Ingress { ts_ms: ts, data: DataRef::UArray(UArrayRef(id)) },
                    1 => AuditRecord::Ingress { ts_ms: ts, data: DataRef::Watermark(id) },
                    2 => AuditRecord::Egress { ts_ms: ts, data: UArrayRef(id) },
                    3 => AuditRecord::Windowing {
                        ts_ms: ts, input: UArrayRef(id), win_no: win, output: UArrayRef(id + 1),
                    },
                    5 => AuditRecord::Rekey { ts_ms: ts, epoch: id },
                    6 => AuditRecord::Departure {
                        ts_ms: ts,
                        reason: if id % 2 == 0 {
                            DepartureReason::Drained
                        } else {
                            DepartureReason::Evicted
                        },
                    },
                    7 | 8 => {
                        let mut hash = [0u8; 32];
                        for (i, b) in hash.iter_mut().enumerate() {
                            *b = (id as u8).wrapping_mul(31).wrapping_add(i as u8);
                        }
                        AuditRecord::Checkpoint {
                            ts_ms: ts, seq: id as u64, resumed: kind == 8, hash,
                        }
                    }
                    _ => AuditRecord::Execution {
                        ts_ms: ts,
                        op: PrimitiveKind::TRUSTED_PRIMITIVES[(id % 23) as usize],
                        inputs: [UArrayRef(id)].into(),
                        outputs: [UArrayRef(id + 1), UArrayRef(id + 2)].into(),
                        hints: vec![id as u64],
                    },
                };
                records.push(rec);
            }
            let rt = decompress_records(&compress_records_streaming(&records)).unwrap();
            prop_assert_eq!(&rt, &records);
        }
    }
}
