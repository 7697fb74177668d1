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
//! Three wire formats coexist, distinguished by a version prefix (see
//! [`FORMAT_V2_PREFIX`]); the layout is self-describing so the cloud side
//! can decompress without any out-of-band schema, and decompression
//! restores the exact record sequence.
//!
//! * **v3** ([`ColumnarEncoder`], the one encoder) is the streaming codec:
//!   fields go straight into per-column delta/varint accumulators at
//!   *append* time, so sealing a segment only entropy-codes the small byte
//!   columns and copies the already-encoded numeric columns. Byte columns use the
//!   mode-tagged entropy blocks of [`crate::huffman`], whose static tables
//!   let tiny segments skip tree construction entirely. Execution counts
//!   that do not fit the packed count byte escape to three varints, so
//!   lists of any length round-trip.
//! * **v2** is v3's predecessor, decoded but no longer written: it stores
//!   each hint as its raw 64-bit record value and escapes counts to three
//!   bytes, which clamped longer lists to 255 entries.
//! * **v1** is the original batch codec, decoded but no longer written:
//!   records were re-walked into whole columns at flush time, with a
//!   legacy Huffman tree per byte column, and lists were clamped to 255
//!   entries. [`decompress_records`] accepts it forever; payloads captured
//!   from its last encoder (`tests/fixtures/v1_*.bin`) pin the layout.

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

/// Two-byte prefix announcing a versioned (v2+) payload, followed by the
/// format-version byte.
///
/// Why these bytes are unambiguous: a v1 payload starts with the record
/// count as a varint, so its first byte is `0x00` only for an *empty*
/// batch — and an empty v1 batch always continues with `0x06` (the length
/// of an empty Huffman block). `[0x00, 0xFF]` therefore never opens a v1
/// payload, and the third byte is free to carry the actual version.
pub const FORMAT_V2_PREFIX: [u8; 2] = [0x00, 0xFF];

/// Format version the streaming columnar codec writes (v3).
pub const FORMAT_VERSION_STREAMING: u8 = 3;

/// Format version of the streaming codec's predecessor, still decoded.
pub const FORMAT_VERSION_V2: u8 = 2;

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
// The streaming encoder (format v3)
// ---------------------------------------------------------------------------

/// Packed execution count byte: `(inputs << 5) | (outputs << 2) | hints`.
/// [`COUNTS_ESCAPE`] (which is also a *valid* packing — 7/7/3 — and must
/// therefore spill) announces the three counts in full instead: as varints
/// in v3, as single bytes in v2.
const COUNTS_ESCAPE: u8 = 0xFF;

/// The v3 numeric-stream words of one hint's 64-bit record value: `id << 1`
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
/// field kind keeps its own previous value, exactly like the per-column
/// delta coding of format v1 — only the byte *placement* is interleaved in
/// record order, which is what lets one `extend_from_slice` carry a whole
/// record.
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
    /// Low bytes of execution op codes, one per execution record.
    ops: Vec<u8>,
    /// Sparse non-zero op-code high bytes: varint-encoded
    /// `(execution-index delta, value)` pairs. Real primitives all have
    /// codes under 256, so this column is almost always empty.
    ops_hi: Vec<u8>,
    ops_hi_count: u64,
    last_hi_exec_idx: u64,
    exec_idx: u64,
    /// Packed execution counts (see [`pack_counts`]), with escapes.
    counts: Vec<u8>,
    /// Departure reason codes.
    reasons: Vec<u8>,
    /// The interleaved numeric stream: per record, its timestamp delta then
    /// its tag-specific numeric fields.
    nums: Vec<u8>,
    ctx: DeltaCtx,
    /// Recycled dynamic entropy codes, one per byte column. Large segments
    /// of one stream draw from near-identical symbol distributions, so the
    /// seal reuses the previous segment's fitted code (an O(256)
    /// near-optimality check) instead of re-running tree construction per
    /// column per seal. Survives [`reset`](Self::reset) by design.
    code_caches: [huffman::CodeCache; 4],
    /// Incremental static-table bit costs, one per byte column: each append
    /// adds the appended symbol's static code length, so the seal knows the
    /// exact MODE_STATIC cost without the planner's frequency pass. A
    /// `*_sbad` flag goes sticky (until reset) when a symbol without a
    /// static code was appended; tags cannot go bad — every record tag has
    /// a static code by construction.
    tags_sbits: u64,
    ops_sbits: u64,
    ops_sbad: bool,
    counts_sbits: u64,
    counts_sbad: bool,
    reasons_sbits: u64,
    reasons_sbad: bool,
    /// Flat per-symbol static code lengths for the incremental cost
    /// tracking above, copied out of the shared lazy tables once per
    /// encoder: the per-record append indexes a plain array instead of
    /// dereferencing a `LazyLock` table per symbol column.
    slen: StaticLens,
}

/// Per-symbol static-table code lengths (0 = symbol not covered) for the
/// symbol columns whose static cost [`ColumnarEncoder::append`] tracks
/// incrementally; tags use the [`TAG_SLEN`] constant instead.
struct StaticLens {
    ops: [u8; 256],
    counts: [u8; 256],
    reasons: [u8; 256],
}

impl Default for StaticLens {
    fn default() -> Self {
        let fill = |id: huffman::StaticTable| {
            let mut lens = [0u8; 256];
            for (symbol, len) in lens.iter_mut().enumerate() {
                *len = huffman::static_code_len(id, symbol as u8);
            }
            lens
        };
        StaticLens {
            ops: fill(huffman::StaticTable::Ops),
            counts: fill(huffman::StaticTable::Counts),
            reasons: fill(huffman::StaticTable::Reasons),
        }
    }
}

/// Static-table code lengths of the record-kind tags (mirrors the Tags
/// table in [`huffman::static_table`]; asserted equal in tests), letting
/// `append` track the tags column's static cost with one constant add.
const TAG_SLEN: [u64; 9] = [2, 4, 3, 2, 2, 6, 6, 6, 6];

/// Seal one byte column, preferring the plans the append path has already
/// costed: a vectorizable constant scan, then the incremental static-table
/// cost (the same "static fits well" rule as the small-column fast path —
/// at most 2.5 bits/symbol and smaller than raw), and only falling back to
/// the full planner (frequency pass + cached dynamic fit) when neither
/// cheap plan applies. Every mode is a valid v2 block; decoders are
/// oblivious to which plan ran.
fn seal_column(
    data: &[u8],
    id: huffman::StaticTable,
    static_bits: u64,
    static_bad: bool,
    cache: &mut huffman::CodeCache,
    out: &mut Vec<u8>,
) {
    if !data.is_empty() && data.len() <= huffman::CONST_MAX {
        let first = data[0];
        if data.iter().all(|&b| b == first) {
            huffman::encode_block_v2_const(data.len(), first, out);
            return;
        }
    }
    if !data.is_empty() && !static_bad {
        let raw_cost = 1 + data.len();
        let sbytes = static_bits.div_ceil(8) as usize;
        let scost = 3 + huffman::varint_len(sbytes as u64) + sbytes;
        if static_bits * 2 <= data.len() as u64 * 5 && scost < raw_cost {
            huffman::encode_block_v2_static(data, id, static_bits, out);
            return;
        }
    }
    huffman::encode_block_v2_cached(data, Some(id), cache, out);
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
            ops_hi: Vec::with_capacity(8),
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
    ///
    /// `N` is const so the packing fully unrolls: every fixed-layout record
    /// kind compiles to a handful of straight-line OR/shift ops plus one
    /// store, with no loop back-edge to predict.
    #[inline]
    fn write_varint_group<const N: usize>(nums: &mut Vec<u8>, vals: [u64; N]) {
        const { assert!(N <= 8) }
        let mut word = 0u64;
        let mut any = 0u64;
        let mut i = 0;
        while i < N {
            any |= vals[i];
            word |= (vals[i] & 0x7F) << (8 * i);
            i += 1;
        }
        if any < 0x80 {
            let start = nums.len();
            nums.extend_from_slice(&word.to_le_bytes());
            nums.truncate(start + N);
        } else {
            for &v in &vals {
                varint::write_u64(v, nums);
            }
        }
    }

    /// Runtime-length variant of [`write_varint_group`](Self::write_varint_group)
    /// for the rare execution shapes whose field count is not a compile-time
    /// constant.
    #[inline]
    fn write_varint_group_slice(nums: &mut Vec<u8>, vals: &[u64]) {
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
        let nums = &mut self.nums;
        let ctx = &mut self.ctx;
        match r {
            AuditRecord::Ingress { ts_ms, data } => {
                self.raw_bytes += 11;
                let dts = Self::delta(&mut ctx.ts, *ts_ms as u64);
                match data {
                    DataRef::UArray(id) => {
                        self.tags.push(TAG_INGRESS_DATA);
                        self.tags_sbits += TAG_SLEN[TAG_INGRESS_DATA as usize];
                        let did = Self::delta(&mut ctx.id, id.0 as u64);
                        Self::write_varint_group(nums, [dts, did]);
                    }
                    DataRef::Watermark(wm) => {
                        self.tags.push(TAG_INGRESS_WM);
                        self.tags_sbits += TAG_SLEN[TAG_INGRESS_WM as usize];
                        let dwm = Self::delta(&mut ctx.wm, *wm as u64);
                        Self::write_varint_group(nums, [dts, dwm]);
                    }
                }
            }
            AuditRecord::Egress { ts_ms, data } => {
                self.raw_bytes += 11;
                self.tags.push(TAG_EGRESS);
                self.tags_sbits += TAG_SLEN[TAG_EGRESS as usize];
                let dts = Self::delta(&mut ctx.ts, *ts_ms as u64);
                let did = Self::delta(&mut ctx.id, data.0 as u64);
                Self::write_varint_group(nums, [dts, did]);
            }
            AuditRecord::Windowing { ts_ms, input, win_no, output } => {
                self.raw_bytes += 16;
                self.tags.push(TAG_WINDOWING);
                self.tags_sbits += TAG_SLEN[TAG_WINDOWING as usize];
                let dts = Self::delta(&mut ctx.ts, *ts_ms as u64);
                let din = Self::delta(&mut ctx.id, input.0 as u64);
                let dout = Self::delta(&mut ctx.id, output.0 as u64);
                let dwin = Self::delta(&mut ctx.win, *win_no as u64);
                Self::write_varint_group(nums, [dts, din, dout, dwin]);
            }
            AuditRecord::Execution { ts_ms, op, inputs, outputs, hints } => {
                self.raw_bytes +=
                    (12 + 4 * (inputs.len() + outputs.len()) + 8 * hints.len()) as u64;
                self.tags.push(TAG_EXECUTION);
                self.tags_sbits += TAG_SLEN[TAG_EXECUTION as usize];
                let code = op.code();
                let lo = (code & 0xFF) as u8;
                self.ops.push(lo);
                match self.slen.ops[lo as usize] {
                    0 => self.ops_sbad = true,
                    l => self.ops_sbits += l as u64,
                }
                if code >= 0x100 {
                    // Sparse high byte (never hit by real primitives).
                    varint::write_u64(self.exec_idx - self.last_hi_exec_idx, &mut self.ops_hi);
                    self.ops_hi.push((code >> 8) as u8);
                    self.last_hi_exec_idx = self.exec_idx;
                    self.ops_hi_count += 1;
                }
                self.exec_idx += 1;
                match pack_counts(inputs.len(), outputs.len(), hints.len()) {
                    Some(packed) => {
                        self.counts.push(packed);
                        match self.slen.counts[packed as usize] {
                            0 => self.counts_sbad = true,
                            l => self.counts_sbits += l as u64,
                        }
                    }
                    None => {
                        // The spilled count varints are arbitrary bytes the
                        // static table cannot promise to cover.
                        self.counts_sbad = true;
                        self.counts.push(COUNTS_ESCAPE);
                        for count in [inputs.len(), outputs.len(), hints.len()] {
                            varint::write_u64(count as u64, &mut self.counts);
                        }
                    }
                }
                let hint_words_total: usize = hints.iter().map(|&h| hint_words(h).1).sum();
                let words = 1 + inputs.len() + outputs.len() + hint_words_total;
                if let ([i0], [o0], []) = (&inputs[..], &outputs[..], &hints[..]) {
                    // 1-in/1-out, no hints: the overwhelmingly dominant
                    // execution shape — straight-line, loop-free.
                    let dts = Self::delta(&mut ctx.ts, *ts_ms as u64);
                    let din = Self::delta(&mut ctx.id, i0.0 as u64);
                    let dout = Self::delta(&mut ctx.id, o0.0 as u64);
                    Self::write_varint_group(nums, [dts, din, dout]);
                } else if let ([i0, i1], [o0], []) = (&inputs[..], &outputs[..], &hints[..]) {
                    // 2-in/1-out, no hints: every merge step.
                    let dts = Self::delta(&mut ctx.ts, *ts_ms as u64);
                    let di0 = Self::delta(&mut ctx.id, i0.0 as u64);
                    let di1 = Self::delta(&mut ctx.id, i1.0 as u64);
                    let dout = Self::delta(&mut ctx.id, o0.0 as u64);
                    Self::write_varint_group(nums, [dts, di0, di1, dout]);
                } else if words <= 8 {
                    // Other shapes that still fit one group — among them
                    // every per-partition invocation with its one parallel
                    // hint: gather the words, then one store carries the
                    // whole record.
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
                    Self::write_varint_group_slice(nums, &vals[..k]);
                } else {
                    varint::write_u64(Self::delta(&mut ctx.ts, *ts_ms as u64), nums);
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
                self.raw_bytes += 10;
                self.tags.push(TAG_REKEY);
                self.tags_sbits += TAG_SLEN[TAG_REKEY as usize];
                let dts = Self::delta(&mut ctx.ts, *ts_ms as u64);
                let dep = Self::delta(&mut ctx.epoch, *epoch as u64);
                Self::write_varint_group(nums, [dts, dep]);
            }
            AuditRecord::Departure { ts_ms, reason } => {
                self.raw_bytes += 7;
                self.tags.push(TAG_DEPARTURE);
                self.tags_sbits += TAG_SLEN[TAG_DEPARTURE as usize];
                let rc = reason.code();
                self.reasons.push(rc);
                match self.slen.reasons[rc as usize] {
                    0 => self.reasons_sbad = true,
                    l => self.reasons_sbits += l as u64,
                }
                varint::write_u64(Self::delta(&mut ctx.ts, *ts_ms as u64), nums);
            }
            AuditRecord::Checkpoint { ts_ms, seq, resumed, hash } => {
                self.raw_bytes += 47;
                let tag = if *resumed { TAG_CKPT_RESUMED } else { TAG_CKPT_SEALED };
                self.tags.push(tag);
                self.tags_sbits += TAG_SLEN[tag as usize];
                // Timestamp and checkpoint-seq deltas, then the snapshot
                // hash as four verbatim little-endian words (uniformly
                // random bytes — no transform helps them).
                let dts = Self::delta(&mut ctx.ts, *ts_ms as u64);
                let dseq = Self::delta(&mut ctx.ckpt, *seq);
                Self::write_varint_group(nums, [dts, dseq]);
                for word in hash.chunks_exact(8) {
                    varint::write_u64(
                        u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
                        nums,
                    );
                }
            }
        }
    }

    /// Seal the pending records into a format-v3 payload appended to `out`,
    /// then reset (keeping buffer capacity) for the next segment.
    pub fn seal_into(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&FORMAT_V2_PREFIX);
        out.push(FORMAT_VERSION_STREAMING);
        varint::write_u64(self.n, out);
        // Layout: tags / ops-lo / packed counts / reasons entropy blocks,
        // the sparse ops-hi pairs, then the interleaved numeric stream.
        let [c_tags, c_ops, c_counts, c_reasons] = &mut self.code_caches;
        seal_column(&self.tags, huffman::StaticTable::Tags, self.tags_sbits, false, c_tags, out);
        seal_column(
            &self.ops,
            huffman::StaticTable::Ops,
            self.ops_sbits,
            self.ops_sbad,
            c_ops,
            out,
        );
        seal_column(
            &self.counts,
            huffman::StaticTable::Counts,
            self.counts_sbits,
            self.counts_sbad,
            c_counts,
            out,
        );
        seal_column(
            &self.reasons,
            huffman::StaticTable::Reasons,
            self.reasons_sbits,
            self.reasons_sbad,
            c_reasons,
            out,
        );
        varint::write_u64(self.ops_hi_count, out);
        out.extend_from_slice(&self.ops_hi);
        varint::write_u64(self.nums.len() as u64, out);
        out.extend_from_slice(&self.nums);
        self.reset();
    }

    /// Discard the pending records, keeping buffer capacity (the reset half
    /// of [`seal_into`](Self::seal_into) without emitting a payload).
    pub fn reset(&mut self) {
        self.tags.clear();
        self.ops.clear();
        self.ops_hi.clear();
        self.counts.clear();
        self.reasons.clear();
        self.nums.clear();
        self.ops_hi_count = 0;
        self.last_hi_exec_idx = 0;
        self.exec_idx = 0;
        self.ctx = DeltaCtx::default();
        self.n = 0;
        self.raw_bytes = 0;
        self.tags_sbits = 0;
        self.ops_sbits = 0;
        self.ops_sbad = false;
        self.counts_sbits = 0;
        self.counts_sbad = false;
        self.reasons_sbits = 0;
        self.reasons_sbad = false;
    }

    /// Seal into a fresh buffer.
    pub fn seal(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.tags.len() + self.nums.len());
        self.seal_into(&mut out);
        out
    }
}

/// One-shot convenience over [`ColumnarEncoder`]: compress a batch of
/// records into the streaming (format-v3) layout.
pub fn compress_records_streaming(records: &[AuditRecord]) -> Vec<u8> {
    let mut enc = ColumnarEncoder::with_capacity(records.len());
    for r in records {
        enc.append(r);
    }
    enc.seal()
}

// ---------------------------------------------------------------------------
// Decoding (all formats)
// ---------------------------------------------------------------------------

/// Decompress a [`ColumnarEncoder`] seal (format v3) or a payload of either
/// older format (v2, v1). The leading bytes select the format, so trails
/// may freely mix segments from all three.
pub fn decompress_records(data: &[u8]) -> Result<Vec<AuditRecord>, CodecError> {
    if data.len() >= 3 && data[0..2] == FORMAT_V2_PREFIX {
        return match data[2] {
            FORMAT_VERSION_STREAMING | FORMAT_VERSION_V2 => {
                decompress_streaming(data[2], &data[3..])
            }
            _ => Err(CodecError("unsupported format version")),
        };
    }
    decompress_v1(data)
}

fn decode_block_v2(data: &[u8], pos: &mut usize) -> Result<Vec<u8>, CodecError> {
    huffman::decode_block_v2(data, pos).ok_or(CodecError("corrupt entropy block"))
}

/// Reader over the streaming formats' interleaved numeric stream, holding
/// the per-field delta contexts (mirror of the encoder's [`DeltaCtx`]).
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

    /// One v3 hint (the inverse of [`hint_words`]), as its 64-bit record
    /// value.
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
}

/// Decode a v2 or v3 payload (after the version prefix). The two share
/// every column; they differ only in how escaped counts and hints are
/// written.
fn decompress_streaming(version: u8, data: &[u8]) -> Result<Vec<AuditRecord>, CodecError> {
    let v3 = version == FORMAT_VERSION_STREAMING;
    let mut pos = 0usize;
    let n = varint::read_u64(data, &mut pos).ok_or(CodecError("truncated record count"))? as usize;
    let tags = decode_block_v2(data, &mut pos)?;
    if tags.len() != n {
        return Err(CodecError("column length mismatch"));
    }
    let ops = decode_block_v2(data, &mut pos)?;
    let counts = decode_block_v2(data, &mut pos)?;
    let reasons = decode_block_v2(data, &mut pos)?;
    // Sparse op-code high bytes: (execution-index delta, value) pairs.
    let hi_count =
        varint::read_u64(data, &mut pos).ok_or(CodecError("truncated ops-hi count"))? as usize;
    if hi_count > ops.len() {
        return Err(CodecError("ops-hi count exceeds executions"));
    }
    let mut hi_pairs: Vec<(u64, u8)> = Vec::with_capacity(hi_count);
    let mut hi_idx = 0u64;
    for _ in 0..hi_count {
        let delta = varint::read_u64(data, &mut pos).ok_or(CodecError("truncated ops-hi pair"))?;
        let val = *data.get(pos).ok_or(CodecError("truncated ops-hi pair"))?;
        pos += 1;
        hi_idx = hi_idx.checked_add(delta).ok_or(CodecError("ops-hi index overflow"))?;
        hi_pairs.push((hi_idx, val));
    }
    // The interleaved numeric stream.
    let nums_len =
        varint::read_u64(data, &mut pos).ok_or(CodecError("truncated numeric length"))? as usize;
    let nums_end = pos.checked_add(nums_len).ok_or(CodecError("truncated numeric stream"))?;
    if nums_end > data.len() {
        return Err(CodecError("truncated numeric stream"));
    }
    let mut nums = NumReader { data: &data[pos..nums_end], pos: 0, ctx: DeltaCtx::default() };

    let mut out = Vec::with_capacity(n);
    let (mut op_i, mut cnt_i, mut reason_i, mut hi_i) = (0usize, 0usize, 0usize, 0usize);
    let mut exec_i = 0u64;
    for &tag in &tags {
        let ts_ms = nums.delta(|c| &mut c.ts)? as u32;
        let rec = match tag {
            TAG_INGRESS_DATA => {
                let id = nums.delta(|c| &mut c.id)?;
                AuditRecord::Ingress { ts_ms, data: DataRef::UArray(UArrayRef(id as u32)) }
            }
            TAG_INGRESS_WM => {
                let wm = nums.delta(|c| &mut c.wm)?;
                AuditRecord::Ingress { ts_ms, data: DataRef::Watermark(wm as u32) }
            }
            TAG_EGRESS => {
                let id = nums.delta(|c| &mut c.id)?;
                AuditRecord::Egress { ts_ms, data: UArrayRef(id as u32) }
            }
            TAG_WINDOWING => {
                let input = UArrayRef(nums.delta(|c| &mut c.id)? as u32);
                let output = UArrayRef(nums.delta(|c| &mut c.id)? as u32);
                let win_no = nums.delta(|c| &mut c.win)? as u16;
                AuditRecord::Windowing { ts_ms, input, win_no, output }
            }
            TAG_EXECUTION => {
                let lo = *ops.get(op_i).ok_or(CodecError("missing op code"))?;
                op_i += 1;
                let hi = match hi_pairs.get(hi_i) {
                    Some(&(idx, val)) if idx == exec_i => {
                        hi_i += 1;
                        val
                    }
                    _ => 0,
                };
                exec_i += 1;
                let op = PrimitiveKind::from_code(u16::from_le_bytes([lo, hi]))
                    .ok_or(CodecError("unknown op code"))?;
                let packed = *counts.get(cnt_i).ok_or(CodecError("missing count"))?;
                cnt_i += 1;
                let (n_in, n_out, n_hint) = if packed != COUNTS_ESCAPE {
                    (
                        (packed >> 5) as usize,
                        ((packed >> 2) & 0x7) as usize,
                        (packed & 0x3) as usize,
                    )
                } else if v3 {
                    let mut count = || {
                        varint::read_u64(&counts, &mut cnt_i)
                            .map(|n| n as usize)
                            .ok_or(CodecError("missing count"))
                    };
                    (count()?, count()?, count()?)
                } else {
                    let n_in = *counts.get(cnt_i).ok_or(CodecError("missing count"))? as usize;
                    let n_out = *counts.get(cnt_i + 1).ok_or(CodecError("missing count"))? as usize;
                    let n_hint =
                        *counts.get(cnt_i + 2).ok_or(CodecError("missing count"))? as usize;
                    cnt_i += 3;
                    (n_in, n_out, n_hint)
                };
                // Every port and hint costs at least one byte: an
                // adversarial count must not drive a huge reservation.
                if n_in.saturating_add(n_out).saturating_add(n_hint) > nums.remaining() {
                    return Err(CodecError("truncated numeric stream"));
                }
                let mut inputs = PortList::new();
                for _ in 0..n_in {
                    inputs.push(UArrayRef(nums.delta(|c| &mut c.id)? as u32));
                }
                let mut outputs = PortList::new();
                for _ in 0..n_out {
                    outputs.push(UArrayRef(nums.delta(|c| &mut c.id)? as u32));
                }
                let mut hints = Vec::with_capacity(n_hint);
                for _ in 0..n_hint {
                    hints.push(if v3 { nums.hint()? } else { nums.varint()? });
                }
                AuditRecord::Execution { ts_ms, op, inputs, outputs, hints }
            }
            TAG_REKEY => {
                let epoch = nums.delta(|c| &mut c.epoch)? as u32;
                AuditRecord::Rekey { ts_ms, epoch }
            }
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
    Ok(out)
}

// Format v1 is decoded only. A payload is the record count, then one
// length-prefixed column each: tags, op-code low and high bytes and
// execution counts (legacy Huffman blocks, three count bytes per record);
// timestamps, uArray ids, watermarks and window numbers (delta + zigzag +
// varint); hints (plain varints); rekey epochs (delta); departure reasons
// (Huffman); and, only when checkpoint records are present, checkpoint
// sequence numbers (delta) and hash words (varints). The captured payloads
// under `tests/fixtures/` pin the layout.

fn decode_delta(data: &[u8], pos: &mut usize) -> Result<Vec<u64>, CodecError> {
    let len = varint::read_u64(data, pos).ok_or(CodecError("truncated delta length"))? as usize;
    if len > data.len().saturating_sub(*pos) {
        // Every delta value costs at least one byte: an adversarial length
        // must not drive a huge reservation.
        return Err(CodecError("truncated delta column"));
    }
    let mut out = Vec::with_capacity(len);
    let mut prev = 0i64;
    for _ in 0..len {
        let z = varint::read_u64(data, pos).ok_or(CodecError("truncated delta value"))?;
        let v = prev.checked_add(varint::unzigzag(z)).ok_or(CodecError("delta out of range"))?;
        if v < 0 {
            return Err(CodecError("negative value after delta decoding"));
        }
        out.push(v as u64);
        prev = v;
    }
    Ok(out)
}

fn decode_varints(data: &[u8], pos: &mut usize) -> Result<Vec<u64>, CodecError> {
    let len = varint::read_u64(data, pos).ok_or(CodecError("truncated varint length"))? as usize;
    if len > data.len().saturating_sub(*pos) {
        return Err(CodecError("truncated varint column"));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(varint::read_u64(data, pos).ok_or(CodecError("truncated varint value"))?);
    }
    Ok(out)
}

fn decode_huffman(data: &[u8], pos: &mut usize) -> Result<Vec<u8>, CodecError> {
    let len = varint::read_u64(data, pos).ok_or(CodecError("truncated huffman length"))? as usize;
    // checked_add: an adversarial varint length must not wrap the bounds
    // check into a slice panic.
    let end = pos.checked_add(len).ok_or(CodecError("truncated huffman block"))?;
    if end > data.len() {
        return Err(CodecError("truncated huffman block"));
    }
    let block = &data[*pos..end];
    *pos = end;
    huffman::decompress_block(block).ok_or(CodecError("corrupt huffman block"))
}

fn decompress_v1(data: &[u8]) -> Result<Vec<AuditRecord>, CodecError> {
    let mut pos = 0usize;
    let n = varint::read_u64(data, &mut pos).ok_or(CodecError("truncated record count"))? as usize;
    let tags = decode_huffman(data, &mut pos)?;
    let ops = decode_huffman(data, &mut pos)?;
    let ops_hi = decode_huffman(data, &mut pos)?;
    let counts = decode_huffman(data, &mut pos)?;
    let timestamps = decode_delta(data, &mut pos)?;
    let ids = decode_delta(data, &mut pos)?;
    let watermarks = decode_delta(data, &mut pos)?;
    let win_nos = decode_delta(data, &mut pos)?;
    let hints = decode_varints(data, &mut pos)?;
    let epochs = decode_delta(data, &mut pos)?;
    let reasons = decode_huffman(data, &mut pos)?;
    // Trailing checkpoint columns: absent (end of payload) in both
    // checkpoint-free and pre-checkpoint payloads.
    let (ckpt_seqs, ckpt_hashes) = if pos < data.len() {
        (decode_delta(data, &mut pos)?, decode_varints(data, &mut pos)?)
    } else {
        (Vec::new(), Vec::new())
    };
    if tags.len() != n || timestamps.len() != n {
        return Err(CodecError("column length mismatch"));
    }
    let mut out = Vec::with_capacity(n);
    let (mut id_i, mut wm_i, mut win_i, mut op_i, mut cnt_i, mut hint_i) = (0, 0, 0, 0, 0, 0);
    let (mut epoch_i, mut reason_i, mut ckpt_i) = (0, 0, 0);
    let next_id = |id_i: &mut usize| -> Result<UArrayRef, CodecError> {
        let v = *ids.get(*id_i).ok_or(CodecError("missing id column value"))?;
        *id_i += 1;
        Ok(UArrayRef(v as u32))
    };
    for (&tag, &ts) in tags.iter().zip(&timestamps) {
        let ts_ms = ts as u32;
        let rec = match tag {
            TAG_INGRESS_DATA => {
                AuditRecord::Ingress { ts_ms, data: DataRef::UArray(next_id(&mut id_i)?) }
            }
            TAG_INGRESS_WM => {
                let wm = *watermarks.get(wm_i).ok_or(CodecError("missing watermark"))?;
                wm_i += 1;
                AuditRecord::Ingress { ts_ms, data: DataRef::Watermark(wm as u32) }
            }
            TAG_EGRESS => AuditRecord::Egress { ts_ms, data: next_id(&mut id_i)? },
            TAG_WINDOWING => {
                let input = next_id(&mut id_i)?;
                let output = next_id(&mut id_i)?;
                let win_no = *win_nos.get(win_i).ok_or(CodecError("missing window number"))?;
                win_i += 1;
                AuditRecord::Windowing { ts_ms, input, win_no: win_no as u16, output }
            }
            TAG_EXECUTION => {
                let lo = *ops.get(op_i).ok_or(CodecError("missing op code"))?;
                let hi = *ops_hi.get(op_i).ok_or(CodecError("missing op code hi"))?;
                op_i += 1;
                let op = PrimitiveKind::from_code(u16::from_le_bytes([lo, hi]))
                    .ok_or(CodecError("unknown op code"))?;
                let n_in = *counts.get(cnt_i).ok_or(CodecError("missing count"))? as usize;
                let n_out = *counts.get(cnt_i + 1).ok_or(CodecError("missing count"))? as usize;
                let n_hint = *counts.get(cnt_i + 2).ok_or(CodecError("missing count"))? as usize;
                cnt_i += 3;
                let mut inputs = PortList::new();
                for _ in 0..n_in {
                    inputs.push(next_id(&mut id_i)?);
                }
                let mut outputs = PortList::new();
                for _ in 0..n_out {
                    outputs.push(next_id(&mut id_i)?);
                }
                let mut h = Vec::with_capacity(n_hint);
                for _ in 0..n_hint {
                    h.push(*hints.get(hint_i).ok_or(CodecError("missing hint"))?);
                    hint_i += 1;
                }
                AuditRecord::Execution { ts_ms, op, inputs, outputs, hints: h }
            }
            TAG_REKEY => {
                let epoch = *epochs.get(epoch_i).ok_or(CodecError("missing epoch"))?;
                epoch_i += 1;
                AuditRecord::Rekey { ts_ms, epoch: epoch as u32 }
            }
            TAG_DEPARTURE => {
                let code = *reasons.get(reason_i).ok_or(CodecError("missing reason"))?;
                reason_i += 1;
                let reason =
                    DepartureReason::from_code(code).ok_or(CodecError("unknown reason code"))?;
                AuditRecord::Departure { ts_ms, reason }
            }
            TAG_CKPT_SEALED | TAG_CKPT_RESUMED => {
                let seq = *ckpt_seqs.get(ckpt_i).ok_or(CodecError("missing checkpoint seq"))?;
                let words = ckpt_hashes
                    .get(ckpt_i * 4..ckpt_i * 4 + 4)
                    .ok_or(CodecError("missing checkpoint hash"))?;
                ckpt_i += 1;
                let mut hash = [0u8; 32];
                for (chunk, word) in hash.chunks_exact_mut(8).zip(words) {
                    chunk.copy_from_slice(&word.to_le_bytes());
                }
                AuditRecord::Checkpoint { ts_ms, seq, resumed: tag == TAG_CKPT_RESUMED, hash }
            }
            _ => return Err(CodecError("unknown record tag")),
        };
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `TAG_SLEN` is a copy of the static Tags table's code lengths so
    /// `append` can cost the tags column with one array index; the two must
    /// never drift apart.
    #[test]
    fn tag_slen_mirrors_static_tags_table() {
        for (tag, &len) in TAG_SLEN.iter().enumerate() {
            assert_eq!(
                huffman::static_code_len(huffman::StaticTable::Tags, tag as u8) as u64,
                len,
                "TAG_SLEN[{tag}] disagrees with the static Tags table"
            );
        }
    }

    #[test]
    fn adversarial_huffman_length_is_an_error_not_a_panic() {
        // Record count, then a huffman block claiming u64::MAX bytes: the
        // length + position must not wrap around the bounds check.
        let mut data = Vec::new();
        varint::write_u64(3, &mut data);
        varint::write_u64(u64::MAX, &mut data);
        assert!(decompress_records(&data).is_err());
    }

    #[test]
    fn overflowing_v1_deltas_are_an_error_not_a_panic() {
        // Four empty Huffman blocks, then a timestamp column whose two
        // deltas of 2⁶² sum past i64::MAX.
        let mut data = vec![0];
        for _ in 0..4 {
            data.extend_from_slice(&[6, 0, 0, 0, 0, 0, 0]);
        }
        for v in [2, varint::zigzag(1 << 62), varint::zigzag(1 << 62)] {
            varint::write_u64(v, &mut data);
        }
        assert_eq!(decompress_records(&data), Err(CodecError("delta out of range")));
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
        assert_eq!(compressed[0..2], FORMAT_V2_PREFIX);
        assert_eq!(compressed[2], FORMAT_VERSION_STREAMING);
        let decompressed = decompress_records(&compressed).unwrap();
        assert_eq!(decompressed, records);
    }

    #[test]
    fn streaming_encoder_is_reusable_across_seals() {
        let mut enc = ColumnarEncoder::new();
        // Cover every record variant: `append` inlines each variant's
        // row-format size (for speed), and this equality pins those
        // literals to `AuditRecord::raw_size` / `row_len`.
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
    fn checkpoint_records_round_trip_in_both_formats() {
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
        // v1: the captured payload's sealed/resumed pair, hash intact.
        let v1_checkpoints: Vec<AuditRecord> = decompress_records(V1_FIXTURE)
            .unwrap()
            .into_iter()
            .filter(|r| matches!(r, AuditRecord::Checkpoint { .. }))
            .collect();
        assert_eq!(
            v1_checkpoints,
            [
                AuditRecord::Checkpoint { ts_ms: 7, seq: 0, resumed: false, hash: hash_a },
                AuditRecord::Checkpoint { ts_ms: 9, seq: 0, resumed: true, hash: hash_a },
            ]
        );
    }

    /// Payloads captured from the last v1 encoder: one with every record
    /// kind, one checkpoint-free (see `tests/common/mod.rs` for the records
    /// they decode to).
    const V1_FIXTURE: &[u8] = include_bytes!("../tests/fixtures/v1_segment.bin");
    const V1_CHECKPOINT_FREE: &[u8] = include_bytes!("../tests/fixtures/v1_checkpoint_free.bin");

    #[test]
    fn checkpoint_free_v1_payload_keeps_the_legacy_layout() {
        // The trailing checkpoint columns were written only when checkpoint
        // records existed: a checkpoint-free payload ends at the reasons
        // column, and an empty pair of checkpoint columns changes nothing.
        let records = decompress_records(V1_CHECKPOINT_FREE).unwrap();
        assert!(!records.iter().any(|r| matches!(r, AuditRecord::Checkpoint { .. })));
        let mut with_columns = V1_CHECKPOINT_FREE.to_vec();
        with_columns.extend_from_slice(&[0, 0]);
        assert_eq!(decompress_records(&with_columns).unwrap(), records);
        // The all-kinds payload carries them.
        let with_ckpt = decompress_records(V1_FIXTURE).unwrap();
        assert!(with_ckpt.iter().any(|r| matches!(r, AuditRecord::Checkpoint { .. })));
    }

    #[test]
    fn empty_batch_round_trips_in_both_formats() {
        // The v1 empty payload, by hand: a zero record count, four empty
        // legacy Huffman blocks (length 6: count u32, present u16), six
        // empty numeric columns, one more empty block. Its `[0x00, 0x06]`
        // opening is what makes the version prefix unambiguous.
        let empty_block = [6, 0, 0, 0, 0, 0, 0];
        let mut v1 = vec![0x00];
        for _ in 0..4 {
            v1.extend_from_slice(&empty_block);
        }
        v1.extend_from_slice(&[0; 6]);
        v1.extend_from_slice(&empty_block);
        assert_eq!(v1[..2], [0x00, 0x06]);
        assert_eq!(decompress_records(&v1).unwrap(), Vec::<AuditRecord>::new());

        let streaming = compress_records_streaming(&[]);
        assert_eq!(decompress_records(&streaming).unwrap(), Vec::<AuditRecord>::new());
    }

    #[test]
    fn unsupported_future_version_is_an_error() {
        let data = [FORMAT_V2_PREFIX[0], FORMAT_V2_PREFIX[1], 0x77, 0x00];
        assert_eq!(
            decompress_records(&data).unwrap_err(),
            CodecError("unsupported format version")
        );
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        let records = sample_records(20);
        let compressed = compress_records_streaming(&records);
        // Truncations at various points must not panic.
        for cut in [0, 1, 5, compressed.len() / 2, compressed.len() - 1] {
            let _ = decompress_records(&compressed[..cut]);
        }
        // Bit flips must either fail or decode to *something* without panic.
        let mut flipped = compressed.clone();
        flipped[10] ^= 0xFF;
        let _ = decompress_records(&flipped);
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
        // Every 64-bit value is a hint the record can carry; v3's hint
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

    /// A hand-built v3 payload of one `Sort` execution record with the
    /// given counts column and numeric stream.
    fn one_execution_v3(counts: &[u8], nums: &[u64]) -> Vec<u8> {
        let mut payload = FORMAT_V2_PREFIX.to_vec();
        payload.push(FORMAT_VERSION_STREAMING);
        varint::write_u64(1, &mut payload);
        for (column, table) in [
            (&[TAG_EXECUTION][..], huffman::StaticTable::Tags),
            (&[PrimitiveKind::Sort.code() as u8], huffman::StaticTable::Ops),
            (counts, huffman::StaticTable::Counts),
            (&[], huffman::StaticTable::Reasons),
        ] {
            huffman::encode_block_v2(column, Some(table), &mut payload);
        }
        varint::write_u64(0, &mut payload); // no ops-hi pairs
        let mut stream = Vec::new();
        for &v in nums {
            varint::write_u64(v, &mut stream);
        }
        varint::write_u64(stream.len() as u64, &mut payload);
        payload.extend_from_slice(&stream);
        payload
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
        // An escaped hint count claiming 2⁶⁰ hints in a three-word stream.
        let mut counts = vec![COUNTS_ESCAPE, 1, 1];
        varint::write_u64(1 << 60, &mut counts);
        assert_eq!(
            decompress_records(&one_execution_v3(&counts, &[0, 2, 4])),
            Err(CodecError("truncated numeric stream"))
        );
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
