//! Canonical Huffman coding over byte symbols — the audit codec's entropy
//! stage.
//!
//! The columnar codec entropy-codes the columns with skewed value
//! distributions (record tags, primitive op codes, field counts, §7) as
//! mode-tagged **entropy blocks** ([`encode_block`]/[`decode_block`]): a
//! column is stored as a single repeated byte, under its **precomputed
//! static table** (no header, no tree construction — the decoder ships the
//! same table), or raw. The trusted side never fits a code and never parses
//! a code-length header; a block of any other mode is refused.
//!
//! Every static code is at most [`ENC_MAX_CODE_LEN`] bits long. The encoder
//! emits through a 64-bit-buffer [`BitWriter`]; the [`Decoder`] resolves
//! every symbol with one lookup in a table indexed by the next 12 bits of
//! the stream.

/// A built Huffman code: per-symbol bit lengths and codes.
#[derive(Debug, Clone)]
pub struct HuffmanCode {
    lengths: [u8; 256],
    codes: [u64; 256],
}

/// Maximum code length: the static tables stay within it, and a code built
/// from untrusted lengths must too, so every symbol decodes through the
/// one-lookup table.
pub const ENC_MAX_CODE_LEN: u8 = 12;

/// Width of the decoder's lookup table: one access resolves any code.
const TABLE_BITS: u32 = ENC_MAX_CODE_LEN as u32;

// ---------------------------------------------------------------------------
// Bit I/O
// ---------------------------------------------------------------------------

/// MSB-first bit writer with a 64-bit accumulator, appending to a `Vec<u8>`.
pub struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    buf: u64,
    bits: u32,
}

impl<'a> BitWriter<'a> {
    /// Write bits to the end of `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter { out, buf: 0, bits: 0 }
    }

    /// Append the low `len` bits of `code`, most significant first.
    /// `len` must be at most 32.
    #[inline]
    pub fn put(&mut self, code: u64, len: u32) {
        debug_assert!(len <= 32);
        self.buf = (self.buf << len) | code;
        self.bits += len;
        if self.bits >= 32 {
            // Flush four whole bytes at once: a single u32 store every few
            // symbols. The 32-bit threshold leaves ≤ 31 bits buffered, so
            // the next put (≤ 32 bits) never overflows the accumulator.
            self.bits -= 32;
            let word = (self.buf >> self.bits) as u32;
            self.out.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Flush the trailing bytes (zero-padded low bits of the last one).
    pub fn finish(mut self) {
        while self.bits >= 8 {
            self.bits -= 8;
            self.out.push((self.buf >> self.bits) as u8);
        }
        if self.bits > 0 {
            self.out.push((self.buf << (8 - self.bits)) as u8);
        }
    }
}

/// MSB-first bit reader with a 64-bit buffer. Peeks past the end of input
/// return zero-padded bits; consuming past the end fails.
struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    buf: u64,
    bits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0, buf: 0, bits: 0 }
    }

    #[inline]
    fn refill(&mut self) {
        while self.bits <= 56 && self.pos < self.data.len() {
            self.buf = (self.buf << 8) | self.data[self.pos] as u64;
            self.pos += 1;
            self.bits += 8;
        }
    }

    /// The next `n` bits (1..=56) without consuming, zero-padded past the
    /// end of the stream.
    #[inline]
    fn peek(&mut self, n: u32) -> u64 {
        self.refill();
        let mask = (1u64 << n) - 1;
        if self.bits >= n {
            (self.buf >> (self.bits - n)) & mask
        } else {
            (self.buf << (n - self.bits)) & mask
        }
    }

    /// Consume `n` bits; `false` if the stream has fewer left.
    #[inline]
    fn consume(&mut self, n: u32) -> bool {
        if self.bits < n {
            self.refill();
            if self.bits < n {
                return false;
            }
        }
        self.bits -= n;
        true
    }
}

impl HuffmanCode {
    /// Build the canonical code implied by per-symbol code lengths, each at
    /// most [`ENC_MAX_CODE_LEN`] and together satisfying the Kraft
    /// inequality: oversubscribed lengths would assign codes that overflow
    /// their own bit width.
    pub fn from_lengths(lengths: [u8; 256]) -> Self {
        debug_assert!(lengths.iter().all(|&l| l <= ENC_MAX_CODE_LEN), "code longer than the limit");
        // Canonical assignment: sort symbols by (length, symbol).
        let mut symbols: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
        symbols.sort_by_key(|&s| (lengths[s], s));
        let mut codes = [0u64; 256];
        let mut code = 0u64;
        let mut prev_len = 0u8;
        for &s in &symbols {
            let len = lengths[s];
            code <<= (len - prev_len) as u32;
            codes[s] = code;
            code += 1;
            prev_len = len;
        }
        HuffmanCode { lengths, codes }
    }

    /// The per-symbol code lengths (the decoder header).
    pub fn lengths(&self) -> &[u8; 256] {
        &self.lengths
    }

    /// Encode `data` through `writer`, four symbols per `put` when their
    /// concatenated codes fit one put — for the short (1–3-bit) codes of
    /// the skewed audit columns this quarters the flush checks on the
    /// seal's hottest loop. Otherwise two puts of a pair each: codes are at
    /// most 12 bits, so a pair always fits. The bitstream is identical
    /// either way.
    #[inline]
    pub fn encode_into(&self, data: &[u8], writer: &mut BitWriter<'_>) {
        let mut quads = data.chunks_exact(4);
        for q in &mut quads {
            let (a, b, c, d) = (q[0] as usize, q[1] as usize, q[2] as usize, q[3] as usize);
            let (la, lb, lc, ld) = (
                self.lengths[a] as u32,
                self.lengths[b] as u32,
                self.lengths[c] as u32,
                self.lengths[d] as u32,
            );
            debug_assert!(la > 0 && lb > 0 && lc > 0 && ld > 0, "encoding symbol with no code");
            if la + lb + lc + ld <= 32 {
                let code = (((self.codes[a] << lb | self.codes[b]) << lc | self.codes[c]) << ld)
                    | self.codes[d];
                writer.put(code, la + lb + lc + ld);
            } else {
                writer.put((self.codes[a] << lb) | self.codes[b], la + lb);
                writer.put((self.codes[c] << ld) | self.codes[d], lc + ld);
            }
        }
        for &b in quads.remainder() {
            let len = self.lengths[b as usize] as u32;
            debug_assert!(len > 0, "encoding symbol with no code");
            writer.put(self.codes[b as usize], len);
        }
    }
}

// ---------------------------------------------------------------------------
// Table-driven decoding
// ---------------------------------------------------------------------------

/// A canonical Huffman decoder: one `(symbol, length)` lookup table indexed
/// by the next `table_bits` bits of the stream. Every code is at most
/// [`ENC_MAX_CODE_LEN`] bits, so one access resolves any symbol, and a
/// table miss is an invalid code.
pub struct Decoder {
    table_bits: u32,
    /// `(len << 8) | symbol`; 0 marks a bit pattern no code starts with.
    lut: Vec<u16>,
}

impl Decoder {
    /// Build the decode table for `code`, whose lengths must satisfy the
    /// Kraft inequality (see [`HuffmanCode::from_lengths`]).
    pub fn new(code: &HuffmanCode) -> Self {
        let max_len = code.lengths.iter().copied().max().unwrap_or(0) as u32;
        let table_bits = max_len.clamp(1, TABLE_BITS);
        let mut lut = vec![0u16; 1 << table_bits];
        for (s, &l) in code.lengths.iter().enumerate().filter(|&(_, &l)| l > 0) {
            let l = l as u32;
            let base = (code.codes[s] << (table_bits - l)) as usize;
            let span = 1usize << (table_bits - l);
            let entry = ((l as u16) << 8) | s as u16;
            // The range clamp is defense in depth: Kraft-valid lengths (the
            // documented precondition) can never exceed the table.
            let table_len = lut.len();
            let end = (base + span).min(table_len);
            for e in &mut lut[base.min(table_len)..end] {
                *e = entry;
            }
        }
        Decoder { table_bits, lut }
    }

    /// Decode `count` symbols from `data` into `out`. Returns `None` on
    /// truncated input or an invalid code.
    pub fn decode_into(&self, data: &[u8], count: usize, out: &mut Vec<u8>) -> Option<()> {
        out.reserve(count);
        let mut reader = BitReader::new(data);
        for _ in 0..count {
            let entry = self.lut[reader.peek(self.table_bits) as usize];
            if entry == 0 || !reader.consume((entry >> 8) as u32) {
                return None;
            }
            out.push(entry as u8);
        }
        Some(())
    }
}

// ---------------------------------------------------------------------------
// Static tables
// ---------------------------------------------------------------------------

/// Identifier of a precomputed static code table carried in entropy
/// blocks. The encoder and the verifier ship identical tables, so a block
/// using one needs no code header and no per-block tree construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticTable {
    /// Record-kind tags (alphabet 0..=8, ingress/execution-heavy skew).
    Tags = 0,
    /// Primitive op codes (a skewed code over 0..=31).
    Ops = 1,
    /// Port/hint count fields (tiny values, 1-heavy skew).
    Counts = 2,
    /// Departure reason codes (one bit each).
    Reasons = 3,
}

/// A static table's prepared encoder + decoder pair.
pub struct StaticEntry {
    /// The canonical code.
    pub code: HuffmanCode,
    /// The prebuilt decoder for it.
    pub decoder: Decoder,
}

fn static_lengths(id: u8) -> Option<[u8; 256]> {
    let mut lengths = [0u8; 256];
    match id {
        // Tags: ingress-data / windowing / execution dominate real streams;
        // egress is one per window; watermarks one per window; lifecycle
        // and checkpoint records are rare. Kraft-complete over the 9-symbol
        // alphabet.
        0 => {
            for (sym, len) in
                [(0u8, 2u8), (1, 4), (2, 3), (3, 2), (4, 2), (5, 6), (6, 6), (7, 6), (8, 6)]
            {
                lengths[sym as usize] = len;
            }
        }
        // Op codes: skewed toward the primitives real pipelines
        // execute constantly — Sort (one per partition of every window) and
        // Merge get the shortest codes, sorts-by, MergeK and aggregations
        // follow, plumbing and rare primitives get long codes. Merge and
        // MergeK are rare in today's traffic (a window's reduce reads its
        // sorted runs where they lie), but the lengths are wire format: a
        // block naming this table carries no header, so they cannot change.
        // Covers 0..=31 so any primitive encodes.
        1 => {
            for l in lengths.iter_mut().take(32) {
                *l = 9;
            }
            lengths[2] = 2; // Sort
            lengths[5] = 2; // Merge
            lengths[3] = 4; // SortByValue
            lengths[4] = 4; // SortByTime
            lengths[6] = 4; // MergeK
            lengths[8] = 4; // SumCnt
            lengths[9] = 4; // Sum
            for code in [10u8, 11, 16, 17, 18, 20, 24, 25] {
                // Count, CountPerKey, MinMax, Unique, TopK, FilterBand,
                // Concat, Join.
                lengths[code as usize] = 6;
            }
        }
        // Counts: packed `(inputs << 5) | (outputs << 2) | hints` bytes (the
        // columnar layout's counts column). Executions are overwhelmingly
        // 1-in/1-out with no hints; merges are 2-in/1-out; 0xFF is the
        // escape. A column holding any other shape is stored raw.
        2 => {
            for (sym, len) in [
                (0x24u8, 1u8), // 1 in, 1 out, 0 hints
                (0x44, 2),     // 2 in, 1 out (merge)
                (0x28, 4),     // 1 in, 2 out
                (0x25, 4),     // 1 in, 1 out, 1 hint
                (0x45, 5),     // 2 in, 1 out, 1 hint
                (0x64, 5),     // 3 in, 1 out
                (0x84, 6),     // 4 in, 1 out
                (0x20, 6),     // 1 in, 0 out (sink/filter-all)
                (0x26, 7),     // 1 in, 1 out, 2 hints
                (0xFF, 7),     // escape: the three counts follow in full
            ] {
                lengths[sym as usize] = len;
            }
        }
        // Departure reasons: drained / evicted, one bit each.
        3 => {
            lengths[0] = 1;
            lengths[1] = 1;
        }
        _ => return None,
    }
    Some(lengths)
}

/// Look up a static table by id. Tables are built once per process.
pub fn static_table(id: u8) -> Option<&'static StaticEntry> {
    use std::sync::LazyLock;
    static TABLES: LazyLock<Vec<StaticEntry>> = LazyLock::new(|| {
        (0..4u8)
            .map(|id| {
                let code =
                    HuffmanCode::from_lengths(static_lengths(id).expect("static id in range"));
                let decoder = Decoder::new(&code);
                StaticEntry { code, decoder }
            })
            .collect()
    });
    TABLES.get(id as usize)
}

// ---------------------------------------------------------------------------
// Entropy blocks
// ---------------------------------------------------------------------------

const MODE_RAW: u8 = 0;
const MODE_CONST: u8 = 1;
const MODE_STATIC: u8 = 2;

/// Largest count a constant block may carry. The decoder enforces it (a
/// constant block's payload cannot bound `count` against adversarial
/// headers) and the encoder respects it symmetrically, storing absurdly
/// long constant columns like any other.
const CONST_MAX: usize = 1 << 24;

/// Encode a byte column as a self-delimiting entropy block, the mode chosen
/// by the first rule that applies:
/// 1. **constant** — one repeated symbol, at most `CONST_MAX` (2²⁴) of them;
/// 2. **static** — `table` covers the column and the block is smaller than
///    the raw one;
/// 3. otherwise **raw**.
///
/// Layout: `varint count`, then (for non-empty blocks) a mode byte:
/// * `0` raw — `count` verbatim bytes;
/// * `1` constant — one byte, repeated `count` times;
/// * `2` static — table-id byte, `varint byte_len`, bitstream.
pub fn encode_block(data: &[u8], table: StaticTable, out: &mut Vec<u8>) {
    crate::varint::write_u64(data.len() as u64, out);
    let Some(&first) = data.first() else {
        return;
    };
    if data.len() <= CONST_MAX && data.iter().all(|&b| b == first) {
        out.extend_from_slice(&[MODE_CONST, first]);
        return;
    }
    let code = &static_table(table as u8).expect("static table ids are exhaustive").code;
    if let Some(bits) = code_bits(code, data) {
        let bytes = bits.div_ceil(8);
        // Mode and table-id bytes, the bitstream's length and the bitstream,
        // against the raw block's mode byte and column.
        if 2 + varint_len(bytes) + (bytes as usize) < 1 + data.len() {
            out.extend_from_slice(&[MODE_STATIC, table as u8]);
            crate::varint::write_u64(bytes, out);
            let mut writer = BitWriter::new(out);
            code.encode_into(data, &mut writer);
            writer.finish();
            return;
        }
    }
    out.push(MODE_RAW);
    out.extend_from_slice(data);
}

/// The bits `code` spends on `data`, or `None` if it cannot express a
/// symbol of it.
fn code_bits(code: &HuffmanCode, data: &[u8]) -> Option<u64> {
    let mut bits = 0u64;
    for &b in data {
        match code.lengths[b as usize] {
            0 => return None,
            len => bits += len as u64,
        }
    }
    Some(bits)
}

fn varint_len(v: u64) -> usize {
    ((64 - v.max(1).leading_zeros()) as usize).div_ceil(7)
}

/// Decode an entropy block written by [`encode_block`], advancing `pos`.
/// Returns `None` on corrupt or truncated input, on a mode other than raw,
/// constant or static, and on a block of more than `max_count` symbols —
/// checked before anything is materialised, so a caller that knows how
/// many symbols can be there bounds what a forged count costs.
pub fn decode_block(data: &[u8], pos: &mut usize, max_count: usize) -> Option<Vec<u8>> {
    let count = crate::varint::read_u64(data, pos)?;
    if count > max_count as u64 {
        return None;
    }
    let count = count as usize;
    if count == 0 {
        return Some(Vec::new());
    }
    let mode = *data.get(*pos)?;
    *pos += 1;
    match mode {
        MODE_RAW => {
            let end = pos.checked_add(count)?;
            if end > data.len() {
                return None;
            }
            let out = data[*pos..end].to_vec();
            *pos = end;
            Some(out)
        }
        MODE_CONST => {
            // A constant block's payload cannot bound `count`, so cap the
            // materialized size against adversarial headers (real segments
            // hold a few hundred records); the encoder never exceeds it.
            if count > CONST_MAX {
                return None;
            }
            let value = *data.get(*pos)?;
            *pos += 1;
            Some(vec![value; count])
        }
        MODE_STATIC => {
            let id = *data.get(*pos)?;
            *pos += 1;
            let entry = static_table(id)?;
            let bytes = crate::varint::read_u64(data, pos)? as usize;
            let end = pos.checked_add(bytes)?;
            if end > data.len() || count > bytes.saturating_mul(8) {
                return None;
            }
            let mut out = Vec::with_capacity(count);
            entry.decoder.decode_into(&data[*pos..end], count, &mut out)?;
            *pos = end;
            Some(out)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TABLES: [StaticTable; 4] =
        [StaticTable::Tags, StaticTable::Ops, StaticTable::Counts, StaticTable::Reasons];

    /// The bitstream of `data` under `code`.
    fn bits(code: &HuffmanCode, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut writer = BitWriter::new(&mut out);
        code.encode_into(data, &mut writer);
        writer.finish();
        out
    }

    /// Decode one whole block with no count limit; `None` if it fails or
    /// leaves bytes over.
    fn decode(block: &[u8]) -> Option<Vec<u8>> {
        let mut pos = 0;
        let out = decode_block(block, &mut pos, usize::MAX)?;
        (pos == block.len()).then_some(out)
    }

    /// The entropy block of `data` under `table`.
    fn block(data: &[u8], table: StaticTable) -> Vec<u8> {
        let mut out = Vec::new();
        encode_block(data, table, &mut out);
        out
    }

    /// The mode byte of a non-empty block.
    fn mode(block: &[u8]) -> u8 {
        let mut pos = 0;
        crate::varint::read_u64(block, &mut pos).unwrap();
        block[pos]
    }

    /// An entropy block under the two-symbol reasons table, which leaves
    /// most columns constant or raw.
    fn v2_block(data: &[u8]) -> Vec<u8> {
        block(data, StaticTable::Reasons)
    }

    #[test]
    fn skewed_data_compresses_well() {
        // 90% one-in/one-out counts, some merges and forks: the static
        // counts table spends ~1.1 bits per symbol.
        let mut data = vec![0x24u8; 9000];
        data.extend(std::iter::repeat_n(0x44u8, 900));
        data.extend(std::iter::repeat_n(0x28u8, 100));
        let compressed = block(&data, StaticTable::Counts);
        assert!(compressed.len() < data.len() / 6, "{} vs {}", compressed.len(), data.len());
        assert_eq!(decode(&compressed).unwrap(), data);
    }

    #[test]
    fn empty_and_single_symbol_blocks() {
        assert_eq!(decode(&[0]).unwrap(), Vec::<u8>::new());

        let data = vec![42u8; 100];
        let block = v2_block(&data);
        assert_eq!(block, [100, MODE_CONST, 42], "one repeated symbol is a constant block");
        assert_eq!(decode(&block).unwrap(), data);
    }

    #[test]
    fn two_symbol_block() {
        let data: Vec<u8> = (0..100).map(|i| if i % 3 == 0 { 1 } else { 0 }).collect();
        let block = block(&data, StaticTable::Reasons);
        assert_eq!(mode(&block), MODE_STATIC);
        assert_eq!(decode(&block).unwrap(), data);
    }

    #[test]
    fn truncated_input_fails_gracefully() {
        let data: Vec<u8> = (0..64).map(|i| [0u8, 3, 4, 2][i % 4]).collect();
        let block = block(&data, StaticTable::Tags);
        assert_eq!(mode(&block), MODE_STATIC);
        for cut in 0..block.len() {
            assert_eq!(decode_block(&block[..cut], &mut 0, usize::MAX), None, "cut at {cut}");
        }
        assert_eq!(decode(&block).unwrap(), data);
    }

    #[test]
    fn header_overhead_is_small_for_tiny_alphabets() {
        // A two-symbol column of 1000 entries must compress to well under
        // 200 bytes: a static block carries no code header at all, which is
        // what makes small audit batches compressible.
        let data: Vec<u8> = (0..1000).map(|i| (i % 2) as u8).collect();
        let compressed = block(&data, StaticTable::Reasons);
        assert!(compressed.len() < 200, "{}", compressed.len());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        for table in TABLES {
            let code = &static_table(table as u8).unwrap().code;
            let active: Vec<usize> = (0..256).filter(|&s| code.lengths[s] > 0).collect();
            for &a in &active {
                for &b in &active {
                    let (la, lb) = (code.lengths[a] as u32, code.lengths[b] as u32);
                    if a != b && la <= lb {
                        let prefix = code.codes[b] >> (lb - la);
                        assert_ne!(prefix, code.codes[a], "{table:?}: {a} is a prefix of {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_block_longer_than_its_caller_allows_is_rejected() {
        for block in [v2_block(&[7; 40]), v2_block(&(0..40).collect::<Vec<u8>>())] {
            assert_eq!(decode_block(&block, &mut 0, 40).unwrap().len(), 40);
            assert_eq!(decode_block(&block, &mut 0, 39), None);
        }
    }

    /// Mode 3 — a fitted code with its length header — is not a block the
    /// decoder reads, however well formed: here a one-bit code over two
    /// symbols, as an encoder with fitted codes would have written it. Nor
    /// is any mode past it.
    #[test]
    fn a_mode_3_block_is_refused() {
        let fitted = [4, 3, 1, 0, 1, 1, 1, 1, 0b0110_0000];
        for mode in [3u8, 4, 0x7F, 0xFF] {
            let mut block = fitted;
            block[1] = mode;
            assert_eq!(decode_block(&block, &mut 0, usize::MAX), None, "mode {mode}");
        }
    }

    /// A mode-3 block in the old fitted-code layout: count 4, then
    /// `present - 1`, `(symbol, length)` pairs, a bit count and the bits.
    fn fitted_block(pairs: &[(u8, u8)], bits: &[u8]) -> Vec<u8> {
        let mut block = Vec::new();
        crate::varint::write_u64(4, &mut block);
        block.push(3);
        block.push(pairs.len() as u8 - 1);
        for &(s, l) in pairs {
            block.extend_from_slice(&[s, l]);
        }
        crate::varint::write_u64(bits.len() as u64, &mut block);
        block.extend_from_slice(bits);
        block
    }

    #[test]
    fn a_13_bit_length_in_a_dynamic_header_is_rejected() {
        // Symbol 0 one bit long, symbols 1 and 2 thirteen bits long: a valid
        // prefix code, but no header of lengths is read any more, whatever
        // they are. Every cut of the block is refused too.
        let block = fitted_block(&[(0, 1), (1, 13), (2, 13)], &[0b0100_0000, 0, 0b0000_0100, 0]);
        for cut in 0..=block.len() {
            assert_eq!(decode_block(&block[..cut], &mut 0, usize::MAX), None, "cut at {cut}");
        }
    }

    #[test]
    fn oversubscribed_length_headers_are_rejected_not_panicking() {
        // Three symbols all claiming code length 1 violate the Kraft
        // inequality; so do 1, 1, 2, 2. An untrusted header of either kind
        // must come back as None, never as a panic.
        for pairs in [&[(0, 1), (1, 1), (2, 1)][..], &[(0, 1), (1, 1), (2, 2), (3, 2)]] {
            let block = fitted_block(pairs, &[0b0101_0101]);
            assert_eq!(decode_block(&block, &mut 0, usize::MAX), None, "{pairs:?}");
        }
    }

    #[test]
    fn v2_block_modes_cover_their_inputs() {
        // Constant column.
        let out = v2_block(&[9u8; 500]);
        assert!(out.len() < 8, "constant block should be a few bytes, got {}", out.len());
        assert_eq!(decode(&out).unwrap(), vec![9u8; 500]);

        // Static-table column (tags-like skew).
        let tags: Vec<u8> = (0..300).map(|i| [0u8, 3, 4, 4, 0, 2][i % 6]).collect();
        let out = block(&tags, StaticTable::Tags);
        assert!(out.len() < tags.len() / 2, "{} vs {}", out.len(), tags.len());
        assert_eq!(decode(&out).unwrap(), tags);

        // Incompressible column falls back to raw without exploding.
        let noise: Vec<u8> =
            (0..100u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let out = block(&noise, StaticTable::Tags);
        assert_eq!(mode(&out), MODE_RAW);
        assert!(out.len() <= noise.len() + 4);
        assert_eq!(decode(&out).unwrap(), noise);

        // Empty column.
        let out = block(&[], StaticTable::Counts);
        assert_eq!(decode(&out).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn a_column_the_static_table_fits_well_is_static_at_any_length() {
        // Three 2-bit tags in equal shares: static at any length, with no
        // tree built.
        for len in [300, 3000] {
            let tags: Vec<u8> = (0..len).map(|i| [0u8, 3, 4][i % 3]).collect();
            let out = block(&tags, StaticTable::Tags);
            let mut pos = 0;
            crate::varint::read_u64(&out, &mut pos);
            assert_eq!(out[pos..pos + 2], [MODE_STATIC, StaticTable::Tags as u8], "{len} symbols");
            assert_eq!(decode(&out).unwrap(), tags);
        }
    }

    /// The planner weighs a static block at its true size: after the count,
    /// a tags column of one 2-bit and `n − 1` 6-bit symbols is
    /// `3 + ⌈(6n − 4) / 8⌉` bytes coded against `1 + n` raw, so it is raw at
    /// 9 symbols (10 = 10) and static at 10 (10 < 11).
    #[test]
    fn static_is_chosen_exactly_when_it_is_smaller_than_raw() {
        for (n, want) in [(9, MODE_RAW), (10, MODE_STATIC)] {
            let mut tags = vec![5u8; n];
            tags[0] = 0;
            let out = block(&tags, StaticTable::Tags);
            assert_eq!(mode(&out), want, "{n} tags");
            assert_eq!(out.len(), 11, "{n} tags");
            assert_eq!(decode(&out).unwrap(), tags);
        }
    }

    #[test]
    fn v2_block_rejects_corruption_without_panicking() {
        let tags: Vec<u8> = (0..300).map(|i| [0u8, 3, 4, 4, 0, 2][i % 6]).collect();
        let out = block(&tags, StaticTable::Tags);
        for cut in 0..out.len() {
            let _ = decode_block(&out[..cut], &mut 0, usize::MAX);
        }
        for i in 0..out.len().min(16) {
            let mut flipped = out.clone();
            flipped[i] ^= 0xFF;
            let _ = decode_block(&flipped, &mut 0, usize::MAX);
        }
        // Unknown static table id.
        let mut bogus = Vec::new();
        crate::varint::write_u64(4, &mut bogus);
        bogus.extend_from_slice(&[MODE_STATIC, 99, 1, 0xAA]);
        assert_eq!(decode_block(&bogus, &mut 0, usize::MAX), None);
        // Adversarial huge count with no payload.
        let mut huge = Vec::new();
        crate::varint::write_u64(u64::MAX, &mut huge);
        huge.push(MODE_CONST);
        huge.push(1);
        assert_eq!(decode_block(&huge, &mut 0, usize::MAX), None);
    }

    #[test]
    fn static_tables_are_prefix_free_and_satisfy_kraft() {
        for id in 0..4u8 {
            let entry = static_table(id).unwrap();
            let lengths = entry.code.lengths();
            let kraft: f64 =
                lengths.iter().filter(|&&l| l > 0).map(|&l| (0.5f64).powi(l as i32)).sum();
            assert!(kraft <= 1.0 + 1e-12, "table {id} violates Kraft: {kraft}");
            // Round-trip every covered symbol.
            let covered: Vec<u8> = (0..=255u8).filter(|&s| lengths[s as usize] > 0).collect();
            let mut out = Vec::new();
            entry
                .decoder
                .decode_into(&bits(&entry.code, &covered), covered.len(), &mut out)
                .unwrap();
            assert_eq!(out, covered);
        }
        assert!(static_table(4).is_none());
    }

    proptest! {
        #[test]
        fn round_trip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            for table in TABLES {
                prop_assert_eq!(decode(&block(&data, table)).unwrap(), data.clone());
            }
        }

        #[test]
        fn round_trip_skewed(data in proptest::collection::vec(
            prop_oneof![9 => Just(0x24u8), 2 => Just(0x44u8), 1 => any::<u8>()], 0..3000)) {
            prop_assert_eq!(decode(&block(&data, StaticTable::Counts)).unwrap(), data);
        }

        #[test]
        fn v2_round_trip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            prop_assert_eq!(decode(&v2_block(&data)).unwrap(), data);
        }

        #[test]
        fn v2_round_trip_tagged(data in proptest::collection::vec(0u8..7, 0..3000)) {
            prop_assert_eq!(decode(&block(&data, StaticTable::Tags)).unwrap(), data);
        }
    }
}
