//! Canonical Huffman coding over byte symbols — the audit codec's entropy
//! stage.
//!
//! The columnar codec entropy-codes the columns with skewed value
//! distributions (record tags, primitive op codes, field counts, §7) as
//! mode-tagged **entropy blocks** ([`encode_block`]/[`decode_block`]): a
//! column is stored raw, as a single repeated byte, under a **precomputed
//! static table** (no header, no tree construction — the decoder ships the
//! same table) or under a dynamic length-limited code. One planner,
//! [`encode_block_cached`], chooses among them from one frequency pass.
//!
//! Every code, fitted or static, is at most [`ENC_MAX_CODE_LEN`] bits long
//! (fitted codes are length-limited by a Kraft-sum fixup). The encoder
//! emits through a 64-bit-buffer [`BitWriter`]; the [`Decoder`] resolves
//! every symbol with one lookup in a table indexed by the next 12 bits of
//! the stream, and a block header carrying a longer code is rejected.

/// A built Huffman code: per-symbol bit lengths and codes.
#[derive(Debug, Clone)]
pub struct HuffmanCode {
    lengths: [u8; 256],
    codes: [u64; 256],
}

/// Maximum code length: the encoder length-limits every fitted code to it,
/// the static tables stay within it, and the decoder rejects anything
/// longer, so every symbol decodes through the one-lookup table.
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

// ---------------------------------------------------------------------------
// Code construction
// ---------------------------------------------------------------------------

/// Build canonical code lengths from symbol frequencies using the standard
/// two-queue/heap construction, then length-limit them to
/// [`ENC_MAX_CODE_LEN`] bits with a Kraft-sum fixup.
fn build_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    // Collect present symbols.
    let present: Vec<usize> = (0..256).filter(|&s| freqs[s] > 0).collect();
    let mut lengths = [0u8; 256];
    match present.len() {
        0 => return lengths,
        1 => {
            lengths[present[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    // Huffman tree via a simple binary heap of (weight, node).
    #[derive(Debug)]
    enum Node {
        Leaf(usize),
        Internal(Box<Node>, Box<Node>),
    }
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    // BinaryHeap needs Ord on the element; wrap weight and a tiebreaker.
    let mut heap: BinaryHeap<(Reverse<u64>, Reverse<u64>, usize)> = BinaryHeap::new();
    let mut nodes: Vec<Option<Node>> = Vec::new();
    let mut counter = 0u64;
    for &s in &present {
        nodes.push(Some(Node::Leaf(s)));
        heap.push((Reverse(freqs[s]), Reverse(counter), nodes.len() - 1));
        counter += 1;
    }
    while heap.len() > 1 {
        let (Reverse(w1), _, i1) = heap.pop().expect("heap has >1 element");
        let (Reverse(w2), _, i2) = heap.pop().expect("heap has >1 element");
        let left = nodes[i1].take().expect("node taken twice");
        let right = nodes[i2].take().expect("node taken twice");
        nodes.push(Some(Node::Internal(Box::new(left), Box::new(right))));
        heap.push((Reverse(w1.saturating_add(w2)), Reverse(counter), nodes.len() - 1));
        counter += 1;
    }
    let (_, _, root_idx) = heap.pop().expect("exactly one root remains");
    let root = nodes[root_idx].take().expect("root exists");
    // Walk the tree to get depths.
    fn walk(node: &Node, depth: u8, lengths: &mut [u8; 256]) {
        match node {
            Node::Leaf(s) => lengths[*s] = depth.max(1),
            Node::Internal(l, r) => {
                walk(l, depth + 1, lengths);
                walk(r, depth + 1, lengths);
            }
        }
    }
    walk(&root, 0, &mut lengths);
    limit_code_lengths(&mut lengths, ENC_MAX_CODE_LEN);
    lengths
}

/// Clamp code lengths to `limit` bits and restore the Kraft inequality by
/// demoting (lengthening) the deepest still-short codes until the code is
/// decodable again. Lengths of zero (absent symbols) are untouched.
fn limit_code_lengths(lengths: &mut [u8; 256], limit: u8) {
    let mut clamped = false;
    for l in lengths.iter_mut() {
        if *l > limit {
            *l = limit;
            clamped = true;
        }
    }
    if !clamped {
        return;
    }
    // Kraft sum in units of 2^-limit; a prefix-free code needs k <= budget.
    let unit = |l: u8| 1u64 << (limit - l) as u32;
    let budget = 1u64 << limit as u32;
    let mut k: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit(l)).sum();
    while k > budget {
        // Demote the longest code still below the limit: the cheapest
        // per-step reduction, guaranteed to exist while k exceeds budget
        // (256 symbols all at `limit` sum to 256 <= 2^limit for limit >= 8).
        let s = (0..256)
            .filter(|&s| lengths[s] > 0 && lengths[s] < limit)
            .max_by_key(|&s| lengths[s])
            .expect("kraft fixup always finds a demotable symbol");
        k -= unit(lengths[s]) / 2;
        lengths[s] += 1;
    }
}

impl HuffmanCode {
    /// Build a canonical, length-limited code from per-symbol frequencies.
    pub fn from_frequencies(freqs: &[u64; 256]) -> Self {
        let lengths = build_lengths(freqs);
        Self::from_lengths(lengths)
    }

    /// Build the canonical code implied by per-symbol code lengths, each at
    /// most [`ENC_MAX_CODE_LEN`]. Callers that accept untrusted headers must
    /// validate the lengths with [`kraft_valid`] first (see
    /// [`decode_block`]).
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

/// Whether `lengths` are all at most [`ENC_MAX_CODE_LEN`] and satisfy the
/// Kraft inequality — i.e. a canonical prefix-free code can actually assign
/// them. Untrusted code-length headers must pass this before a [`Decoder`]
/// is built: oversubscribed lengths would assign canonical codes that
/// overflow their own bit width.
pub fn kraft_valid(lengths: &[u8; 256]) -> bool {
    // Units of 2^-12: one symbol costs at most 2^11, 256 of them 2^19.
    let mut sum = 0u32;
    for &l in lengths.iter().filter(|&&l| l > 0) {
        if l > ENC_MAX_CODE_LEN {
            return false;
        }
        sum += 1 << (ENC_MAX_CODE_LEN - l);
    }
    sum <= 1 << ENC_MAX_CODE_LEN
}

impl Decoder {
    /// Build the decode table for `code`.
    ///
    /// The code's lengths must pass [`kraft_valid`] (always true for codes
    /// built by [`HuffmanCode::from_frequencies`] and for the static
    /// tables); callers holding *untrusted* length headers must check it
    /// first.
    pub fn new(code: &HuffmanCode) -> Self {
        debug_assert!(kraft_valid(&code.lengths), "decoder built from invalid lengths");
        let max_len = code.lengths.iter().copied().max().unwrap_or(0) as u32;
        let table_bits = max_len.clamp(1, TABLE_BITS);
        let mut lut = vec![0u16; 1 << table_bits];
        for (s, &l) in code.lengths.iter().enumerate().filter(|&(_, &l)| l > 0) {
            let l = l as u32;
            let base = (code.codes[s] << (table_bits - l)) as usize;
            let span = 1usize << (table_bits - l);
            let entry = ((l as u16) << 8) | s as u16;
            // The range clamp is defense in depth: Kraft-valid lengths
            // (the documented precondition) can never exceed the table.
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
    /// Primitive op codes, low byte (flat 5-bit code over 0..=31).
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
        // Op codes (low byte): skewed toward the primitives real pipelines
        // execute constantly — Sort (one per partition of every window) and
        // Merge get the shortest codes, sorts-by, MergeK and aggregations
        // follow, plumbing and rare primitives get long codes. Merge is
        // rare in today's traffic (a window gathers its partitions with one
        // k-way MergeK), but the lengths are wire format: a block naming
        // this table carries no header, so they cannot change.
        // Covers 0..=31 so any primitive encodes; ill-matched distributions
        // fall back to a fitted dynamic code.
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
        // columnar layout's counts column). Executions are overwhelmingly 1-in/1-out with
        // no hints; merges are 2-in/1-out; 0xFF is the spill escape. Columns
        // containing other shapes fall through to the dynamic path.
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
const MODE_DYNAMIC: u8 = 3;

/// Largest count a constant block may carry. The decoder enforces it (a
/// constant block's payload cannot bound `count` against adversarial
/// headers) and the encoder respects it symmetrically, planning absurdly
/// long constant columns like any other.
const CONST_MAX: usize = 1 << 24;

/// A recycled dynamic entropy code, reused across seals by
/// [`encode_block_cached`].
///
/// Fitting a Huffman code is the only seal-time cost that does not amortize
/// with column length: every large segment re-runs the heap-and-tree
/// construction per column even though consecutive segments of one stream
/// draw from near-identical symbol distributions. The cache keeps the last
/// fitted code; a seal reuses it whenever it still covers the column and
/// costs within ~2% of that column's entropy bound (checked in O(256) from
/// the frequency table), and refits — updating the cache — when the
/// distribution has drifted. Reuse changes only which lengths the block
/// header carries; decoders are oblivious.
#[derive(Default)]
pub struct CodeCache {
    code: Option<HuffmanCode>,
    /// Bits/symbol the cached code achieved on the column it was fitted to.
    fit_bps: f64,
    /// That column's entropy in bits/symbol, the fit-time optimum bound.
    fit_eps: f64,
}

/// Encode a byte column as a self-delimiting entropy block.
///
/// `static_id` names the [`StaticTable`] to try; [`encode_block_cached`]
/// documents how the mode is chosen.
///
/// Layout: `varint count`, then (for non-empty blocks) a mode byte:
/// * `0` raw — `count` verbatim bytes;
/// * `1` constant — one byte, repeated `count` times;
/// * `2` static — table-id byte, `varint byte_len`, bitstream;
/// * `3` dynamic — `present - 1` byte, `present` `(symbol, length)` pairs,
///   `varint byte_len`, bitstream.
pub fn encode_block(data: &[u8], static_id: Option<StaticTable>, out: &mut Vec<u8>) {
    encode_block_cached(data, static_id, &mut CodeCache::default(), out)
}

/// [`encode_block`] with a [`CodeCache`] — the one entropy planner.
///
/// One frequency pass over the column yields every plan's cost, and the
/// first rule that applies picks the block:
/// 1. **constant** — one repeated symbol, at most `CONST_MAX` (2²⁴) of them;
/// 2. **static fits well** — the static table covers the column at ≤ 2.5
///    bits/symbol and costs less than raw: no tree construction;
/// 3. **dynamic** — the cached code (when it still covers the column and
///    its distribution has not drifted) or a freshly fitted one, if it
///    costs less than raw and no more than static;
/// 4. otherwise **static** if it costs less than raw, else **raw**.
///
/// Reuse changes only which lengths a dynamic header carries; decoders are
/// oblivious to which rule ran.
pub fn encode_block_cached(
    data: &[u8],
    static_id: Option<StaticTable>,
    cache: &mut CodeCache,
    out: &mut Vec<u8>,
) {
    crate::varint::write_u64(data.len() as u64, out);
    if data.is_empty() {
        return;
    }
    let mut freqs = [0u64; 256];
    for &b in data {
        freqs[b as usize] += 1;
    }
    if freqs[data[0] as usize] == data.len() as u64 && data.len() <= CONST_MAX {
        out.push(MODE_CONST);
        out.push(data[0]);
        return;
    }
    let freq_cost = |lengths: &[u8; 256]| -> Option<u64> {
        let mut bits = 0u64;
        for (s, &f) in freqs.iter().enumerate() {
            if f > 0 {
                if lengths[s] == 0 {
                    return None; // a symbol the code cannot express
                }
                bits += f * lengths[s] as u64;
            }
        }
        Some(bits)
    };
    // Block size: mode byte, `header` bytes, the bitstream's varint length
    // and the bitstream.
    let coded_cost = |header: usize, bits: u64| {
        let bytes = bits.div_ceil(8);
        1 + header + varint_len(bytes) + bytes as usize
    };
    let raw_cost = 1 + data.len();
    let static_plan = static_id.and_then(|id| {
        let entry = static_table(id as u8).expect("static table ids are exhaustive");
        freq_cost(entry.code.lengths()).map(|bits| (id, entry, bits))
    });
    // A static block's header is its table-id byte. The cost counts one
    // byte more than that; the captured seals pin the choices it makes.
    let static_cost = static_plan.map_or(usize::MAX, |(_, _, bits)| coded_cost(2, bits));
    let write_static = |out: &mut Vec<u8>| {
        let (id, entry, bits) = static_plan.expect("static plan chosen");
        out.extend_from_slice(&[MODE_STATIC, id as u8]);
        write_bitstream(&entry.code, bits, data, out);
    };
    if static_plan.is_some_and(|(_, _, bits)| bits * 2 <= data.len() as u64 * 5)
        && static_cost < raw_cost
    {
        write_static(out);
        return;
    }

    // The dynamic code: reuse the cached fit when it still covers the
    // column and the distribution has not drifted — the test is O(256)
    // arithmetic on the frequency table, no tree construction. "Not
    // drifted" means the cached code still achieves the bits/symbol it
    // achieved on the column it was fitted to (so it has not gone stale),
    // and the column's entropy has not dropped below the fit-time optimum
    // bound (so a fresh fit could not do materially better). An absolute
    // near-entropy check also accepts, for distributions where integer
    // code lengths happen to sit close to the bound. Otherwise fit fresh
    // (and remember the new optimum for the next seal).
    let total = data.len() as f64;
    let entropy_bits: f64 =
        freqs.iter().filter(|&&f| f > 0).map(|&f| f as f64 * (total / f as f64).log2()).sum();
    let cached_fits = cache.code.as_ref().and_then(|c| freq_cost(&c.lengths)).is_some_and(|bits| {
        let bps = bits as f64 / total;
        let eps = entropy_bits / total;
        bits as f64 <= entropy_bits * 1.02 + 64.0
            || (bps <= cache.fit_bps * 1.02 + 1e-9 && eps >= cache.fit_eps * 0.98 - 0.01)
    });
    if !cached_fits {
        cache.code = Some(HuffmanCode::from_frequencies(&freqs));
        let fresh = cache.code.as_ref().expect("just stored");
        cache.fit_bps =
            freq_cost(&fresh.lengths).expect("fresh code covers the column") as f64 / total;
        cache.fit_eps = entropy_bits / total;
    }
    let dyn_code: &HuffmanCode = cache.code.as_ref().expect("fitted above");
    let present = dyn_code.lengths.iter().filter(|&&l| l > 0).count();
    let dyn_bits = freq_cost(&dyn_code.lengths).expect("dynamic code covers the column");
    let dynamic_cost = coded_cost(1 + 2 * present, dyn_bits);

    if dynamic_cost < raw_cost && dynamic_cost <= static_cost {
        out.push(MODE_DYNAMIC);
        out.push((present - 1) as u8);
        for (s, &l) in dyn_code.lengths.iter().enumerate() {
            if l > 0 {
                out.push(s as u8);
                out.push(l);
            }
        }
        write_bitstream(dyn_code, dyn_bits, data, out);
    } else if static_cost < raw_cost {
        write_static(out);
    } else {
        out.push(MODE_RAW);
        out.extend_from_slice(data);
    }
}

/// A coded block's tail: the bitstream's varint byte length (`bits` is
/// `code`'s cost over `data`), then the bitstream.
fn write_bitstream(code: &HuffmanCode, bits: u64, data: &[u8], out: &mut Vec<u8>) {
    crate::varint::write_u64(bits.div_ceil(8), out);
    let mut writer = BitWriter::new(out);
    code.encode_into(data, &mut writer);
    writer.finish();
}

fn varint_len(v: u64) -> usize {
    ((64 - v.max(1).leading_zeros()) as usize).div_ceil(7)
}

/// Decode an entropy block written by [`encode_block`], advancing `pos`.
/// Returns `None` on corrupt or truncated input, and on a block of more
/// than `max_count` symbols — checked before anything is materialised, so
/// a caller that knows how many symbols can be there bounds what a forged
/// count costs.
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
        MODE_DYNAMIC => {
            let present = *data.get(*pos)? as usize + 1;
            *pos += 1;
            let header_end = pos.checked_add(present * 2)?;
            if header_end > data.len() {
                return None;
            }
            let mut lengths = [0u8; 256];
            for i in 0..present {
                let sym = data[*pos + i * 2] as usize;
                let len = data[*pos + i * 2 + 1];
                if len == 0 {
                    return None;
                }
                lengths[sym] = len;
            }
            // Also rejects a length past `ENC_MAX_CODE_LEN`.
            if !kraft_valid(&lengths) {
                return None;
            }
            *pos = header_end;
            let bytes = crate::varint::read_u64(data, pos)? as usize;
            let end = pos.checked_add(bytes)?;
            if end > data.len() || count > bytes.saturating_mul(8) {
                return None;
            }
            let code = HuffmanCode::from_lengths(lengths);
            let decoder = Decoder::new(&code);
            let mut out = Vec::with_capacity(count);
            decoder.decode_into(&data[*pos..end], count, &mut out)?;
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

    /// The bitstream of `data` under `code`.
    fn bits(code: &HuffmanCode, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut writer = BitWriter::new(&mut out);
        code.encode_into(data, &mut writer);
        writer.finish();
        out
    }

    /// The code fitted to `data`'s symbol frequencies.
    fn fitted(data: &[u8]) -> HuffmanCode {
        let mut freqs = [0u64; 256];
        for &b in data {
            freqs[b as usize] += 1;
        }
        HuffmanCode::from_frequencies(&freqs)
    }

    /// A dynamic block laid out by hand, whichever mode the planner would
    /// pick: symbol count, mode, `present - 1`, one `(symbol, length)` pair
    /// per coded symbol, then the bitstream's length and the bitstream.
    fn dynamic_block(code: &HuffmanCode, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        crate::varint::write_u64(data.len() as u64, &mut out);
        if data.is_empty() {
            return out;
        }
        let present: Vec<u8> = (0..=255u8).filter(|&s| code.lengths[s as usize] > 0).collect();
        out.extend_from_slice(&[MODE_DYNAMIC, (present.len() - 1) as u8]);
        for s in present {
            out.extend_from_slice(&[s, code.lengths[s as usize]]);
        }
        let stream = bits(code, data);
        crate::varint::write_u64(stream.len() as u64, &mut out);
        out.extend_from_slice(&stream);
        out
    }

    /// Decode one whole block with no count limit; `None` if it fails or
    /// leaves bytes over.
    fn decode(block: &[u8]) -> Option<Vec<u8>> {
        let mut pos = 0;
        let out = decode_block(block, &mut pos, usize::MAX)?;
        (pos == block.len()).then_some(out)
    }

    /// An entropy block of `data` with no static table to lean on.
    fn v2_block(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_block(data, None, &mut out);
        out
    }

    #[test]
    fn skewed_data_compresses_well() {
        // 90% zeros, some other symbols: should compress far below 1 byte/sym.
        let mut data = vec![0u8; 9000];
        data.extend(std::iter::repeat_n(7u8, 900));
        data.extend(std::iter::repeat_n(200u8, 100));
        let compressed = v2_block(&data);
        assert!(compressed.len() < data.len() / 3, "{} vs {}", compressed.len(), data.len());
        assert_eq!(decode(&compressed).unwrap(), data);
    }

    #[test]
    fn empty_and_single_symbol_blocks() {
        assert_eq!(decode(&[0]).unwrap(), Vec::<u8>::new());

        let data = vec![42u8; 100];
        let block = dynamic_block(&fitted(&data), &data);
        assert_eq!(block[2..5], [0, 42, 1], "one present symbol, one bit long");
        assert_eq!(decode(&block).unwrap(), data);
    }

    #[test]
    fn two_symbol_block() {
        let data: Vec<u8> = (0..100).map(|i| if i % 3 == 0 { 1 } else { 2 }).collect();
        assert_eq!(decode(&dynamic_block(&fitted(&data), &data)).unwrap(), data);
    }

    #[test]
    fn truncated_input_fails_gracefully() {
        let data = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let block = dynamic_block(&fitted(&data), &data);
        for cut in 0..block.len() {
            assert_eq!(decode_block(&block[..cut], &mut 0, usize::MAX), None, "cut at {cut}");
        }
        assert_eq!(decode(&block).unwrap(), data);
    }

    #[test]
    fn header_overhead_is_small_for_tiny_alphabets() {
        // A two-symbol column of 1000 entries must compress to well under
        // 200 bytes — the sparse header is what makes small audit batches
        // compressible at all.
        let data: Vec<u8> = (0..1000).map(|i| (i % 2) as u8).collect();
        let compressed = v2_block(&data);
        assert!(compressed.len() < 200, "{}", compressed.len());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut freqs = [0u64; 256];
        for (i, f) in [50u64, 30, 10, 5, 3, 1, 1].iter().enumerate() {
            freqs[i] = *f;
        }
        let code = HuffmanCode::from_frequencies(&freqs);
        // Check no code is a prefix of another.
        let active: Vec<usize> = (0..256).filter(|&s| code.lengths[s] > 0).collect();
        for &a in &active {
            for &b in &active {
                if a == b {
                    continue;
                }
                let (la, lb) = (code.lengths[a] as u32, code.lengths[b] as u32);
                if la <= lb {
                    let prefix = code.codes[b] >> (lb - la);
                    assert_ne!(prefix, code.codes[a], "code {a} is a prefix of {b}");
                }
            }
        }
    }

    /// KAT: a block touching all 256 distinct symbols — including a
    /// Fibonacci-weighted skew that would drive an unlimited Huffman code
    /// far past the table width — still round-trips, and every emitted code
    /// respects the encoder's length limit.
    #[test]
    fn kat_256_distinct_symbols_round_trip_with_limited_lengths() {
        let mut data: Vec<u8> = (0..=255u8).collect();
        // Fibonacci frequencies for the first symbols: the worst case for
        // code depth.
        let (mut a, mut b) = (1u64, 1u64);
        for sym in 0..24u8 {
            for _ in 0..a.min(100_000) {
                data.push(sym);
            }
            let next = a + b;
            a = b;
            b = next;
        }
        let mut freqs = [0u64; 256];
        for &x in &data {
            freqs[x as usize] += 1;
        }
        let code = HuffmanCode::from_frequencies(&freqs);
        for s in 0..256 {
            assert!(
                code.lengths[s] <= ENC_MAX_CODE_LEN,
                "symbol {s} got length {}",
                code.lengths[s]
            );
        }
        assert_eq!(decode(&dynamic_block(&code, &data)).unwrap(), data);

        // The same column through the planner.
        assert_eq!(decode(&v2_block(&data)).unwrap(), data);
    }

    #[test]
    fn a_13_bit_length_in_a_dynamic_header_is_rejected() {
        // Symbol 0 one bit long, symbols 1 and 2 `deep` bits long: a valid
        // prefix code at any depth, but the decoder takes codes of at most
        // ENC_MAX_CODE_LEN bits.
        let block = |deep: u8| {
            let mut lengths = [0u8; 256];
            lengths[0] = 1;
            lengths[1] = ENC_MAX_CODE_LEN;
            lengths[2] = ENC_MAX_CODE_LEN;
            let code = HuffmanCode::from_lengths(lengths);
            let mut block = dynamic_block(&code, &[0, 1, 2, 0]);
            // The header pairs of symbols 1 and 2.
            block[6] = deep;
            block[8] = deep;
            block
        };
        assert_eq!(decode(&block(ENC_MAX_CODE_LEN)).unwrap(), [0, 1, 2, 0]);
        assert_eq!(decode_block(&block(ENC_MAX_CODE_LEN + 1), &mut 0, usize::MAX), None);
    }

    #[test]
    fn a_block_longer_than_its_caller_allows_is_rejected() {
        for block in [v2_block(&[7; 40]), v2_block(&(0..40).collect::<Vec<u8>>())] {
            assert_eq!(decode_block(&block, &mut 0, 40).unwrap().len(), 40);
            assert_eq!(decode_block(&block, &mut 0, 39), None);
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
        let mut out = Vec::new();
        encode_block(&tags, Some(StaticTable::Tags), &mut out);
        assert!(out.len() < tags.len() / 2, "{} vs {}", out.len(), tags.len());
        assert_eq!(decode(&out).unwrap(), tags);

        // Incompressible column falls back to raw without exploding.
        let noise: Vec<u8> =
            (0..100u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let mut out = Vec::new();
        encode_block(&noise, Some(StaticTable::Tags), &mut out);
        assert!(out.len() <= noise.len() + 4);
        assert_eq!(decode(&out).unwrap(), noise);

        // Empty column.
        let mut out = Vec::new();
        encode_block(&[], Some(StaticTable::Counts), &mut out);
        assert_eq!(decode(&out).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn a_column_the_static_table_fits_well_is_static_at_any_length() {
        // Three 2-bit tags in equal shares: a fitted code would spend 1.67
        // bits/symbol, but the static table's 2 fit well, so the planner
        // stops there and builds no tree, however long the column.
        for len in [300, 3000] {
            let tags: Vec<u8> = (0..len).map(|i| [0u8, 3, 4][i % 3]).collect();
            let mut out = Vec::new();
            encode_block(&tags, Some(StaticTable::Tags), &mut out);
            let mut pos = 0;
            crate::varint::read_u64(&out, &mut pos);
            assert_eq!(out[pos..pos + 2], [MODE_STATIC, StaticTable::Tags as u8], "{len} symbols");
            assert_eq!(decode(&out).unwrap(), tags);
        }
    }

    #[test]
    fn oversubscribed_length_headers_are_rejected_not_panicking() {
        // Three symbols all claiming code length 1 violate the Kraft
        // inequality: canonical assignment would give codes 0, 1, 2 — and 2
        // does not fit in one bit. An untrusted header must return None
        // instead of building a decoder (which would panic).
        let mut lengths = [0u8; 256];
        lengths[..3].fill(1);
        assert!(!kraft_valid(&lengths));
        lengths[2] = 2;
        lengths[3] = 2;
        assert!(!kraft_valid(&lengths)); // 1/2 + 1/2 + 1/4 + 1/4 > 1
        let mut ok = [0u8; 256];
        ok[0] = 1;
        ok[1] = 1;
        assert!(kraft_valid(&ok));

        // A dynamic block with the oversubscribed header.
        let mut block = Vec::new();
        crate::varint::write_u64(4, &mut block);
        block.push(MODE_DYNAMIC);
        block.push(2); // present - 1
        for s in 0..3u8 {
            block.push(s);
            block.push(1);
        }
        crate::varint::write_u64(1, &mut block);
        block.push(0b0101_0101);
        assert_eq!(decode_block(&block, &mut 0, usize::MAX), None);
    }

    #[test]
    fn v2_block_rejects_corruption_without_panicking() {
        let tags: Vec<u8> = (0..300).map(|i| [0u8, 3, 4, 4, 0, 2][i % 6]).collect();
        let mut out = Vec::new();
        encode_block(&tags, Some(StaticTable::Tags), &mut out);
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
    fn static_tables_are_prefix_free_and_kraft_valid() {
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
            let block = dynamic_block(&fitted(&data), &data);
            prop_assert_eq!(decode(&block).unwrap(), data);
        }

        #[test]
        fn round_trip_skewed(data in proptest::collection::vec(
            prop_oneof![9 => Just(0u8), 2 => Just(3u8), 1 => any::<u8>()], 0..3000)) {
            let block = dynamic_block(&fitted(&data), &data);
            prop_assert_eq!(decode(&block).unwrap(), data);
        }

        #[test]
        fn v2_round_trip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            prop_assert_eq!(decode(&v2_block(&data)).unwrap(), data);
        }

        #[test]
        fn v2_round_trip_tagged(data in proptest::collection::vec(0u8..7, 0..3000)) {
            let mut out = Vec::new();
            encode_block(&data, Some(StaticTable::Tags), &mut out);
            prop_assert_eq!(decode(&out).unwrap(), data);
        }
    }
}
