//! A general-purpose LZ77 + Huffman compressor used as the "gzip-like"
//! baseline in the Figure 12 comparison.
//!
//! The paper compares its domain-specific columnar codec against gzip on the
//! same audit-record byte streams and finds the columnar codec about 1.9×
//! better. This module provides an in-repo stand-in from the same algorithm
//! family as DEFLATE: greedy LZ77 matching over a 32 KiB window with a
//! hash-chain matcher, followed by an entropy pass over the token stream:
//! like a DEFLATE dynamic block, each token column is coded under a
//! canonical Huffman code fitted to it, length-limited to 12 bits, with the
//! code lengths in the column's header (or stored raw when that is
//! smaller). The canonical codes, bit writer and
//! table decoder are the audit codec's ([`sbt_attest::huffman`]); fitting a
//! code and parsing its header stay here, outside the trusted codec. It is
//! not wire-compatible with gzip; only the achieved ratio matters for the
//! comparison.

use sbt_attest::huffman::{BitWriter, Decoder, HuffmanCode, ENC_MAX_CODE_LEN};
use sbt_attest::varint;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 258;

/// Token stream layout: a flag byte per token (0 = literal, 1 = match),
/// literal bytes, and little-endian (offset: u16, len: u16) pairs, each in
/// its own column so Huffman can exploit their distributions.
#[derive(Default)]
struct TokenColumns {
    flags: Vec<u8>,
    literals: Vec<u8>,
    offsets: Vec<u8>,
    lengths: Vec<u8>,
}

/// Compress `data` with LZ77 + Huffman.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut cols = TokenColumns::default();
    // Hash chains: map 4-byte prefixes to recent positions.
    let mut head: Vec<i64> = vec![-1; 1 << 16];
    let mut prev: Vec<i64> = vec![-1; data.len().max(1)];
    let hash = |d: &[u8]| -> usize {
        let h = u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
        (h.wrapping_mul(2654435761) >> 16) as usize
    };

    let mut i = 0usize;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash(&data[i..]);
            let mut candidate = head[h];
            let mut chain = 0;
            while candidate >= 0 && chain < 32 {
                let c = candidate as usize;
                if i - c <= WINDOW {
                    let limit = (data.len() - i).min(MAX_MATCH);
                    let mut l = 0;
                    while l < limit && data[c + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_off = i - c;
                    }
                } else {
                    break;
                }
                candidate = prev[c];
                chain += 1;
            }
            // Insert current position into the chain.
            prev[i] = head[h];
            head[h] = i as i64;
        }

        if best_len >= MIN_MATCH {
            cols.flags.push(1);
            cols.offsets.extend_from_slice(&(best_off as u16).to_le_bytes());
            cols.lengths.extend_from_slice(&(best_len as u16).to_le_bytes());
            // Insert the skipped positions into the hash chains so later
            // matches can reference them.
            let end = i + best_len;
            let mut j = i + 1;
            while j < end && j + MIN_MATCH <= data.len() {
                let h = hash(&data[j..]);
                prev[j] = head[h];
                head[h] = j as i64;
                j += 1;
            }
            i = end;
        } else {
            cols.flags.push(0);
            cols.literals.push(data[i]);
            i += 1;
        }
    }

    // Serialize: original length, then each column as a self-delimiting
    // fitted block.
    let mut out = Vec::new();
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    for col in [&cols.flags, &cols.literals, &cols.offsets, &cols.lengths] {
        write_fitted(col, &mut out);
    }
    out
}

/// Decompress a buffer produced by [`compress`]. Returns `None` on corrupt
/// input.
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let original_len = u64::from_le_bytes(data.get(..8)?.try_into().ok()?) as usize;
    let mut pos = 8;
    let mut columns = Vec::new();
    for _ in 0..4 {
        // No column holds more symbols than the input has bytes.
        columns.push(read_fitted(data, &mut pos, original_len)?);
    }
    let (flags, literals, offsets, lengths) = (&columns[0], &columns[1], &columns[2], &columns[3]);

    let mut out = Vec::with_capacity(original_len);
    let (mut lit_i, mut off_i, mut len_i) = (0usize, 0usize, 0usize);
    for &flag in flags {
        if flag == 0 {
            out.push(*literals.get(lit_i)?);
            lit_i += 1;
        } else {
            if off_i + 2 > offsets.len() || len_i + 2 > lengths.len() {
                return None;
            }
            let off = u16::from_le_bytes([offsets[off_i], offsets[off_i + 1]]) as usize;
            let len = u16::from_le_bytes([lengths[len_i], lengths[len_i + 1]]) as usize;
            off_i += 2;
            len_i += 2;
            if off == 0 || off > out.len() {
                return None;
            }
            let start = out.len() - off;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    if out.len() != original_len {
        return None;
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Fitted Huffman blocks
// ---------------------------------------------------------------------------

/// A fitted block's mode byte: the column's bytes follow as they are.
const BLOCK_RAW: u8 = 0;
/// A fitted block's mode byte: a code-length header and a bitstream follow.
const BLOCK_FITTED: u8 = 1;

/// Write `data` as a fitted block: `varint count`, then for a non-empty
/// column either [`BLOCK_RAW`] and the bytes, or [`BLOCK_FITTED`],
/// `u8 present − 1`, `present × (symbol, code length)`, `varint byte_len`
/// and the column's bitstream under its fitted code — whichever is
/// smaller.
fn write_fitted(data: &[u8], out: &mut Vec<u8>) {
    varint::write_u64(data.len() as u64, out);
    if data.is_empty() {
        return;
    }
    let mut freqs = [0u64; 256];
    for &b in data {
        freqs[b as usize] += 1;
    }
    let code = HuffmanCode::from_lengths(fitted_lengths(&freqs));
    let lengths = code.lengths();
    let present: Vec<u8> = (0..=255u8).filter(|&s| lengths[s as usize] > 0).collect();
    let start = out.len();
    out.extend_from_slice(&[BLOCK_FITTED, (present.len() - 1) as u8]);
    for s in present {
        out.extend_from_slice(&[s, lengths[s as usize]]);
    }
    let bits: u64 = data.iter().map(|&b| lengths[b as usize] as u64).sum();
    varint::write_u64(bits.div_ceil(8), out);
    let mut writer = BitWriter::new(out);
    code.encode_into(data, &mut writer);
    writer.finish();
    if out.len() - start > data.len() {
        out.truncate(start);
        out.push(BLOCK_RAW);
        out.extend_from_slice(data);
    }
}

/// Read a block written by [`write_fitted`], advancing `pos`. `None` on
/// corrupt or truncated input, on a header whose lengths no prefix code
/// within [`ENC_MAX_CODE_LEN`] bits can have, and on more than `max_count`
/// symbols.
fn read_fitted(data: &[u8], pos: &mut usize, max_count: usize) -> Option<Vec<u8>> {
    let count = varint::read_u64(data, pos)?;
    if count > max_count as u64 {
        return None;
    }
    let count = count as usize;
    if count == 0 {
        return Some(Vec::new());
    }
    let mode = *data.get(*pos)?;
    *pos += 1;
    if mode == BLOCK_RAW {
        let raw = data.get(*pos..pos.checked_add(count)?)?.to_vec();
        *pos += count;
        return Some(raw);
    } else if mode != BLOCK_FITTED {
        return None;
    }
    let present = *data.get(*pos)? as usize + 1;
    let header = data.get(*pos + 1..*pos + 1 + 2 * present)?;
    let mut lengths = [0u8; 256];
    for pair in header.chunks_exact(2) {
        lengths[pair[0] as usize] = pair[1];
    }
    if !kraft_valid(&lengths) {
        return None;
    }
    *pos += 1 + 2 * present;
    let bytes = varint::read_u64(data, pos)? as usize;
    let end = pos.checked_add(bytes)?;
    if end > data.len() || count > bytes.saturating_mul(8) {
        return None;
    }
    let decoder = Decoder::new(&HuffmanCode::from_lengths(lengths));
    let mut out = Vec::with_capacity(count);
    decoder.decode_into(&data[*pos..end], count, &mut out)?;
    *pos = end;
    Some(out)
}

/// Whether `lengths` are each at most [`ENC_MAX_CODE_LEN`] and satisfy the
/// Kraft inequality, so a canonical prefix code can assign them: an
/// oversubscribed header would assign codes that overflow their own width.
fn kraft_valid(lengths: &[u8; 256]) -> bool {
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

/// Code lengths fitted to `freqs` by Huffman's construction (a heap of
/// `(weight, node)`, ties to the lower node), then limited to
/// [`ENC_MAX_CODE_LEN`] bits.
fn fitted_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    let mut lengths = [0u8; 256];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..256).filter(|&s| freqs[s] > 0).map(|s| Reverse((freqs[s], s))).collect();
    if let [Reverse((_, only))] = heap.as_slice() {
        lengths[*only] = 1;
        return lengths;
    }
    // Nodes 0..256 are the symbols; each merge appends a node to `parent`.
    let mut parent = vec![usize::MAX; 256];
    while heap.len() > 1 {
        let Reverse((w1, a)) = heap.pop().expect("two nodes");
        let Reverse((w2, b)) = heap.pop().expect("two nodes");
        let node = parent.len();
        parent[a] = node;
        parent[b] = node;
        parent.push(usize::MAX);
        heap.push(Reverse((w1.saturating_add(w2), node)));
    }
    for s in (0..256).filter(|&s| freqs[s] > 0) {
        let mut node = s;
        while parent[node] != usize::MAX {
            lengths[s] += 1;
            node = parent[node];
        }
    }
    limit_code_lengths(&mut lengths);
    lengths
}

/// Clamp code lengths to [`ENC_MAX_CODE_LEN`] bits and restore the Kraft
/// inequality by demoting (lengthening) the deepest still-short codes until
/// the code is decodable again. Lengths of zero (absent symbols) are
/// untouched.
fn limit_code_lengths(lengths: &mut [u8; 256]) {
    let limit = ENC_MAX_CODE_LEN;
    if lengths.iter().all(|&l| l <= limit) {
        return;
    }
    for l in lengths.iter_mut() {
        *l = (*l).min(limit);
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_text_like_data() {
        let data: Vec<u8> =
            std::iter::repeat_n(b"the quick brown fox jumps over the lazy dog ".to_vec(), 50)
                .flatten()
                .collect();
        let compressed = compress(&data);
        assert!(compressed.len() < data.len() / 2);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn round_trip_empty_and_tiny() {
        for data in [vec![], vec![1u8], vec![1u8, 2, 3]] {
            let compressed = compress(&data);
            assert_eq!(decompress(&compressed).unwrap(), data);
        }
    }

    #[test]
    fn round_trip_incompressible_data() {
        // Pseudo-random bytes: compressor must still round-trip, even if the
        // output is not smaller.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn round_trip_overlapping_matches() {
        // Runs of a single byte force overlapping copies (off=1, len>off).
        let data = vec![7u8; 5000];
        let compressed = compress(&data);
        assert!(compressed.len() < 600);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn corrupt_input_returns_none() {
        let data = vec![42u8; 1000];
        let compressed = compress(&data);
        assert_eq!(decompress(&compressed[..compressed.len() / 2]), None);
        assert_eq!(decompress(&[]), None);
    }

    /// The fitted block of `data`, decoded whole; `None` if it fails or
    /// leaves bytes over.
    fn fitted_round_trip(data: &[u8]) -> Option<Vec<u8>> {
        let mut block = Vec::new();
        write_fitted(data, &mut block);
        let mut pos = 0;
        let out = read_fitted(&block, &mut pos, usize::MAX)?;
        (pos == block.len()).then_some(out)
    }

    /// A fitted block of four symbol-0s under a header that claims the
    /// given code lengths for symbols 0, 1 and 2.
    fn block_with_lengths(lengths: [u8; 3]) -> Vec<u8> {
        let mut block = vec![4, BLOCK_FITTED, 2];
        for (s, l) in lengths.into_iter().enumerate() {
            block.extend_from_slice(&[s as u8, l]);
        }
        block.extend_from_slice(&[1, 0]);
        block
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut freqs = [0u64; 256];
        for (i, f) in [50u64, 30, 10, 5, 3, 1, 1].iter().enumerate() {
            freqs[i] = *f;
        }
        let code = HuffmanCode::from_lengths(fitted_lengths(&freqs));
        // Each symbol's code, read off its own bitstream, as a bit string.
        let bit_string = |s: u8| {
            let mut out = Vec::new();
            let mut writer = BitWriter::new(&mut out);
            code.encode_into(&[s], &mut writer);
            writer.finish();
            let len = code.lengths()[s as usize] as usize;
            (0..len).map(|i| out[i / 8] >> (7 - i % 8) & 1).collect::<Vec<u8>>()
        };
        let codes: Vec<Vec<u8>> = (0..7).map(bit_string).collect();
        for (a, ca) in codes.iter().enumerate() {
            for (b, cb) in codes.iter().enumerate() {
                assert!(a == b || !cb.starts_with(ca), "code {a} is a prefix of {b}");
            }
        }
    }

    /// KAT: a block touching all 256 distinct symbols — including a
    /// Fibonacci-weighted skew that would drive an unlimited Huffman code
    /// far past the table width — still round-trips, and every emitted code
    /// respects the length limit.
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
        let lengths = fitted_lengths(&freqs);
        for (s, &l) in lengths.iter().enumerate() {
            assert!((1..=ENC_MAX_CODE_LEN).contains(&l), "symbol {s} got length {l}");
        }
        assert!(kraft_valid(&lengths));
        assert_eq!(fitted_round_trip(&data).unwrap(), data);
    }

    #[test]
    fn a_one_symbol_column_costs_a_bit_per_symbol() {
        assert_eq!(fitted_round_trip(&[]).unwrap(), Vec::<u8>::new());
        let mut block = Vec::new();
        write_fitted(&[42; 100], &mut block);
        assert_eq!(block[1..5], [BLOCK_FITTED, 0, 42, 1], "one present symbol, one bit long");
        assert_eq!(block.len(), 6 + 13);
        assert_eq!(fitted_round_trip(&[42; 100]).unwrap(), [42; 100]);
    }

    /// A header is untrusted input: a code longer than the decoder's table
    /// or lengths no prefix code can have are refused, never a panic.
    #[test]
    fn a_hostile_fitted_header_is_refused() {
        let decode = |block: &[u8]| read_fitted(block, &mut 0, usize::MAX);
        assert_eq!(decode(&block_with_lengths([1, 2, 2])).unwrap(), [0; 4]);
        assert_eq!(decode(&block_with_lengths([1, 12, 12])).unwrap(), [0; 4]);
        assert_eq!(decode(&block_with_lengths([1, 13, 13])), None, "a 13-bit code");
        assert_eq!(decode(&block_with_lengths([1, 1, 1])), None, "oversubscribed");
        assert_eq!(decode(&block_with_lengths([1, 1, 2])), None, "oversubscribed");
        let block = block_with_lengths([1, 2, 2]);
        for cut in 0..block.len() {
            assert_eq!(read_fitted(&block[..cut], &mut 0, usize::MAX), None, "cut at {cut}");
        }
        assert_eq!(read_fitted(&block, &mut 0, 3), None, "more symbols than allowed");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn fitted_blocks_round_trip(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            prop_assert_eq!(fitted_round_trip(&data).unwrap(), data);
        }

        #[test]
        fn skewed_fitted_blocks_round_trip(data in proptest::collection::vec(
            prop_oneof![9 => Just(0u8), 2 => Just(3u8), 1 => any::<u8>()], 0..3000)) {
            prop_assert_eq!(fitted_round_trip(&data).unwrap(), data);
        }

        #[test]
        fn round_trip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..5000)) {
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        #[test]
        fn round_trip_repetitive(
            chunk in proptest::collection::vec(any::<u8>(), 1..50),
            repeats in 1usize..100,
        ) {
            let data: Vec<u8> = std::iter::repeat_n(chunk.clone(), repeats).flatten().collect();
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }
    }
}
