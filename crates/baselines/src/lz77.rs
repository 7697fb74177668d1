//! A general-purpose LZ77 + Huffman compressor used as the "gzip-like"
//! baseline in the Figure 12 comparison.
//!
//! The paper compares its domain-specific columnar codec against gzip on the
//! same audit-record byte streams and finds the columnar codec about 1.9×
//! better. This module provides an in-repo stand-in from the same algorithm
//! family as DEFLATE: greedy LZ77 matching over a 32 KiB window with a
//! hash-chain matcher, followed by an entropy pass over the token stream —
//! the audit codec's own entropy blocks, each token column fitted a
//! Huffman code of its own. It is not wire-compatible with gzip; only the
//! achieved ratio matters for the comparison.

use sbt_attest::huffman;

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
    // entropy block.
    let mut out = Vec::new();
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    for col in [&cols.flags, &cols.literals, &cols.offsets, &cols.lengths] {
        huffman::encode_block(col, None, &mut out);
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
        columns.push(huffman::decode_block(data, &mut pos, original_len)?);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
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
