//! LEB128-style variable-length integer encoding used by the columnar codec.
//!
//! Delta-encoded columns produce mostly small magnitudes; varints turn those
//! into one-byte symbols, which is where most of the compression ratio of
//! the domain-specific codec comes from.

/// Append an unsigned varint to `out`. The one-byte case — the vast
/// majority of delta-coded audit columns — is a single push on the hot
/// path; longer encodings go through the word-at-a-time store of
/// `encode_u64`.
#[inline]
pub fn write_u64(value: u64, out: &mut Vec<u8>) {
    if value < 0x80 {
        out.push(value as u8);
        return;
    }
    let (word, len) = encode_u64(value);
    if len <= 8 {
        // One 8-byte store, then trim: no per-byte capacity checks.
        let start = out.len();
        out.extend_from_slice(&word.to_le_bytes());
        out.truncate(start + len);
    } else {
        write_u64_tail(value, out);
    }
}

/// Encode `value` into a little-endian word of varint bytes, returning the
/// word and the encoded length. Only valid for encodings of at most 8 bytes
/// (`value < 2^56`); longer values return `(0, 9)` and must take the scalar
/// tail. This is the encoder mirror of the word-at-a-time decode in
/// [`read_u64`]: spread the 7-bit groups across the word's bytes, then OR in
/// the continuation bits of every byte but the last.
#[inline]
pub(crate) fn encode_u64(value: u64) -> (u64, usize) {
    if value >> 56 != 0 {
        return (0, 9);
    }
    debug_assert!(value >= 0x80);
    // value >= 0x80, so bit length is in 8..=56 and len in 2..=8.
    let len = (64 - value.leading_zeros() as usize).div_ceil(7);
    let mut w = value & 0x7F;
    w |= (value >> 7 & 0x7F) << 8;
    w |= (value >> 14 & 0x7F) << 16;
    w |= (value >> 21 & 0x7F) << 24;
    w |= (value >> 28 & 0x7F) << 32;
    w |= (value >> 35 & 0x7F) << 40;
    w |= (value >> 42 & 0x7F) << 48;
    w |= (value >> 49 & 0x7F) << 56;
    // Continuation bits on bytes 0..len-1.
    w |= 0x0080_8080_8080_8080u64 >> (8 * (8 - len));
    (w, len)
}

/// Byte-at-a-time tail for 9–10-byte encodings (values of 57+ bits), which
/// the word path cannot hold.
#[cold]
fn write_u64_tail(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Byte-at-a-time reference encoder: the differential baseline the
/// word-at-a-time [`write_u64`] is tested against (mirror of
/// [`read_u64_scalar`] on the decode side).
#[cfg(test)]
fn write_u64_scalar(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an unsigned varint from `data` starting at `pos`, advancing `pos`.
/// Returns `None` on truncated input.
///
/// The decode is word-at-a-time: away from the buffer's tail, an 8-byte
/// little-endian load finds the terminator with one continuation-bit scan
/// (`!w & 0x80…80`, count trailing zeros) and extracts all 7-bit groups
/// from the loaded word — no per-byte bounds checks or branches. The
/// verifier's column decode spends most of its time here, on 1–2-byte
/// deltas, which the fast paths cover entirely; encodings longer than
/// 8 bytes and reads near the end of the buffer take the scalar loop.
#[inline]
pub fn read_u64(data: &[u8], pos: &mut usize) -> Option<u64> {
    let p = *pos;
    // One-byte varints dominate delta-coded columns; keep them branch-lean.
    let first = *data.get(p)?;
    if first & 0x80 == 0 {
        *pos = p + 1;
        return Some(first as u64);
    }
    if let Some(window) = data.get(p..p + 8) {
        let w = u64::from_le_bytes(window.try_into().unwrap());
        let stops = !w & 0x8080_8080_8080_8080;
        if stops != 0 {
            // The terminator's byte index is the first clear continuation
            // bit; everything after it belongs to the next varint.
            let len = (stops.trailing_zeros() / 8) as usize + 1;
            let keep = w & (u64::MAX >> (64 - 8 * len));
            let mut value = 0u64;
            for i in 0..len {
                value |= ((keep >> (8 * i)) & 0x7F) << (7 * i);
            }
            *pos = p + len;
            return Some(value);
        }
    }
    read_u64_scalar(data, pos)
}

/// Byte-at-a-time reference decode, also the tail/overlong fallback of
/// [`read_u64`]. Encodings whose payload would shift past bit 63 return
/// `None` (the writer never produces more than ten bytes).
fn read_u64_scalar(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        value |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// ZigZag-encode a signed delta so small negative values stay small.
#[inline]
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_are_one_byte() {
        let mut out = Vec::new();
        write_u64(0, &mut out);
        write_u64(1, &mut out);
        write_u64(127, &mut out);
        assert_eq!(out.len(), 3);
        write_u64(128, &mut out);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn truncated_input_returns_none() {
        let mut out = Vec::new();
        write_u64(u64::MAX, &mut out);
        let mut pos = 0;
        assert!(read_u64(&out[..out.len() - 1], &mut pos).is_none());
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_codes() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(zigzag(-123456)), -123456);
    }

    proptest! {
        #[test]
        fn round_trip(v in any::<u64>()) {
            let mut out = Vec::new();
            write_u64(v, &mut out);
            let mut pos = 0;
            prop_assert_eq!(read_u64(&out, &mut pos), Some(v));
            prop_assert_eq!(pos, out.len());
        }

        #[test]
        fn zigzag_round_trip(v in any::<i64>()) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }

        /// The word-at-a-time decode must agree with the byte-at-a-time
        /// reference on *arbitrary* bytes — including overlong encodings,
        /// garbage continuation runs and truncated tails — in both the
        /// decoded value and the cursor position.
        #[test]
        fn word_at_a_time_matches_scalar_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..64),
            start in 0usize..64,
        ) {
            let mut fast_pos = start.min(data.len());
            let mut slow_pos = fast_pos;
            let fast = read_u64(&data, &mut fast_pos);
            let slow = read_u64_scalar(&data, &mut slow_pos);
            prop_assert_eq!(fast, slow);
            prop_assert_eq!(fast_pos, slow_pos);
        }

        /// The word-at-a-time encode must produce byte-for-byte what the
        /// byte-at-a-time reference writes — across the 1-byte fast path,
        /// the 8-byte word store, and the 9–10-byte scalar tail — including
        /// when appending to a non-empty buffer.
        #[test]
        fn word_at_a_time_encode_matches_scalar(
            v in any::<u64>(),
            prefix in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            let mut fast = prefix.clone();
            let mut slow = prefix;
            write_u64(v, &mut fast);
            write_u64_scalar(v, &mut slow);
            prop_assert_eq!(fast, slow);
        }

        /// Boundary sweep: every encoded-length transition (7-bit group
        /// boundaries) agrees with the reference.
        #[test]
        fn encode_agrees_at_group_boundaries(shift in 0u32..64, delta in -2i64..=2) {
            let v = (1u128 << shift) as i128 + delta as i128;
            if (0..=u64::MAX as i128).contains(&v) {
                let v = v as u64;
                let mut fast = Vec::new();
                let mut slow = Vec::new();
                write_u64(v, &mut fast);
                write_u64_scalar(v, &mut slow);
                prop_assert_eq!(fast, slow);
            }
        }

        #[test]
        fn sequences_round_trip(values in proptest::collection::vec(any::<u64>(), 0..200)) {
            let mut out = Vec::new();
            for v in &values {
                write_u64(*v, &mut out);
            }
            let mut pos = 0;
            let mut decoded = Vec::new();
            while pos < out.len() {
                decoded.push(read_u64(&out, &mut pos).unwrap());
            }
            prop_assert_eq!(decoded, values);
        }
    }
}
