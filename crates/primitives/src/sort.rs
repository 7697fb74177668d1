//! The Sort trusted primitive and its data-parallel kernel (§5).
//!
//! GroupBy-style operators in StreamBox-TZ are built on sort-merge rather
//! than hashing, so Sort dominates pipeline execution time. The paper
//! hand-writes ARMv8 NEON kernels for it; this reproduction keeps the same
//! design goals in portable Rust: exploit the fixed 32-bit key width, touch
//! memory strictly sequentially, and avoid per-element branching so the
//! compiler can keep the hot loops in wide registers.
//!
//! Concretely the kernel is a least-significant-digit counting sort over the
//! key bytes (radix 256): one sweep that builds every digit's histogram at
//! once, then one stable scatter per digit that actually varies (a digit
//! that is constant across the array — the high bytes of small keys — costs
//! nothing). It is the portable analogue of the paper's in-register NEON
//! sort in the sense that matters for the evaluation — it beats the general
//! comparison sorts (`qsort`, `std::sort`) that §9.3 swaps in, by a similar
//! margin.
//!
//! Events are sorted indirectly: the key (or value, or timestamp) is packed
//! with the element index into one `u64` (the histogram sweep rides along
//! with the packing), the packed array is sorted by the kernel, and the
//! events are gathered through the resulting permutation straight into the
//! output sink. This keeps the hot loop operating on flat machine words —
//! the essence of the paper's "array-based algorithms to suit TEE" decision.
//! The packed words and the scatter buffer are per-thread scratch (see
//! [`crate::scratch`]), so a sort allocates nothing of its own.

use crate::scratch::{with_scratch, Scratch};
use sbt_types::{infallible, Event, RecordSink};

/// Per-digit value counts of one byte position.
type Histogram = [usize; 256];

/// Sort a `u64` slice in place with the radix kernel (up to 8 byte-wide
/// passes; the vector's buffer may be exchanged for the thread's scratch
/// buffer of the same length).
pub fn vector_sort_u64(data: &mut Vec<u64>) {
    with_scratch(|scratch| radix_sort_by_bytes::<0, 8>(data, &mut scratch.spare));
}

/// LSD radix sort over byte positions `[LO, HI)` of each word. Sorting a
/// sub-range of bytes is what lets the event kernels sort by a 32-bit field
/// in at most four passes while remaining stable overall.
pub(crate) fn radix_sort_by_bytes<const LO: usize, const HI: usize>(
    data: &mut Vec<u64>,
    spare: &mut Vec<u64>,
) {
    let mut histograms = [[0usize; 256]; 8];
    for &v in data.iter() {
        for (byte, histogram) in histograms.iter_mut().enumerate().take(HI).skip(LO) {
            histogram[((v >> (byte * 8)) & 0xFF) as usize] += 1;
        }
    }
    scatter_by_digits(data, spare, &histograms[LO..HI], LO);
}

/// The scatter passes: `histograms[i]` counts the digits at byte position
/// `lo_byte + i` (counts do not depend on the order of the words, so all of
/// them can be taken before the first pass moves anything).
fn scatter_by_digits(
    data: &mut Vec<u64>,
    spare: &mut Vec<u64>,
    histograms: &[Histogram],
    lo_byte: usize,
) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    if spare.len() < n {
        spare.resize(n, 0);
    }
    let mut sorted_in_data = true;
    for (i, histogram) in histograms.iter().enumerate() {
        // One digit value holding every word: this byte orders nothing
        // (common for small key ranges, whose high bytes are all zero).
        if histogram.contains(&n) {
            continue;
        }
        let shift = ((lo_byte + i) * 8) as u32;
        // Exclusive prefix sum -> bucket start offsets.
        let mut starts = [0usize; 256];
        let mut offset = 0usize;
        for (start, count) in starts.iter_mut().zip(histogram) {
            *start = offset;
            offset += count;
        }
        let (src, dst): (&[u64], &mut [u64]) = if sorted_in_data {
            (&data[..], &mut spare[..n])
        } else {
            (&spare[..n], &mut data[..])
        };
        // Stable scatter.
        for &v in src {
            let digit = ((v >> shift) & 0xFF) as usize;
            dst[starts[digit]] = v;
            starts[digit] += 1;
        }
        sorted_in_data = !sorted_in_data;
    }
    if !sorted_in_data {
        // The result sits in the scratch buffer: exchange the buffers
        // instead of copying it back.
        std::mem::swap(data, spare);
        data.truncate(n);
    }
}

/// Pack a 32-bit sort key and a 32-bit payload (element index) into a `u64`
/// so that sorting the packed words by the key bytes sorts by key with a
/// stable tiebreak on the original position.
#[inline]
fn pack(key: u32, index: u32) -> u64 {
    ((key as u64) << 32) | index as u64
}

/// Sort events by grouping key (stable). This is the `Sort` primitive.
pub fn sort_events_by_key(events: &[Event]) -> Vec<Event> {
    sorted_vec(events, |e| e.key)
}

/// Sort events by value (stable). This is the `SortByValue` primitive.
pub fn sort_events_by_value(events: &[Event]) -> Vec<Event> {
    sorted_vec(events, |e| e.value)
}

/// Sort events by event time (stable). This is the `SortByTime` primitive.
pub fn sort_events_by_time(events: &[Event]) -> Vec<Event> {
    sorted_vec(events, |e| e.ts_ms)
}

fn sorted_vec(events: &[Event], field: impl Fn(&Event) -> u32) -> Vec<Event> {
    let mut out = Vec::with_capacity(events.len());
    infallible(sort_events_into(events, field, &mut out));
    out
}

/// The sort kernel: append `events`, stably ordered by `field`, to `sink`.
///
/// Pack `(field, index)` while counting the field's four digit histograms,
/// scatter by the digits that vary (the low 32 bits already carry the
/// original order, and the counting passes are stable), then gather the
/// events through the permutation into the sink.
pub fn sort_events_into<S: RecordSink<Event>>(
    events: &[Event],
    field: impl Fn(&Event) -> u32,
    sink: &mut S,
) -> Result<(), S::Error> {
    assert!(
        events.len() <= u32::MAX as usize,
        "uArray larger than 2^32 events cannot be index-packed"
    );
    with_scratch(|scratch| {
        let Scratch { packed, spare, .. } = scratch;
        packed.clear();
        packed.reserve(events.len());
        let mut histograms = [[0usize; 256]; 4];
        for (i, e) in events.iter().enumerate() {
            let f = field(e);
            for (byte, histogram) in histograms.iter_mut().enumerate() {
                histogram[((f >> (byte * 8)) & 0xFF) as usize] += 1;
            }
            packed.push(pack(f, i as u32));
        }
        // The field occupies byte positions 4..8 of the packed word.
        scatter_by_digits(packed, spare, &histograms, 4);
        for p in packed.iter() {
            sink.push(events[(p & 0xFFFF_FFFF) as usize])?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorts_empty_and_single() {
        let mut v: Vec<u64> = vec![];
        vector_sort_u64(&mut v);
        assert!(v.is_empty());
        let mut v = vec![42u64];
        vector_sort_u64(&mut v);
        assert_eq!(v, vec![42]);
    }

    #[test]
    fn sorts_small_and_unaligned_lengths() {
        for n in [2usize, 3, 7, 15, 16, 17, 31, 33, 100, 1000, 1023, 1025] {
            let mut v: Vec<u64> = (0..n as u64).rev().collect();
            vector_sort_u64(&mut v);
            let expected: Vec<u64> = (0..n as u64).collect();
            assert_eq!(v, expected, "length {n}");
        }
    }

    #[test]
    fn sorts_duplicates() {
        let mut v = vec![5u64, 3, 5, 1, 3, 3, 9, 0, 5];
        vector_sort_u64(&mut v);
        assert_eq!(v, vec![0, 1, 3, 3, 3, 5, 5, 5, 9]);
    }

    #[test]
    fn sorts_values_spanning_all_byte_positions() {
        let mut v = vec![u64::MAX, 0, 1 << 63, 1 << 32, 1 << 31, 255, 256, u64::MAX - 1];
        let mut expected = v.clone();
        expected.sort_unstable();
        vector_sort_u64(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn event_sort_by_key_is_stable() {
        // Two events with the same key keep their relative order.
        let events = vec![
            Event::new(2, 10, 0),
            Event::new(1, 20, 1),
            Event::new(2, 30, 2),
            Event::new(1, 40, 3),
        ];
        let sorted = sort_events_by_key(&events);
        assert_eq!(
            sorted,
            vec![
                Event::new(1, 20, 1),
                Event::new(1, 40, 3),
                Event::new(2, 10, 0),
                Event::new(2, 30, 2),
            ]
        );
    }

    #[test]
    fn event_sort_by_value_and_time() {
        let events = vec![Event::new(1, 30, 5), Event::new(2, 10, 9), Event::new(3, 20, 1)];
        let by_value: Vec<u32> = sort_events_by_value(&events).iter().map(|e| e.value).collect();
        assert_eq!(by_value, vec![10, 20, 30]);
        let by_time: Vec<u32> = sort_events_by_time(&events).iter().map(|e| e.ts_ms).collect();
        assert_eq!(by_time, vec![1, 5, 9]);
    }

    proptest! {
        #[test]
        fn kernel_matches_std_sort(mut v in proptest::collection::vec(any::<u64>(), 0..2000)) {
            let mut expected = v.clone();
            expected.sort_unstable();
            vector_sort_u64(&mut v);
            prop_assert_eq!(v, expected);
        }

        #[test]
        fn event_sort_matches_std_stable_sort(
            keys in proptest::collection::vec(any::<u32>(), 0..500),
        ) {
            let events: Vec<Event> = keys
                .iter()
                .enumerate()
                .map(|(i, k)| Event::new(*k, i as u32, i as u32))
                .collect();
            let mut expected = events.clone();
            expected.sort_by_key(|e| e.key);
            prop_assert_eq!(sort_events_by_key(&events), expected);
        }

        #[test]
        fn sort_is_a_permutation(v in proptest::collection::vec(any::<u64>(), 0..500)) {
            let mut sorted = v.clone();
            vector_sort_u64(&mut sorted);
            let mut a = v.clone();
            let mut b = sorted.clone();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
            prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
