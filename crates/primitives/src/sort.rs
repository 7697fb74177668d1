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
//! Events are sorted directly, in place: each scatter pass moves the
//! 12-byte events themselves between the array and a per-thread buffer of
//! events (see the crate's `scratch` module), and an odd number of passes
//! ends with one copy back. There is no packed `(field, index)` word and no gather through
//! a permutation, so a pass reads and writes memory strictly in order and
//! the scratch is 12 bytes per event. The array is rewritten where it lies,
//! which is what lets the data plane sort a consumed uArray in its own
//! pages; the `Vec`-returning functions copy their input and sort the copy
//! with the same kernel.

use crate::scratch::with_scratch;
use sbt_types::Event;

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
    let n = data.len();
    if n <= 1 {
        return;
    }
    let mut histograms = [[0usize; 256]; 8];
    for &v in data.iter() {
        for (byte, histogram) in histograms.iter_mut().enumerate().take(HI).skip(LO) {
            histogram[((v >> (byte * 8)) & 0xFF) as usize] += 1;
        }
    }
    if spare.len() < n {
        spare.resize(n, 0);
    }
    let mut sorted_in_data = true;
    for (byte, histogram) in histograms.iter().enumerate().take(HI).skip(LO) {
        // One digit value holding every word: this byte orders nothing
        // (common for small key ranges, whose high bytes are all zero).
        if histogram.contains(&n) {
            continue;
        }
        let (src, dst): (&[u64], &mut [u64]) = if sorted_in_data {
            (&data[..], &mut spare[..n])
        } else {
            (&spare[..n], &mut data[..])
        };
        scatter(src, dst, bucket_starts(histogram), |v| ((v >> (byte * 8)) & 0xFF) as usize);
        sorted_in_data = !sorted_in_data;
    }
    if !sorted_in_data {
        // The result sits in the scratch buffer: exchange the buffers
        // instead of copying it back.
        std::mem::swap(data, spare);
        data.truncate(n);
    }
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
    let mut out = events.to_vec();
    sort_events_in_place(&mut out, field);
    out
}

/// The sort kernel: order `events` stably by `field`, in place.
///
/// Count the field's four digit histograms in one sweep, then scatter the
/// events by each digit that varies (least significant first; each pass is
/// stable, so equal fields keep their order), ping-ponging between `events`
/// and this thread's scratch buffer, and copy back after an odd number of
/// passes.
pub fn sort_events_in_place(events: &mut [Event], field: impl Fn(&Event) -> u32) {
    let n = events.len();
    if n <= 1 {
        return;
    }
    let mut histograms = [[0usize; 256]; 4];
    for e in events.iter() {
        let f = field(e);
        for (byte, histogram) in histograms.iter_mut().enumerate() {
            histogram[((f >> (byte * 8)) & 0xFF) as usize] += 1;
        }
    }
    with_scratch(|scratch| {
        let spare = &mut scratch.events;
        if spare.len() < n {
            spare.resize(n, Event::default());
        }
        let spare = &mut spare[..n];
        let mut sorted_in_events = true;
        for (byte, histogram) in histograms.iter().enumerate() {
            // One digit value holding every event: this byte orders nothing.
            if histogram.contains(&n) {
                continue;
            }
            let starts = bucket_starts(histogram);
            let (src, dst): (&[Event], &mut [Event]) =
                if sorted_in_events { (events, spare) } else { (spare, events) };
            scatter(src, dst, starts, |e| ((field(e) >> (byte * 8)) & 0xFF) as usize);
            sorted_in_events = !sorted_in_events;
        }
        if !sorted_in_events {
            events.copy_from_slice(spare);
        }
    })
}

/// Exclusive prefix sums of a digit histogram: each digit's first slot.
fn bucket_starts(histogram: &Histogram) -> Histogram {
    let mut starts = [0usize; 256];
    let mut offset = 0usize;
    for (start, count) in starts.iter_mut().zip(histogram) {
        *start = offset;
        offset += count;
    }
    starts
}

/// One stable counting-sort pass: each record of `src` to the next free
/// slot of its digit's bucket in `dst`.
#[inline]
fn scatter<T: Copy>(src: &[T], dst: &mut [T], mut starts: Histogram, digit: impl Fn(&T) -> usize) {
    for v in src {
        let d = digit(v);
        dst[starts[d]] = *v;
        starts[d] += 1;
    }
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
            fields in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..2000),
            varying in 0u32..16,
        ) {
            // `varying` picks the bytes a field may vary in, so the kernel
            // runs 0 to 4 scatter passes (an odd count ends in the copy
            // back); few distinct values make ties, which must keep order.
            let mask = (0..4).filter(|b| varying >> b & 1 == 1).fold(0, |m, b| m | 0xFF << (b * 8));
            let events: Vec<Event> =
                fields.iter().map(|&(k, v, t)| Event::new(k & mask, v & mask, t & mask)).collect();
            let by: [fn(&Event) -> u32; 3] = [|e| e.key, |e| e.value, |e| e.ts_ms];
            for field in by {
                let mut expected = events.clone();
                expected.sort_by_key(field);
                let mut sorted = events.clone();
                sort_events_in_place(&mut sorted, field);
                prop_assert_eq!(sorted, expected);
            }
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
