//! The Concat and Union primitives (§5, Table 2).
//!
//! Concat appends arrays back-to-back (used when combining per-worker output
//! partitions whose order does not matter); Union additionally merges two
//! key-sorted arrays while keeping them sorted, which is Concat followed by
//! a merge pass in the array-based design.

use crate::merge::merge_sorted_by_key;
use sbt_types::{infallible, Event, RecordSink};

/// Concatenate event arrays in order (the `Concat` primitive).
pub fn concat_events(parts: &[&[Event]]) -> Vec<Event> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(total);
    infallible(concat_events_into(parts, &mut out));
    out
}

/// The Concat kernel: append every part, in order, to `sink`.
pub fn concat_events_into<S: RecordSink<Event>>(
    parts: &[&[Event]],
    sink: &mut S,
) -> Result<(), S::Error> {
    parts.iter().try_for_each(|part| sink.extend_from_slice(part))
}

/// Union of two streams' key-sorted arrays, still sorted by key
/// (the `Union` primitive).
pub fn union_events(a: &[Event], b: &[Event]) -> Vec<Event> {
    merge_sorted_by_key(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn concat_preserves_order_and_contents() {
        let a = vec![Event::new(1, 1, 1), Event::new(2, 2, 2)];
        let b = vec![Event::new(3, 3, 3)];
        let c: Vec<Event> = vec![];
        let out = concat_events(&[&a, &b, &c]);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].key, 1);
        assert_eq!(out[2].key, 3);
        assert!(concat_events(&[]).is_empty());
    }

    #[test]
    fn union_keeps_key_order() {
        let a = vec![Event::new(1, 0, 0), Event::new(3, 0, 0)];
        let b = vec![Event::new(2, 0, 0), Event::new(4, 0, 0)];
        let keys: Vec<u32> = union_events(&a, &b).iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 2, 3, 4]);
    }

    proptest! {
        #[test]
        fn concat_length_is_sum(
            a in proptest::collection::vec(any::<u32>(), 0..100),
            b in proptest::collection::vec(any::<u32>(), 0..100),
        ) {
            let ea: Vec<Event> = a.iter().map(|v| Event::new(*v, 0, 0)).collect();
            let eb: Vec<Event> = b.iter().map(|v| Event::new(*v, 0, 0)).collect();
            prop_assert_eq!(concat_events(&[&ea, &eb]).len(), a.len() + b.len());
        }

        #[test]
        fn union_is_sorted_and_conserves_events(
            mut a in proptest::collection::vec(0u32..1000, 0..200),
            mut b in proptest::collection::vec(0u32..1000, 0..200),
        ) {
            a.sort_unstable();
            b.sort_unstable();
            let ea: Vec<Event> = a.iter().map(|k| Event::new(*k, 0, 0)).collect();
            let eb: Vec<Event> = b.iter().map(|k| Event::new(*k, 0, 0)).collect();
            let u = union_events(&ea, &eb);
            prop_assert_eq!(u.len(), a.len() + b.len());
            prop_assert!(u.windows(2).all(|w| w[0].key <= w[1].key));
        }
    }
}
