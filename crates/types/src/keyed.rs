//! Keyed intermediate and result record types.
//!
//! The trusted primitives operate over flat arrays of fixed-width records;
//! these are the record shapes that flow between primitives (e.g. the output
//! of `SumCnt` feeding `TopK`) and out of the pipeline egress.

use serde::{Deserialize, Serialize};

/// A `(key, value)` pair, e.g. one aggregate per key within a window.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[repr(C)]
pub struct KeyValue {
    /// Grouping key.
    pub key: u32,
    /// Value (aggregate or raw).
    pub value: u64,
}

impl KeyValue {
    /// Construct a key/value pair.
    pub fn new(key: u32, value: u64) -> Self {
        KeyValue { key, value }
    }
}

/// A per-key running aggregate: sum and count, from which averages are
/// derived without a second pass (the `SumCnt` primitive's output).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[repr(C)]
pub struct KeyAgg {
    /// Grouping key.
    pub key: u32,
    /// Sum of values for the key.
    pub sum: u64,
    /// Number of values for the key.
    pub count: u64,
}

impl KeyAgg {
    /// Construct a per-key aggregate.
    pub fn new(key: u32, sum: u64, count: u64) -> Self {
        KeyAgg { key, sum, count }
    }

    /// Average value for the key (integer division; zero count yields zero).
    pub fn avg(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Merge another aggregate for the same key into this one.
    pub fn merge(&mut self, other: &KeyAgg) {
        debug_assert_eq!(self.key, other.key, "merging aggregates of different keys");
        self.sum += other.sum;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_agg_avg_handles_zero_count() {
        assert_eq!(KeyAgg::new(1, 100, 0).avg(), 0);
        assert_eq!(KeyAgg::new(1, 100, 4).avg(), 25);
    }

    #[test]
    fn key_agg_merge_accumulates() {
        let mut a = KeyAgg::new(7, 10, 2);
        a.merge(&KeyAgg::new(7, 5, 1));
        assert_eq!(a, KeyAgg::new(7, 15, 3));
    }

    #[test]
    fn key_value_ordering_is_key_major() {
        assert!(KeyValue::new(1, 100) < KeyValue::new(2, 0));
    }
}
