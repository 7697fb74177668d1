//! Typed storage for protected record arrays inside the TEE.
//!
//! Different primitives produce different record layouts (raw events, per-key
//! aggregates, key/value pairs, plain scalars). All of them are held in
//! uArrays; this module wraps the typed uArrays in one enum so the data
//! plane can keep a single reference table while every array stays a flat,
//! homogeneous buffer.

use sbt_types::{Event, KeyAgg, KeyValue};
use sbt_uarray::{TeePager, UArray, UArrayId};

use crate::error::DataPlaneError;

/// A protected record array of one of the layouts the primitives exchange.
#[derive(Debug)]
pub enum StoredData {
    /// Raw or derived events (12-byte layout).
    Events(UArray<Event>),
    /// Per-key aggregates (key, sum, count).
    Aggs(UArray<KeyAgg>),
    /// Key/value pairs (e.g. per-key results such as top-k entries).
    Pairs(UArray<KeyValue>),
    /// Plain 64-bit scalars (window totals, distinct keys, top-k values).
    Scalars(UArray<u64>),
}

/// A sealed uArray holding a copy of `records`.
fn sealed_copy<T: Copy>(
    id: UArrayId,
    records: &[T],
    pager: &TeePager,
) -> Result<UArray<T>, DataPlaneError> {
    let mut ua = UArray::with_reservation(id, records.len());
    ua.extend_from_slice(records, pager)?;
    ua.seal();
    Ok(ua)
}

impl StoredData {
    // The `from_*` constructors copy a slice the caller already holds
    // (restored checkpoint partitions, test fixtures). Primitive outputs are
    // never built this way: they are produced in place through a
    // `UArrayWriter` (see `DataPlane::produce`).

    /// Build an events array from a slice.
    pub fn from_events(
        id: UArrayId,
        events: &[Event],
        pager: &TeePager,
    ) -> Result<StoredData, DataPlaneError> {
        sealed_copy(id, events, pager).map(StoredData::Events)
    }

    /// Build an aggregate array from a slice.
    pub fn from_aggs(
        id: UArrayId,
        aggs: &[KeyAgg],
        pager: &TeePager,
    ) -> Result<StoredData, DataPlaneError> {
        sealed_copy(id, aggs, pager).map(StoredData::Aggs)
    }

    /// Build a key/value-pair array from a slice.
    pub fn from_pairs(
        id: UArrayId,
        pairs: &[KeyValue],
        pager: &TeePager,
    ) -> Result<StoredData, DataPlaneError> {
        sealed_copy(id, pairs, pager).map(StoredData::Pairs)
    }

    /// Build a scalar array from a slice.
    pub fn from_scalars(
        id: UArrayId,
        scalars: &[u64],
        pager: &TeePager,
    ) -> Result<StoredData, DataPlaneError> {
        sealed_copy(id, scalars, pager).map(StoredData::Scalars)
    }

    /// The internal uArray id.
    pub fn id(&self) -> UArrayId {
        match self {
            StoredData::Events(a) => a.id(),
            StoredData::Aggs(a) => a.id(),
            StoredData::Pairs(a) => a.id(),
            StoredData::Scalars(a) => a.id(),
        }
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        match self {
            StoredData::Events(a) => a.len(),
            StoredData::Aggs(a) => a.len(),
            StoredData::Pairs(a) => a.len(),
            StoredData::Scalars(a) => a.len(),
        }
    }

    /// Whether the array holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of secure memory committed for the array.
    pub fn committed_bytes(&self) -> u64 {
        match self {
            StoredData::Events(a) => a.committed_bytes(),
            StoredData::Aggs(a) => a.committed_bytes(),
            StoredData::Pairs(a) => a.committed_bytes(),
            StoredData::Scalars(a) => a.committed_bytes(),
        }
    }

    /// Simulated nanoseconds spent committing pages for the array.
    pub fn paging_nanos(&self) -> u64 {
        match self {
            StoredData::Events(a) => a.paging_nanos(),
            StoredData::Aggs(a) => a.paging_nanos(),
            StoredData::Pairs(a) => a.paging_nanos(),
            StoredData::Scalars(a) => a.paging_nanos(),
        }
    }

    /// View as events, or fail with a type error.
    pub fn as_events(&self) -> Result<&[Event], DataPlaneError> {
        match self {
            StoredData::Events(a) => Ok(a.as_slice()),
            _ => Err(DataPlaneError::BadArguments("expected an event array")),
        }
    }

    /// View as aggregates, or fail with a type error.
    pub fn as_aggs(&self) -> Result<&[KeyAgg], DataPlaneError> {
        match self {
            StoredData::Aggs(a) => Ok(a.as_slice()),
            _ => Err(DataPlaneError::BadArguments("expected an aggregate array")),
        }
    }

    /// View as key/value pairs, or fail with a type error.
    pub fn as_pairs(&self) -> Result<&[KeyValue], DataPlaneError> {
        match self {
            StoredData::Pairs(a) => Ok(a.as_slice()),
            _ => Err(DataPlaneError::BadArguments("expected a key/value array")),
        }
    }

    /// View as scalars, or fail with a type error.
    pub fn as_scalars(&self) -> Result<&[u64], DataPlaneError> {
        match self {
            StoredData::Scalars(a) => Ok(a.as_slice()),
            _ => Err(DataPlaneError::BadArguments("expected a scalar array")),
        }
    }

    /// Wire bytes per record of this layout (all fields little-endian).
    pub fn record_wire_bytes(&self) -> usize {
        match self {
            StoredData::Events(_) => sbt_types::EVENT_BYTES,
            StoredData::Aggs(_) => 20,
            StoredData::Pairs(_) => 12,
            StoredData::Scalars(_) => 8,
        }
    }

    /// Length of the array's egress wire form in bytes.
    pub fn wire_len(&self) -> usize {
        self.len() * self.record_wire_bytes()
    }

    /// Serialize the records covering wire bytes `[offset, offset +
    /// out.len())` straight into `out`. Both ends must fall on record
    /// boundaries. The egress sealer serializes chunk by chunk through
    /// this, so no buffer ever holds the whole plaintext.
    pub fn write_wire(&self, offset: usize, out: &mut [u8]) {
        let width = self.record_wire_bytes();
        assert!(
            offset.is_multiple_of(width) && out.len().is_multiple_of(width),
            "wire range must cover whole records"
        );
        let range = offset / width..(offset + out.len()) / width;
        match self {
            StoredData::Events(a) => {
                for (dst, r) in out.chunks_exact_mut(width).zip(&a.as_slice()[range]) {
                    dst[..4].copy_from_slice(&r.key.to_le_bytes());
                    dst[4..8].copy_from_slice(&r.value.to_le_bytes());
                    dst[8..].copy_from_slice(&r.ts_ms.to_le_bytes());
                }
            }
            StoredData::Aggs(a) => {
                for (dst, r) in out.chunks_exact_mut(width).zip(&a.as_slice()[range]) {
                    dst[..4].copy_from_slice(&r.key.to_le_bytes());
                    dst[4..12].copy_from_slice(&r.sum.to_le_bytes());
                    dst[12..].copy_from_slice(&r.count.to_le_bytes());
                }
            }
            StoredData::Pairs(a) => {
                for (dst, r) in out.chunks_exact_mut(width).zip(&a.as_slice()[range]) {
                    dst[..4].copy_from_slice(&r.key.to_le_bytes());
                    dst[4..].copy_from_slice(&r.value.to_le_bytes());
                }
            }
            StoredData::Scalars(a) => {
                for (dst, r) in out.chunks_exact_mut(width).zip(&a.as_slice()[range]) {
                    dst.copy_from_slice(&r.to_le_bytes());
                }
            }
        }
    }

    /// Serialize all records to a fresh buffer (the cloud side's view of an
    /// egressed result; egress itself streams through [`write_wire`]).
    ///
    /// [`write_wire`]: StoredData::write_wire
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.wire_len()];
        self.write_wire(0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbt_tz::{CostModel, SecureMemory, TzStats};
    use std::sync::Arc;

    fn pager() -> TeePager {
        TeePager::new(
            Arc::new(SecureMemory::new(1 << 24)),
            Arc::new(TzStats::new()),
            CostModel::hikey(),
        )
    }

    #[test]
    fn typed_views_enforce_layout() {
        let p = pager();
        let events = vec![Event::new(1, 2, 3)];
        let s = StoredData::from_events(UArrayId(1), &events, &p).unwrap();
        assert_eq!(s.id(), UArrayId(1));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.as_events().unwrap(), &events[..]);
        assert!(s.as_aggs().is_err());
        assert!(s.as_scalars().is_err());
        assert!(s.as_pairs().is_err());
    }

    #[test]
    fn all_layouts_round_trip() {
        let p = pager();
        let aggs = vec![KeyAgg::new(1, 10, 2)];
        let pairs = vec![KeyValue::new(3, 30)];
        let scalars = vec![7u64, 8, 9];
        assert_eq!(
            StoredData::from_aggs(UArrayId(2), &aggs, &p).unwrap().as_aggs().unwrap(),
            &aggs[..]
        );
        assert_eq!(
            StoredData::from_pairs(UArrayId(3), &pairs, &p).unwrap().as_pairs().unwrap(),
            &pairs[..]
        );
        assert_eq!(
            StoredData::from_scalars(UArrayId(4), &scalars, &p).unwrap().as_scalars().unwrap(),
            &scalars[..]
        );
    }

    #[test]
    fn wire_bytes_have_expected_sizes() {
        let p = pager();
        let events = vec![Event::new(1, 2, 3); 10];
        let s = StoredData::from_events(UArrayId(1), &events, &p).unwrap();
        assert_eq!(s.to_wire_bytes().len(), 10 * sbt_types::EVENT_BYTES);

        let aggs = vec![KeyAgg::new(1, 2, 3); 4];
        let s = StoredData::from_aggs(UArrayId(2), &aggs, &p).unwrap();
        assert_eq!(s.to_wire_bytes().len(), 4 * 20);

        let scalars = vec![1u64; 5];
        let s = StoredData::from_scalars(UArrayId(3), &scalars, &p).unwrap();
        assert_eq!(s.to_wire_bytes().len(), 5 * 8);
    }

    #[test]
    fn wire_ranges_concatenate_to_the_whole_for_every_layout() {
        let p = pager();
        let events: Vec<Event> = (0..50u32).map(|i| Event::new(i, i * 3, 1_000 + i)).collect();
        let aggs: Vec<KeyAgg> =
            (0..50u32).map(|i| KeyAgg::new(i, u64::MAX - i as u64, 7)).collect();
        let pairs: Vec<KeyValue> = (0..50u32).map(|i| KeyValue::new(i, (i as u64) << 33)).collect();
        let scalars: Vec<u64> = (0..50u64).map(|i| i * 0x0101_0101_0101).collect();
        for data in [
            StoredData::from_events(UArrayId(1), &events, &p).unwrap(),
            StoredData::from_aggs(UArrayId(2), &aggs, &p).unwrap(),
            StoredData::from_pairs(UArrayId(3), &pairs, &p).unwrap(),
            StoredData::from_scalars(UArrayId(4), &scalars, &p).unwrap(),
        ] {
            let whole = data.to_wire_bytes();
            assert_eq!(whole.len(), data.wire_len());
            // Three uneven record-aligned ranges rebuild the same bytes.
            let width = data.record_wire_bytes();
            let mut rebuilt = vec![0u8; whole.len()];
            for (from, to) in [(0, 7), (7, 8), (8, 50)] {
                data.write_wire(from * width, &mut rebuilt[from * width..to * width]);
            }
            assert_eq!(rebuilt, whole);
        }
        // Spot-check one layout against its field order.
        let agg = StoredData::from_aggs(UArrayId(5), &[KeyAgg::new(1, 2, 3)], &p).unwrap();
        let mut expect = 1u32.to_le_bytes().to_vec();
        expect.extend_from_slice(&2u64.to_le_bytes());
        expect.extend_from_slice(&3u64.to_le_bytes());
        assert_eq!(agg.to_wire_bytes(), expect);
    }

    #[test]
    fn committed_bytes_are_tracked() {
        let p = pager();
        let events = vec![Event::new(0, 0, 0); 10_000];
        let s = StoredData::from_events(UArrayId(1), &events, &p).unwrap();
        assert!(s.committed_bytes() >= (10_000 * sbt_types::EVENT_BYTES) as u64);
        assert_eq!(p.committed_bytes(), s.committed_bytes());
    }

    #[test]
    fn oom_surfaces_as_data_plane_error() {
        let tiny = TeePager::new(
            Arc::new(SecureMemory::new(4096)),
            Arc::new(TzStats::new()),
            CostModel::hikey(),
        );
        let events = vec![Event::new(0, 0, 0); 100_000];
        let err = StoredData::from_events(UArrayId(1), &events, &tiny).unwrap_err();
        assert_eq!(err, DataPlaneError::OutOfSecureMemory);
    }
}
