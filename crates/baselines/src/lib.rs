//! Baseline engines and data structures for the StreamBox-TZ evaluation.
//!
//! The paper compares StreamBox-TZ against several other systems; none of
//! them can be run unmodified in this reproduction (they target the JVM, an
//! SGX cluster, or are closed source), so this crate provides simplified
//! engines that reproduce the architectural traits the paper attributes the
//! performance differences to:
//!
//! * [`commodity`] — "Flink-like" (hash-based grouping with per-event object
//!   and boxing overhead, parallel), "Esper-like" and "SensorBee-like"
//!   (single-threaded, per-event interpretation over dynamic tuples). These
//!   are the Figure 8 comparison points.
//! * [`growth`] — a relocating growable buffer mirroring `std::vector`
//!   semantics, used by the Figure 11 microbenchmark as the counterpart of
//!   the uArray's in-place growth.
//! * [`hash_engine`] — a windowed hash-based grouping core shared by the
//!   commodity baselines, also used to contrast memory behaviour with the
//!   uArray design (Flink's 3× memory in §9.2).
//! * [`lz77`] — a from-scratch LZ77 + Huffman ("gzip-like") compressor,
//!   the general-purpose codec Figure 12 compares the audit codec against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commodity;
pub mod growth;
pub mod hash_engine;
pub mod lz77;

pub use commodity::{CommodityEngine, CommodityKind};
pub use growth::RelocatingBuffer;
pub use hash_engine::HashWindowEngine;
