//! Lock-free span tracing.
//!
//! A [`Span`] is one timed, typed, tenant-tagged unit of pipeline work.
//! Workers record spans into sharded [`SpanRing`]s — bounded MPMC rings
//! (Vyukov-style sequence-stamped slots, expressed entirely in safe code
//! as atomic words) — and a collector drains them without ever stalling a
//! worker: when a ring is full the span is *dropped and counted*, never
//! waited on.
//!
//! The whole tracer is gated by one relaxed [`AtomicBool`]. Disabled,
//! [`Tracer::start`] and [`Tracer::record`] are a load + branch and do
//! not touch the clock; the `telemetry_gate` bench holds this to ≤3%
//! end-to-end throughput cost even with tracing *enabled*.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// What a span measured. Encoded in one byte inside the ring slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SpanKind {
    /// One ingested batch crossing the gateway into the TEE.
    IngestBatch,
    /// In-TEE decrypt of a delivered batch (duration is the modelled cost).
    Decrypt,
    /// One window fired by the engine (watermark-driven).
    WindowFire,
    /// Egress: sealing a result for the untrusted world.
    EgressSeal,
    /// One SMC world-switch round trip (enter + exit).
    Smc,
    /// Sealing one per-tenant checkpoint snapshot (payload: snapshot bytes).
    Checkpoint,
    /// Restoring a tenant from a sealed snapshot (payload: snapshot bytes).
    Restore,
}

impl SpanKind {
    fn from_code(code: u64) -> SpanKind {
        match code {
            0 => SpanKind::IngestBatch,
            1 => SpanKind::Decrypt,
            2 => SpanKind::WindowFire,
            3 => SpanKind::EgressSeal,
            5 => SpanKind::Checkpoint,
            6 => SpanKind::Restore,
            _ => SpanKind::Smc,
        }
    }

    fn code(self) -> u64 {
        match self {
            SpanKind::IngestBatch => 0,
            SpanKind::Decrypt => 1,
            SpanKind::WindowFire => 2,
            SpanKind::EgressSeal => 3,
            SpanKind::Smc => 4,
            SpanKind::Checkpoint => 5,
            SpanKind::Restore => 6,
        }
    }
}

/// Pack a [`SpanKind::Decrypt`] payload: the batch tag (low 32 bits of the
/// batch's uArray id) in the high word, the batch's event count in the low
/// word. Ingest records one `Decrypt` span per batch.
pub fn decrypt_span_payload(batch_tag: u64, events: u64) -> u64 {
    (batch_tag & 0xFFFF_FFFF) << 32 | (events & 0xFFFF_FFFF)
}

/// Unpack a [`SpanKind::Decrypt`] payload into `(batch_tag, events)`.
pub fn decrypt_span_parts(payload: u64) -> (u32, u32) {
    ((payload >> 32) as u32, payload as u32)
}

/// Which part of an egress seal a [`SpanKind::EgressSeal`] span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealStage {
    /// The whole egress call, wall time (recorded at the gateway).
    Call,
    /// One encrypt lane: CPU time spent serializing and encrypting chunks.
    Encrypt,
    /// The in-order MAC stage: CPU time spent absorbing ciphertext.
    Mac,
}

/// The byte-count field of an [`SpanKind::EgressSeal`] payload.
const SEAL_BYTES_MASK: u64 = (1 << 56) - 1;

/// Pack a [`SpanKind::EgressSeal`] payload: the stage in the top byte, the
/// bytes the stage processed below it. A plain byte count is a
/// [`SealStage::Call`] payload, which is what the gateway has always
/// recorded.
pub fn seal_span_payload(stage: SealStage, bytes: u64) -> u64 {
    (stage as u64) << 56 | (bytes & SEAL_BYTES_MASK)
}

/// Unpack a [`SpanKind::EgressSeal`] payload into `(stage, bytes)`.
pub fn seal_span_parts(payload: u64) -> (SealStage, u64) {
    let stage = match payload >> 56 {
        1 => SealStage::Encrypt,
        2 => SealStage::Mac,
        _ => SealStage::Call,
    };
    (stage, payload & SEAL_BYTES_MASK)
}

/// One recorded unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Span {
    /// What was measured.
    pub kind: SpanKind,
    /// Owning tenant (`0` for platform-wide work such as raw SMC entries).
    pub tenant: u32,
    /// Start time in nanoseconds since the tracer's origin.
    pub start_nanos: u64,
    /// Duration in nanoseconds (wall for traced sections, modelled for
    /// simulated costs such as decrypt).
    pub duration_nanos: u64,
    /// Kind-specific payload: events in the batch, records in the window,
    /// bytes sealed, …
    pub payload: u64,
}

/// One ring slot: a sequence stamp plus the span packed into four words.
///
/// `seq` follows the Vyukov MPMC discipline: a slot at position `pos` is
/// free for the producer when `seq == pos`, ready for the consumer when
/// `seq == pos + 1`, and recycled to `pos + capacity` after consumption.
struct Slot {
    seq: AtomicU64,
    /// `[kind << 32 | tenant, start_nanos, duration_nanos, payload]`
    words: [AtomicU64; 4],
}

/// Bounded MPMC span ring. Producers drop (and count) on full.
pub struct SpanRing {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    tail: AtomicU64,
    dropped: AtomicU64,
}

impl SpanRing {
    /// Create a ring holding `capacity` spans (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> SpanRing {
        let cap = capacity.max(8).next_power_of_two() as u64;
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicU64::new(i),
                words: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpanRing {
            slots,
            mask: cap - 1,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Try to record `span`; on a full ring the span is dropped and the
    /// drop counter incremented — the producer never waits.
    pub fn push(&self, span: Span) -> bool {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        slot.words[0]
                            .store(span.kind.code() << 32 | span.tenant as u64, Ordering::Relaxed);
                        slot.words[1].store(span.start_nanos, Ordering::Relaxed);
                        slot.words[2].store(span.duration_nanos, Ordering::Relaxed);
                        slot.words[3].store(span.payload, Ordering::Relaxed);
                        slot.seq.store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(now) => pos = now,
                }
            } else if seq < pos {
                // Ring is full (the slot has not been consumed yet): drop.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop one span, if any is ready.
    pub fn pop(&self) -> Option<Span> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos + 1 {
                match self.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let w0 = slot.words[0].load(Ordering::Relaxed);
                        let span = Span {
                            kind: SpanKind::from_code(w0 >> 32),
                            tenant: w0 as u32,
                            start_nanos: slot.words[1].load(Ordering::Relaxed),
                            duration_nanos: slot.words[2].load(Ordering::Relaxed),
                            payload: slot.words[3].load(Ordering::Relaxed),
                        };
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(span);
                    }
                    Err(now) => pos = now,
                }
            } else if seq <= pos {
                return None;
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Spans dropped because the ring was full when a worker recorded.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Process-wide monotonically assigned thread index, used to spread
/// threads across ring shards without any per-tracer registration.
static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: usize = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
}

/// The tracer: an enable flag, a clock origin, and sharded span rings.
///
/// Each recording thread hashes to a shard by its process-wide thread
/// index, so concurrent workers rarely contend on the same ring head.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    shards: Vec<SpanRing>,
}

impl Tracer {
    /// A tracer with `shards` rings of `capacity` spans each, initially
    /// disabled.
    pub fn new(shards: usize, capacity: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            shards: (0..shards.max(1)).map(|_| SpanRing::new(capacity)).collect(),
        }
    }

    /// Turn recording on or off. Off (the default), every record path is
    /// one relaxed load and branch.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span: the current timestamp, or 0 when disabled (the clock
    /// is not read on the disabled path).
    pub fn start(&self) -> u64 {
        if self.is_enabled() {
            self.now_nanos()
        } else {
            0
        }
    }

    /// Nanoseconds elapsed since a [`Tracer::start`] stamp (0 when
    /// disabled).
    pub fn elapsed_since(&self, start: u64) -> u64 {
        if self.is_enabled() {
            self.now_nanos().saturating_sub(start)
        } else {
            0
        }
    }

    /// Record a span closed now that was opened at `start` (a
    /// [`Tracer::start`] stamp). No-op when disabled.
    pub fn record(&self, kind: SpanKind, tenant: u32, start: u64, payload: u64) {
        if !self.is_enabled() {
            return;
        }
        let now = self.now_nanos();
        self.record_at(kind, tenant, start, now.saturating_sub(start), payload);
    }

    /// Record a span with an explicit duration (e.g. a modelled cost such
    /// as decrypt nanoseconds). No-op when disabled.
    pub fn record_at(&self, kind: SpanKind, tenant: u32, start: u64, duration: u64, payload: u64) {
        if !self.is_enabled() {
            return;
        }
        let shard = THREAD_INDEX.with(|i| *i) % self.shards.len();
        self.shards[shard].push(Span {
            kind,
            tenant,
            start_nanos: start,
            duration_nanos: duration,
            payload,
        });
    }

    /// Drain all shards, feeding each span to `f`. Safe to call while
    /// workers keep recording; drains what is ready and returns the count.
    pub fn drain(&self, mut f: impl FnMut(Span)) -> usize {
        let mut n = 0;
        for shard in &self.shards {
            while let Some(span) = shard.pop() {
                f(span);
                n += 1;
            }
        }
        n
    }

    /// Total spans dropped across all shards because a ring was full.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_span_payload_round_trips_and_plain_counts_are_calls() {
        for stage in [SealStage::Call, SealStage::Encrypt, SealStage::Mac] {
            assert_eq!(seal_span_parts(seal_span_payload(stage, 1_920_000)), (stage, 1_920_000));
        }
        assert_eq!(seal_span_parts(1_920_000), (SealStage::Call, 1_920_000));
    }
    use std::sync::Arc;

    fn span(tenant: u32, start: u64) -> Span {
        Span {
            kind: SpanKind::IngestBatch,
            tenant,
            start_nanos: start,
            duration_nanos: 5,
            payload: 42,
        }
    }

    #[test]
    fn ring_round_trips_spans() {
        let ring = SpanRing::new(8);
        assert!(ring.push(span(7, 100)));
        assert!(ring.push(span(8, 200)));
        let a = ring.pop().unwrap();
        assert_eq!((a.tenant, a.start_nanos, a.payload), (7, 100, 42));
        assert_eq!(ring.pop().unwrap().tenant, 8);
        assert!(ring.pop().is_none());
    }

    #[test]
    fn full_ring_drops_instead_of_blocking() {
        let ring = SpanRing::new(8);
        for i in 0..8 {
            assert!(ring.push(span(i, 0)));
        }
        assert!(!ring.push(span(99, 0)));
        assert_eq!(ring.dropped(), 1);
        // Draining frees slots again.
        assert!(ring.pop().is_some());
        assert!(ring.push(span(100, 0)));
    }

    #[test]
    fn ring_wraps_many_times() {
        let ring = SpanRing::new(8);
        for round in 0..100u64 {
            assert!(ring.push(span(round as u32, round)));
            assert_eq!(ring.pop().unwrap().start_nanos, round);
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn concurrent_producers_lose_nothing_with_capacity() {
        let ring = Arc::new(SpanRing::new(4096));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let ring = ring.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    ring.push(span(t, i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut n = 0;
        while ring.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 2000);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_the_clock() {
        let tracer = Tracer::new(2, 64);
        assert_eq!(tracer.start(), 0);
        tracer.record(SpanKind::Smc, 0, 0, 0);
        assert_eq!(tracer.drain(|_| {}), 0);
    }

    #[test]
    fn enabled_tracer_round_trips_through_drain() {
        let tracer = Tracer::new(2, 64);
        tracer.set_enabled(true);
        let t0 = tracer.start();
        tracer.record(SpanKind::WindowFire, 3, t0, 11);
        let mut seen = Vec::new();
        tracer.drain(|s| seen.push(s));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].kind, SpanKind::WindowFire);
        assert_eq!(seen[0].tenant, 3);
        assert_eq!(seen[0].payload, 11);
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in [
            SpanKind::IngestBatch,
            SpanKind::Decrypt,
            SpanKind::WindowFire,
            SpanKind::EgressSeal,
            SpanKind::Smc,
            SpanKind::Checkpoint,
            SpanKind::Restore,
        ] {
            assert_eq!(SpanKind::from_code(k.code()), k);
        }
    }
}
