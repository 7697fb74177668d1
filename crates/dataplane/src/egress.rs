//! Egress: results leave the TEE encrypted and signed (§3.2).
//!
//! The edge→cloud link is untrusted, so results are AES-128-CTR encrypted
//! with the key shared with the cloud consumer and authenticated with an
//! HMAC computed inside the TEE. The cloud side verifies the MAC before
//! decrypting.
//!
//! # The streaming sealer
//!
//! Sealing is one pass over the result, cut into [`SEAL_CHUNK`]-byte
//! chunks. Two kinds of stage work on the chunks:
//!
//! * **encrypt lanes** claim chunks in index order, serialize the typed
//!   records of the chunk's range straight into a recycled staging buffer
//!   and XOR the keystream over it in place (CTR is seekable, so a lane
//!   starts at the chunk's own counter block);
//! * the one **MAC stage** absorbs finished chunks *in order* into the
//!   running HMAC and appends them to the ciphertext, which is allocated
//!   once at its final size. Whenever the chunk it needs next has not been
//!   claimed, it claims and encrypts a chunk itself.
//!
//! With no pool the MAC stage runs alone on the caller and does all of
//! both: serial sealing is the zero-lane case of the same code. With a
//! pool the seal is `lanes + 1` identical tasks of one [`LanePool::run`]:
//! the first to start becomes the MAC stage, the rest are lanes. A lane
//! therefore never exists before the MAC stage is running, a stage holding
//! a claimed chunk never waits on anything, and the MAC stage waits only
//! for a chunk some running lane holds — so the seal finishes under any
//! task order, including all tasks one after another on one thread (the
//! first does everything, the rest find nothing left to claim). Lanes may
//! run at most `SEAL_WINDOW` chunks ahead of the MAC, which bounds the
//! staging memory.
//!
//! Stages wait by polling ([`sbt_types::poll_wait`]), not by blocking: a
//! wait is shorter than one chunk's MAC (≈ 35 µs with SHA-NI, ≈ 230 µs on
//! the portable kernel), and a blocked stage would have to be woken by the
//! other one — which, on a guest kernel that
//! does not balance load across vCPUs, leaves it time-sharing the waker's
//! core and serialises exactly the two stages meant to overlap (the
//! engine's executor polls for the same reason; its `IDLE_POLL` has the
//! numbers).
//!
//! The bytes are those of the construction it replaced: ciphertext =
//! `CTR(wire bytes)` from block 0 under the per-message nonce, signature =
//! `HMAC(seq_le ‖ ciphertext)`. HMAC-SHA-256 is a serial chain, so the MAC
//! stage is the floor of a seal however many lanes feed it — on either
//! back-end of `sbt_crypto` (reference host, `benches/crypto.rs`): SHA-NI
//! MACs ≈ 1.9 GB/s against ≈ 9.6 GB/s for one AES-NI lane; the portable
//! kernels ≈ 290 MB/s against ≈ 345 MB/s. A seal on the caller alone costs
//! ≈ 54 µs per chunk in hardware (34 MAC, 7 encrypt, the rest serialising
//! and appending) and ≈ 480 µs portable.

use crate::store::StoredData;
use sbt_crypto::{
    AesCtr, Key128, KeySet, Nonce, Sha256, Signature, Signer, SigningKey, TenantKeychain,
    VerifierKeySet,
};
use sbt_telemetry::{seal_span_payload, SealStage, SpanKind, Tracer};
use sbt_types::{poll_wait, LanePool, LaneTask};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Plaintext bytes per seal chunk: 273 × 240.
///
/// A multiple of lcm(8, 12, 16, 20) = 240, so every chunk holds whole
/// records of all four result layouts and starts on an AES block boundary.
/// About 64 KiB: large enough that the per-chunk hand-off (a few uncontended
/// lock round trips, well under a microsecond) vanishes beside what a chunk
/// costs to encrypt and MAC (≈ 54 µs with AES-NI and SHA-NI, ≈ 480 µs on the
/// portable kernels), small enough that the chunks in flight stay in L2 and
/// that a 131 KB result already has something to overlap.
pub const SEAL_CHUNK: usize = 273 * 240;

/// Chunks the encrypt lanes may run ahead of the MAC stage. Bounds the
/// staging memory a seal holds (this many chunk buffers, 256 KiB, recycled
/// across seals); four chunks are ≈ 140 µs of MAC work in hardware (about a
/// millisecond portable), several scheduler wake-ups either way, so a lane
/// that briefly loses its core does not starve the MAC stage.
const SEAL_WINDOW: usize = 4;

/// Results shorter than this many chunks seal inline on the caller: a
/// single chunk must be encrypted before it can be MAC'd, so there is
/// nothing to overlap. Beyond that structural minimum the floor is time: a
/// lane must carry more work than its hand-off costs (two tasks to a
/// polling worker: about a microsecond), and one chunk of lane work —
/// serialise and encrypt — is ≈ 14 µs with AES-NI and ≈ 210 µs portable, so
/// two chunks clear it on both back-ends. Measured on the reference host,
/// alone → with one lane, median of 100–300 seals: hardware 131 KB
/// 110 → 106 µs, 262 KB 225 → 194 µs, 524 KB 471 → 410 µs; portable 131 KB
/// 0.99 → 0.77 ms, 262 KB 1.99 → 1.33 ms, 524 KB 4.00 → 2.48 ms. A seal
/// lane writes where the bytes end up, so it has no stitch to pay for.
const MIN_FANOUT_CHUNKS: usize = 2;

/// One lane already outruns the MAC stage — narrowly on the portable kernels
/// (≈ 345 against ≈ 290 MB/s), fivefold with AES-NI against SHA-NI (≈ 9.6
/// against ≈ 1.9 GB/s); the second covers a descheduled lane. More would
/// only wait. At hardware speed what a lane overlaps with the MAC is the
/// serialising as much as the AES, and the gain is smaller but real: worth
/// 4–14 % on seals of 2–8 chunks in isolation, and on `join`'s 1.9 MB seals
/// end to end. In 8 alternating 15 s pairs on the reference host (2 vCPUs,
/// AES-NI), disabling the lanes (no pool, same bytes) moved `join`'s median
/// `delay_p50_ms` from 7.93 to 8.28 ms (+4.4 %), and by +27 % and +31 % in
/// the two pairs taken while the host ran fast. On the portable kernels it
/// is the 1.3–1.7× under `MIN_FANOUT_CHUNKS`. Both are why the lanes stay.
const MAX_ENCRYPT_LANES: usize = 2;

/// A result message as uploaded to the cloud.
#[derive(Debug, Clone)]
pub struct EgressMessage {
    /// Monotonic sequence number of the egress within the data plane.
    pub seq: u64,
    /// AES-128-CTR ciphertext of the serialized result records.
    pub ciphertext: Vec<u8>,
    /// HMAC over `(seq || ciphertext)`.
    pub signature: Signature,
}

/// The per-message CTR nonce: the sequence number replaces the first eight
/// nonce bytes, so every message draws a keystream of its own.
fn message_nonce(nonce: &Nonce, seq: u64) -> Nonce {
    let mut n = *nonce;
    n[..8].copy_from_slice(&seq.to_le_bytes());
    n
}

impl EgressMessage {
    /// Verify and decrypt on the cloud side. Returns `None` if the MAC does
    /// not verify.
    pub fn open(&self, key: &Key128, nonce: &Nonce, signing: &SigningKey) -> Option<Vec<u8>> {
        if !signing.verify_parts(&[&self.seq.to_le_bytes(), &self.ciphertext], &self.signature) {
            return None;
        }
        let mut plain = vec![0u8; self.ciphertext.len()];
        AesCtr::new(key, &message_nonce(nonce, self.seq)).apply_keystream_into(
            &self.ciphertext,
            &mut plain,
            0,
        );
        Some(plain)
    }

    /// Verify and decrypt under one epoch's verifier keys.
    pub fn open_with(&self, keys: &VerifierKeySet) -> Option<Vec<u8>> {
        self.open(&keys.cloud_key, &keys.cloud_nonce, &keys.signing)
    }

    /// Verify and decrypt by trial over a tenant's keychain, newest epoch
    /// first (the MAC pins the epoch: only the sealing epoch's key opens the
    /// message). Returns the plaintext and the epoch that opened it.
    pub fn open_any(&self, keys: &TenantKeychain) -> Option<(Vec<u8>, u32)> {
        keys.newest_first().find_map(|k| self.open_with(k).map(|plain| (plain, k.epoch)))
    }
}

/// What a seal reads its plaintext from.
pub(crate) enum Plaintext {
    /// A typed result array, serialized range by range.
    Records(Arc<StoredData>),
    /// Already-serialized bytes (a checkpoint snapshot).
    Bytes(Arc<Vec<u8>>),
}

impl Plaintext {
    fn len(&self) -> usize {
        match self {
            Plaintext::Records(data) => data.wire_len(),
            Plaintext::Bytes(bytes) => bytes.len(),
        }
    }

    fn write(&self, offset: usize, out: &mut [u8]) {
        match self {
            Plaintext::Records(data) => data.write_wire(offset, out),
            Plaintext::Bytes(bytes) => out.copy_from_slice(&bytes[offset..offset + out.len()]),
        }
    }
}

/// The MAC stage's state: everything that must see the chunks in order.
struct Sink {
    signer: Signer,
    ciphertext: Vec<u8>,
    /// Running SHA-256 of the plaintext, for seals that chain it (snapshots).
    plain_hash: Option<Sha256>,
}

/// The outcome of one seal.
pub(crate) struct Sealed {
    pub ciphertext: Vec<u8>,
    pub signature: Signature,
    /// SHA-256 of the plaintext, when the seal was asked to chain it.
    pub plain_hash: Option<[u8; 32]>,
}

/// Chunk hand-off between the stages, under one lock.
struct Stage {
    /// Next chunk no stage has claimed yet.
    next_claim: usize,
    /// Chunks the MAC stage has absorbed; chunks are claimed below
    /// `absorbed + SEAL_WINDOW`.
    absorbed: usize,
    /// Encrypted chunks awaiting the MAC stage, at `chunk % SEAL_WINDOW`.
    ready: [Option<Vec<u8>>; SEAL_WINDOW],
    /// Free staging buffers.
    spare: Vec<Vec<u8>>,
    /// The MAC stage's state; taken by the first task to start, which
    /// thereby becomes the MAC stage, and put back when it finishes.
    sink: Option<Sink>,
}

impl Stage {
    /// Claim the next chunk and a buffer for it, if the window has room.
    fn try_claim(&mut self, chunks: usize) -> Option<(usize, Vec<u8>)> {
        if self.next_claim == chunks || self.next_claim >= self.absorbed + SEAL_WINDOW {
            return None;
        }
        let chunk = self.next_claim;
        self.next_claim += 1;
        Some((chunk, self.spare.pop().unwrap_or_default()))
    }
}

/// One seal in flight, shared by its stages.
struct Pipeline {
    plaintext: Plaintext,
    cipher: AesCtr,
    len: usize,
    chunks: usize,
    stage: Mutex<Stage>,
    /// Tracer and tenant of the per-stage spans, when tracing is on.
    trace: Option<(Arc<Tracer>, u32)>,
}

/// CPU time and bytes one stage spent on one kind of work.
#[derive(Default)]
struct Work {
    nanos: u64,
    bytes: u64,
}

impl Pipeline {
    fn lock(&self) -> MutexGuard<'_, Stage> {
        self.stage.lock().expect("a seal stage panicked")
    }

    fn timed(&self, work: &mut Work, bytes: usize, f: impl FnOnce()) {
        if self.trace.is_some() {
            let t0 = Instant::now();
            f();
            work.nanos += t0.elapsed().as_nanos() as u64;
            work.bytes += bytes as u64;
        } else {
            f();
        }
    }

    fn record(&self, stage: SealStage, start: u64, work: &Work) {
        if let Some((tracer, tenant)) = &self.trace {
            if work.bytes > 0 {
                tracer.record_at(
                    SpanKind::EgressSeal,
                    *tenant,
                    start,
                    work.nanos,
                    seal_span_payload(stage, work.bytes),
                );
            }
        }
    }

    /// Serialize and encrypt chunk `chunk` into `buf`, then publish it.
    fn encrypt_chunk(&self, chunk: usize, mut buf: Vec<u8>, work: &mut Work) {
        let offset = chunk * SEAL_CHUNK;
        let len = SEAL_CHUNK.min(self.len - offset);
        self.timed(work, len, || {
            buf.resize(len, 0);
            self.plaintext.write(offset, &mut buf);
            self.cipher.apply_keystream_at(&mut buf, AesCtr::block_at(0, offset));
        });
        self.lock().ready[chunk % SEAL_WINDOW] = Some(buf);
    }

    /// One task of the seal. The first to start takes the sink and is the
    /// MAC stage; every later one is an encrypt lane. A lane therefore only
    /// ever exists beside a MAC stage that is already running on another
    /// thread (or has finished), so it may wait for it under any task order.
    fn run_stage(&self) {
        let start = self.trace.as_ref().map_or(0, |(t, _)| t.start());
        let sink = self.lock().sink.take();
        let mut encrypt = Work::default();
        match sink {
            Some(sink) => {
                let mut mac = Work::default();
                let sink = self.mac_stage(sink, &mut mac, &mut encrypt);
                self.lock().sink = Some(sink);
                self.record(SealStage::Mac, start, &mac);
            }
            None => self.encrypt_lane(&mut encrypt),
        }
        self.record(SealStage::Encrypt, start, &encrypt);
    }

    /// An encrypt lane: claim, encrypt, publish, until every chunk is
    /// claimed; poll while the window is full.
    fn encrypt_lane(&self, work: &mut Work) {
        loop {
            let claimed = {
                let mut stage = self.lock();
                if stage.next_claim == self.chunks {
                    return;
                }
                stage.try_claim(self.chunks)
            };
            match claimed {
                Some((chunk, buf)) => self.encrypt_chunk(chunk, buf, work),
                None => poll_wait(),
            }
        }
    }

    /// The MAC stage: absorb chunks in order; encrypt one itself whenever
    /// the next is not ready and the window has an unclaimed chunk; poll
    /// only for a chunk a running lane holds.
    fn mac_stage(&self, mut sink: Sink, mac: &mut Work, encrypt: &mut Work) -> Sink {
        loop {
            let mut stage = self.lock();
            if stage.absorbed == self.chunks {
                return sink;
            }
            let slot = stage.absorbed % SEAL_WINDOW;
            if let Some(buf) = stage.ready[slot].take() {
                let offset = stage.absorbed * SEAL_CHUNK;
                drop(stage);
                self.timed(mac, buf.len(), || {
                    if let (Some(hash), Plaintext::Bytes(plain)) =
                        (&mut sink.plain_hash, &self.plaintext)
                    {
                        hash.update(&plain[offset..offset + buf.len()]);
                    }
                    sink.signer.update(&buf);
                    sink.ciphertext.extend_from_slice(&buf);
                });
                let mut stage = self.lock();
                stage.spare.push(buf);
                stage.absorbed += 1;
            } else if let Some((chunk, buf)) = stage.try_claim(self.chunks) {
                drop(stage);
                self.encrypt_chunk(chunk, buf, encrypt);
            } else {
                drop(stage);
                poll_wait();
            }
        }
    }
}

/// The streaming sealer of one data plane: egress results and checkpoint
/// snapshots both seal through it. Owns the recycled staging buffers, so a
/// steady-state seal allocates nothing but the ciphertext itself.
#[derive(Default)]
pub struct Sealer {
    staging: Mutex<Vec<Vec<u8>>>,
}

impl Sealer {
    /// A sealer with no staging buffers yet (they are allocated by the
    /// first seals and kept).
    pub fn new() -> Self {
        Self::default()
    }

    /// Encrypt and sign one result inside the TEE. `pool` lends the encrypt
    /// lanes their threads; `None`, or a result under
    /// `MIN_FANOUT_CHUNKS` chunks, seals on the caller alone. The sealed
    /// bytes do not depend on the pool.
    pub fn seal_egress(
        &self,
        seq: u64,
        result: Arc<StoredData>,
        keys: &KeySet,
        pool: Option<&dyn LanePool>,
        tracer: &Arc<Tracer>,
        tenant: u32,
    ) -> EgressMessage {
        let mut signer = keys.signing.signer();
        signer.update(&seq.to_le_bytes());
        let sealed = self.seal(
            Plaintext::Records(result),
            AesCtr::new(&keys.cloud_key, &message_nonce(&keys.cloud_nonce, seq)),
            signer,
            false,
            pool,
            tracer.is_enabled().then(|| (Arc::clone(tracer), tenant)),
        );
        EgressMessage { seq, ciphertext: sealed.ciphertext, signature: sealed.signature }
    }

    /// Run one seal: `signer` arrives primed with whatever header the MAC
    /// covers before the ciphertext.
    pub(crate) fn seal(
        &self,
        plaintext: Plaintext,
        cipher: AesCtr,
        signer: Signer,
        hash_plaintext: bool,
        pool: Option<&dyn LanePool>,
        trace: Option<(Arc<Tracer>, u32)>,
    ) -> Sealed {
        let len = plaintext.len();
        let chunks = len.div_ceil(SEAL_CHUNK);
        let spare = std::mem::take(&mut *self.staging.lock().expect("staging pool"));
        let pipeline = Arc::new(Pipeline {
            plaintext,
            cipher,
            len,
            chunks,
            stage: Mutex::new(Stage {
                next_claim: 0,
                absorbed: 0,
                ready: Default::default(),
                spare,
                sink: Some(Sink {
                    signer,
                    ciphertext: Vec::with_capacity(len),
                    plain_hash: hash_plaintext.then(Sha256::new),
                }),
            }),
            trace,
        });
        // One task per lane plus one: whichever starts first is the MAC stage.
        let fan_out = pool
            .filter(|_| chunks >= MIN_FANOUT_CHUNKS)
            .map(|pool| (pool, pool.workers().min(MAX_ENCRYPT_LANES).min(chunks - 1)))
            .filter(|&(_, lanes)| lanes > 0);
        match fan_out {
            Some((pool, lanes)) => pool.run(
                (0..=lanes)
                    .map(|_| {
                        let p = Arc::clone(&pipeline);
                        Box::new(move || p.run_stage()) as LaneTask
                    })
                    .collect(),
            ),
            None => pipeline.run_stage(),
        }
        let (sink, mut spare) = {
            let mut stage = pipeline.lock();
            (stage.sink.take().expect("the MAC stage finished"), std::mem::take(&mut stage.spare))
        };
        {
            let mut staging = self.staging.lock().expect("staging pool");
            staging.append(&mut spare);
            staging.truncate(SEAL_WINDOW);
        }
        Sealed {
            ciphertext: sink.ciphertext,
            signature: sink.signer.finish(),
            plain_hash: sink.plain_hash.map(Sha256::finalize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> (Key128, Nonce, SigningKey) {
        ([1u8; 16], [2u8; 16], SigningKey::new(b"edge-cloud"))
    }

    /// Seal raw bytes as an egress message on the caller alone.
    fn seal(
        seq: u64,
        plaintext: &[u8],
        key: &Key128,
        nonce: &Nonce,
        s: &SigningKey,
    ) -> EgressMessage {
        let mut signer = s.signer();
        signer.update(&seq.to_le_bytes());
        let sealed = Sealer::new().seal(
            Plaintext::Bytes(Arc::new(plaintext.to_vec())),
            AesCtr::new(key, &message_nonce(nonce, seq)),
            signer,
            false,
            None,
            None,
        );
        EgressMessage { seq, ciphertext: sealed.ciphertext, signature: sealed.signature }
    }

    #[test]
    fn seal_and_open_round_trip() {
        let (key, nonce, signing) = keys();
        let plaintext = b"house 3: 4 high-power plugs".to_vec();
        let msg = seal(7, &plaintext, &key, &nonce, &signing);
        assert_ne!(msg.ciphertext, plaintext);
        assert_eq!(msg.open(&key, &nonce, &signing).unwrap(), plaintext);
    }

    #[test]
    fn sealed_bytes_are_the_whole_buffer_construction() {
        // Multi-chunk, with a ragged tail: the streamed ciphertext and MAC
        // equal encrypt-the-whole-buffer then sign `seq || ciphertext`.
        let (key, nonce, signing) = keys();
        let plaintext: Vec<u8> = (0..2 * SEAL_CHUNK + 777).map(|i| (i * 7 % 251) as u8).collect();
        let msg = seal(9, &plaintext, &key, &nonce, &signing);
        let reference = AesCtr::new(&key, &message_nonce(&nonce, 9)).encrypt(&plaintext);
        assert_eq!(msg.ciphertext, reference);
        let mut signed = 9u64.to_le_bytes().to_vec();
        signed.extend_from_slice(&reference);
        assert_eq!(msg.signature, signing.sign(&signed));
    }

    #[test]
    fn plaintext_hash_is_chained_when_asked() {
        let (key, nonce, signing) = keys();
        let plaintext: Vec<u8> = (0..SEAL_CHUNK + 5).map(|i| (i % 253) as u8).collect();
        let sealed = Sealer::new().seal(
            Plaintext::Bytes(Arc::new(plaintext.clone())),
            AesCtr::new(&key, &nonce),
            signing.signer(),
            true,
            None,
            None,
        );
        assert_eq!(sealed.plain_hash, Some(sbt_crypto::sha256(&plaintext)));
    }

    #[test]
    fn tampered_ciphertext_is_rejected() {
        let (key, nonce, signing) = keys();
        let mut msg = seal(1, b"result", &key, &nonce, &signing);
        msg.ciphertext[0] ^= 1;
        assert!(msg.open(&key, &nonce, &signing).is_none());
    }

    #[test]
    fn replayed_sequence_number_is_rejected() {
        let (key, nonce, signing) = keys();
        let mut msg = seal(1, b"result", &key, &nonce, &signing);
        msg.seq = 2;
        assert!(msg.open(&key, &nonce, &signing).is_none());
    }

    #[test]
    fn wrong_keys_fail() {
        let (key, nonce, signing) = keys();
        let msg = seal(1, b"result", &key, &nonce, &signing);
        assert!(msg.open(&key, &nonce, &SigningKey::new(b"other")).is_none());
        // Wrong AES key with correct MAC key: MAC still passes (it covers the
        // ciphertext), but the plaintext will be garbage — callers treat the
        // MAC as origin authentication, which this test documents.
        let opened = msg.open(&[9u8; 16], &nonce, &signing).unwrap();
        assert_ne!(opened, b"result");
    }

    #[test]
    fn distinct_messages_use_distinct_keystreams() {
        let (key, nonce, signing) = keys();
        let a = seal(1, b"same plaintext", &key, &nonce, &signing);
        let b = seal(2, b"same plaintext", &key, &nonce, &signing);
        assert_ne!(a.ciphertext, b.ciphertext);
    }
}
