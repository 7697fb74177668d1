//! The four workloads: what each one is, how its inputs are generated from
//! the seed, and the reference results the program's outputs are checked
//! against.
//!
//! The oracles are written here in plain `BTreeMap`/sort code over the
//! generated chunks and share nothing with `sbt_primitives`, so a bug in a
//! primitive cannot hide behind an oracle that has the same bug.

use sbt_crypto::{MasterSecret, Sha256};
use sbt_engine::Pipeline;
use sbt_types::{Event, TenantId, Watermark};
use sbt_workloads::datasets::{
    intel_lab_stream, multi_tenant_streams, synthetic_stream, StreamChunk,
};
use sbt_workloads::generator::{Generator, GeneratorConfig, Offer};
use sbt_workloads::transport::{Channel, Delivery};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which pipeline shape a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WinSum,
    TopK,
    Join,
    Tenants,
}

/// One workload's committed shape. Sizes are fixed here, never derived from
/// the current run, so two runs of one commit measure the same thing.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Events per window (per side for the join, per tenant for the server).
    pub events_per_window: usize,
    pub batch_events: usize,
    /// Windows streamed per round.
    pub windows: u32,
    pub key_cardinality: u32,
    /// Fixed offered rate of the paced pass, Mevents/s: a fifth of the seed's
    /// closed-loop median on the 2-core reference host, two digits (see the
    /// README for why not half). 0 for the server workload, which
    /// has no paced pass.
    pub ref_rate_mev_s: f64,
    /// SHA-256 of the generated wire bytes at the default seed and full
    /// scale; a mismatch means `sbt_workloads` changed the traffic.
    pub pinned_fingerprint: &'static str,
}

/// Top-K depth of the `topk` workload and of tenant 3.
pub const TOPK_K: usize = 10;
/// Filter band of tenant 4: 1 % of uniform `u32` values.
pub const FILTER_HI: u32 = u32::MAX / 100;
/// Tenants admitted by `tenants4_small_batch`.
pub const TENANTS: usize = 4;
/// Per-tenant secure-memory quotas of `tenants4_small_batch`: 2 MiB, except
/// the TopK tenant. Its window fire (sort, merge tree) is the slow one, DRR
/// lets its ingest run several windows ahead of a delayed fire, and at 2 MiB
/// one round in a few hundred had a batch rejected on a busy host — after
/// which the tenant egressed nothing more. 8 MiB is what pool-aware
/// admission still accepts beside the other three on one worker.
pub const TENANT_QUOTA_BYTES: [u64; TENANTS] =
    [2 * 1024 * 1024, 2 * 1024 * 1024, 8 * 1024 * 1024, 2 * 1024 * 1024];
/// Paced rate of the server workload's solo round (see [`Spec::solo`]).
pub const SOLO_REF_RATE_MEV_S: f64 = 2.8;
/// The seed whose traffic fingerprints are pinned.
pub const DEFAULT_SEED: u64 = 42;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "winsum",
        kind: Kind::WinSum,
        events_per_window: 200_000,
        batch_events: 50_000,
        windows: 48,
        key_cardinality: 54,
        ref_rate_mev_s: 5.6,
        pinned_fingerprint: "8074447e04142bd0f2e3fcd896ad070ca51744289c8fe39f8a7cb4edbdf25c7b",
    },
    Spec {
        name: "topk",
        kind: Kind::TopK,
        events_per_window: 100_000,
        batch_events: 25_000,
        windows: 32,
        key_cardinality: 1_000,
        ref_rate_mev_s: 2.5,
        pinned_fingerprint: "a466795cd61dc9a0f2be7c4f0cc161e84f3fa32b7fcc0c6c8efb367ce67037ee",
    },
    Spec {
        name: "join",
        kind: Kind::Join,
        events_per_window: 40_000,
        batch_events: 20_000,
        windows: 16,
        key_cardinality: 10_000,
        ref_rate_mev_s: 0.75,
        pinned_fingerprint: "d59616db009b0c22c70780efe5047d02fcbcc6cf3316bcde93e9e5d561fbc4e6",
    },
    Spec {
        name: "tenants4_small_batch",
        kind: Kind::Tenants,
        events_per_window: 25_000,
        batch_events: 1_000,
        windows: 32,
        key_cardinality: 1_000,
        ref_rate_mev_s: 0.0,
        pinned_fingerprint: "c266337a003dd862552dd2f81193138bdce602a0dd7606458b86f223051ccdff",
    },
];

pub fn spec_by_name(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The `--quick` scale: same shape, a twentieth of the events, three
    /// windows — for the smoke tests, never for reported numbers.
    pub fn quick(mut self) -> Spec {
        self.events_per_window /= 20;
        self.batch_events /= 20;
        self.windows = 3;
        self
    }

    /// The pipeline a single-engine workload runs, at the paper's own delay
    /// target (nothing is relaxed to 60 s here).
    pub fn pipeline(&self) -> Pipeline {
        let p = match self.kind {
            Kind::WinSum => Pipeline::winsum_benchmark(),
            Kind::TopK => Pipeline::topk_benchmark(TOPK_K),
            Kind::Join => Pipeline::join_benchmark(),
            Kind::Tenants => unreachable!("the server workload has one pipeline per tenant"),
        };
        p.batch_events(self.batch_events)
    }

    /// Tenant 1's stream driven alone on one engine: the server workload's
    /// small-batch regime seen through the same driver calls as the other
    /// workloads (per-call ingest and fire times, a paced pass), which
    /// `serve_with` does not expose from outside.
    pub fn solo(mut self) -> Spec {
        self.kind = Kind::WinSum;
        self.ref_rate_mev_s = SOLO_REF_RATE_MEV_S;
        self
    }

    /// The pipeline of tenant `t` (0-based) of the server workload: tenants
    /// 1–2 WinSum, tenant 3 TopK(10), tenant 4 Filter 1 %.
    pub fn tenant_pipeline(&self, t: usize) -> Pipeline {
        let p = match t {
            0 | 1 => Pipeline::winsum_benchmark(),
            2 => Pipeline::topk_benchmark(TOPK_K),
            _ => Pipeline::filter_benchmark(0, FILTER_HI),
        };
        p.batch_events(self.batch_events)
    }

    /// Input events per window summed over sides / tenants.
    pub fn events_per_window_total(&self) -> u64 {
        let streams = match self.kind {
            Kind::Join => 2,
            Kind::Tenants => TENANTS,
            _ => 1,
        };
        (self.events_per_window * streams) as u64
    }
}

// ---------------------------------------------------------------------------
// Reference oracles.
// ---------------------------------------------------------------------------

/// The reference result of one window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// Sum of all values.
    Sum(u64),
    /// Per key, the K largest values, descending.
    TopK(BTreeMap<u32, Vec<u32>>),
    /// Joined `(key, left_value, right_value)` rows, sorted.
    Join(Vec<(u32, u32, u32)>),
    /// Events whose value lies in the band, sorted by `(key, value, ts)`.
    Filter(Vec<(u32, u32, u32)>),
}

pub fn oracle_sum(events: &[Event]) -> Expected {
    Expected::Sum(events.iter().map(|e| u64::from(e.value)).sum())
}

pub fn oracle_topk(events: &[Event], k: usize) -> Expected {
    let mut per_key: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for e in events {
        per_key.entry(e.key).or_default().push(e.value);
    }
    for values in per_key.values_mut() {
        values.sort_unstable_by(|a, b| b.cmp(a));
        values.truncate(k);
    }
    Expected::TopK(per_key)
}

pub fn oracle_join(left: &[Event], right: &[Event]) -> Expected {
    let mut right_by_key: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for e in right {
        right_by_key.entry(e.key).or_default().push(e.value);
    }
    let mut rows = Vec::new();
    for l in left {
        if let Some(values) = right_by_key.get(&l.key) {
            rows.extend(values.iter().map(|r| (l.key, l.value, *r)));
        }
    }
    rows.sort_unstable();
    Expected::Join(rows)
}

pub fn oracle_filter(events: &[Event], lo: u32, hi: u32) -> Expected {
    let mut kept: Vec<(u32, u32, u32)> = events
        .iter()
        .filter(|e| e.value >= lo && e.value <= hi)
        .map(|e| (e.key, e.value, e.ts_ms))
        .collect();
    kept.sort_unstable();
    Expected::Filter(kept)
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4-byte field"))
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte field"))
}

impl Expected {
    /// Whether an opened egress payload equals this reference. Row order
    /// inside a window is the program's business (partitions may interleave),
    /// so rows are compared as sorted multisets; everything else is exact,
    /// including the payload length.
    pub fn matches(&self, plain: &[u8]) -> bool {
        match self {
            Expected::Sum(sum) => plain.len() == 8 && le_u64(plain) == *sum,
            Expected::TopK(per_key) => {
                if !plain.len().is_multiple_of(12) {
                    return false;
                }
                let mut got: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
                for row in plain.chunks_exact(12) {
                    let Ok(value) = u32::try_from(le_u64(&row[4..12])) else {
                        return false;
                    };
                    got.entry(le_u32(&row[0..4])).or_default().push(value);
                }
                for values in got.values_mut() {
                    values.sort_unstable_by(|a, b| b.cmp(a));
                }
                got == *per_key
            }
            Expected::Join(rows) => {
                if plain.len() != rows.len() * 12 {
                    return false;
                }
                let mut got: Vec<(u32, u32, u32)> = plain
                    .chunks_exact(12)
                    .map(|row| {
                        let packed = le_u64(&row[4..12]);
                        (le_u32(&row[0..4]), (packed >> 32) as u32, packed as u32)
                    })
                    .collect();
                got.sort_unstable();
                got == *rows
            }
            Expected::Filter(kept) => {
                if plain.len() != kept.len() * 12 {
                    return false;
                }
                let mut got: Vec<(u32, u32, u32)> = plain
                    .chunks_exact(12)
                    .map(|row| (le_u32(&row[0..4]), le_u32(&row[4..8]), le_u32(&row[8..12])))
                    .collect();
                got.sort_unstable();
                got == *kept
            }
        }
    }

    /// Size of the egress payload this reference implies, in bytes.
    pub fn payload_bytes(&self) -> usize {
        match self {
            Expected::Sum(_) => 8,
            Expected::TopK(per_key) => per_key.values().map(Vec::len).sum::<usize>() * 12,
            Expected::Join(rows) => rows.len() * 12,
            Expected::Filter(kept) => kept.len() * 12,
        }
    }
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// Where set-up time went (the `workloads.*` per-layer metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    pub generate_s: f64,
    pub encrypt_s: f64,
    pub reference_s: f64,
    pub wire_bytes: u64,
}

/// One window of a single-engine workload, already on the wire.
pub struct WindowInput {
    pub left: Vec<Delivery>,
    pub right: Vec<Delivery>,
    pub watermark: Watermark,
}

/// Everything a single-engine round replays. Deliveries hold their wire
/// bytes behind an `Arc`, so every round reuses the bytes encrypted here and
/// source-side AES stays out of the timed region.
pub struct EngineInputs {
    pub windows: Vec<WindowInput>,
    pub expected: Vec<Expected>,
    /// The generated events (left side), kept for the layer probes.
    pub chunks: Vec<StreamChunk>,
    pub right_chunks: Vec<StreamChunk>,
    pub fingerprint: String,
    pub timings: SetupTimings,
}

/// Everything a server round replays. `serve_with` pulls from `Generator`s,
/// which encrypt lazily, so the rounds rebuild generators from these chunks.
pub struct TenantInputs {
    /// `chunks[t]` is tenant `t`'s stream.
    pub chunks: Vec<Vec<StreamChunk>>,
    /// `expected[t][w]`.
    pub expected: Vec<Vec<Expected>>,
    pub fingerprint: String,
    pub timings: SetupTimings,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Drain a generator into per-window deliveries.
fn drain_generator(mut generator: Generator) -> (Vec<Vec<Delivery>>, Vec<Watermark>) {
    let mut windows = Vec::new();
    let mut watermarks = Vec::new();
    let mut pending = Vec::new();
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(delivery) => pending.push(delivery),
            Offer::Watermark(wm) => {
                windows.push(std::mem::take(&mut pending));
                watermarks.push(wm);
            }
        }
    }
    (windows, watermarks)
}

/// SHA-256 over deliveries' wire bytes, in the order given.
fn fingerprint<'a>(deliveries: impl Iterator<Item = &'a Delivery>) -> String {
    let mut hasher = Sha256::new();
    for delivery in deliveries {
        hasher.update(&delivery.wire_bytes);
    }
    hex(&hasher.finalize())
}

/// Generate a single-engine workload's chunks from the seed.
fn generate_chunks(spec: &Spec, seed: u64) -> (Vec<StreamChunk>, Vec<StreamChunk>) {
    match spec.kind {
        Kind::WinSum => (intel_lab_stream(spec.windows, spec.events_per_window, seed), Vec::new()),
        Kind::TopK => (
            synthetic_stream(spec.windows, spec.events_per_window, spec.key_cardinality, seed),
            Vec::new(),
        ),
        Kind::Join => (
            synthetic_stream(spec.windows, spec.events_per_window, spec.key_cardinality, seed),
            synthetic_stream(
                spec.windows,
                spec.events_per_window,
                spec.key_cardinality,
                seed.wrapping_add(1),
            ),
        ),
        Kind::Tenants => unreachable!("use tenant_inputs"),
    }
}

/// Put chunks on the wire (serialize, encrypt unless `encrypted` is false —
/// the insecure comparison rounds — and fingerprint) and pair them with
/// their reference.
pub fn wire_inputs(
    spec: &Spec,
    chunks: Vec<StreamChunk>,
    right_chunks: Vec<StreamChunk>,
    expected: Vec<Expected>,
    encrypted: bool,
) -> EngineInputs {
    let t_enc = Instant::now();
    let channel = || if encrypted { Channel::encrypted_demo() } else { Channel::cleartext() };
    let config = GeneratorConfig { batch_events: spec.batch_events };
    let (left, watermarks) = drain_generator(Generator::new(config, channel(), chunks.clone()));
    let (right, _) = drain_generator(Generator::new(config, channel(), right_chunks.clone()));
    // Hashed outside the encrypt clock; left side first, then right.
    let encrypt_s = t_enc.elapsed().as_secs_f64();
    let fingerprint = fingerprint(left.iter().chain(&right).flatten());
    let mut right = right.into_iter();
    let windows: Vec<WindowInput> = left
        .into_iter()
        .zip(watermarks)
        .map(|(left, watermark)| WindowInput {
            left,
            right: right.next().unwrap_or_default(),
            watermark,
        })
        .collect();
    let wire_bytes = windows
        .iter()
        .flat_map(|w| w.left.iter().chain(&w.right))
        .map(|d| d.wire_bytes.len() as u64)
        .sum();
    EngineInputs {
        windows,
        expected,
        chunks,
        right_chunks,
        fingerprint,
        timings: SetupTimings { encrypt_s, wire_bytes, ..SetupTimings::default() },
    }
}

/// Generate, pre-encrypt and compute the reference for a single-engine
/// workload.
pub fn engine_inputs(spec: &Spec, seed: u64) -> EngineInputs {
    let t_gen = Instant::now();
    let (chunks, right_chunks) = generate_chunks(spec, seed);
    let generate_s = t_gen.elapsed().as_secs_f64();

    let t_ref = Instant::now();
    let expected = chunks
        .iter()
        .enumerate()
        .map(|(w, c)| match spec.kind {
            Kind::WinSum => oracle_sum(&c.events),
            Kind::TopK => oracle_topk(&c.events, TOPK_K),
            _ => oracle_join(&c.events, &right_chunks[w].events),
        })
        .collect();
    let reference_s = t_ref.elapsed().as_secs_f64();

    let mut inputs = wire_inputs(spec, chunks, right_chunks, expected, true);
    inputs.timings.generate_s = generate_s;
    inputs.timings.reference_s = reference_s;
    inputs
}

/// A fresh generator over one tenant's stream, encrypting under the key the
/// TEE derives for that tenant (server tenants are numbered from 1), or in
/// the clear for the insecure comparison rounds.
pub fn tenant_generator(
    spec: &Spec,
    id: TenantId,
    chunks: Vec<StreamChunk>,
    encrypted: bool,
) -> Generator {
    let channel = if encrypted {
        Channel::for_tenant(&MasterSecret::demo(), id, 0)
    } else {
        Channel::cleartext()
    };
    Generator::new(GeneratorConfig { batch_events: spec.batch_events }, channel, chunks)
}

/// Generate the four tenants' streams, fingerprint their wire bytes (by
/// draining the same generators the server will pull from, standalone) and
/// compute each tenant's reference.
pub fn tenant_inputs(spec: &Spec, seed: u64) -> TenantInputs {
    let t_gen = Instant::now();
    let chunks = multi_tenant_streams(
        TENANTS,
        spec.windows,
        spec.events_per_window,
        spec.key_cardinality,
        seed,
    );
    let generate_s = t_gen.elapsed().as_secs_f64();

    // The generators the server will pull from, drained standalone: this is
    // the source-side AES that `serve_with` performs inside its wall time.
    let generators: Vec<Generator> = chunks
        .iter()
        .enumerate()
        .map(|(t, stream)| tenant_generator(spec, TenantId(t as u32 + 1), stream.clone(), true))
        .collect();
    let t_enc = Instant::now();
    let wire: Vec<Delivery> =
        generators.into_iter().flat_map(|g| drain_generator(g).0).flatten().collect();
    let encrypt_s = t_enc.elapsed().as_secs_f64();
    let wire_bytes = wire.iter().map(|d| d.wire_bytes.len() as u64).sum();
    let fingerprint = fingerprint(wire.iter());
    drop(wire);

    let t_ref = Instant::now();
    let expected = chunks
        .iter()
        .enumerate()
        .map(|(t, stream)| {
            stream
                .iter()
                .map(|c| match t {
                    0 | 1 => oracle_sum(&c.events),
                    2 => oracle_topk(&c.events, TOPK_K),
                    _ => oracle_filter(&c.events, 0, FILTER_HI),
                })
                .collect()
        })
        .collect();
    let reference_s = t_ref.elapsed().as_secs_f64();

    TenantInputs {
        chunks,
        expected,
        fingerprint,
        timings: SetupTimings { generate_s, encrypt_s, reference_s, wire_bytes },
    }
}

/// Check a fingerprint against the pin. Only the default seed at full scale
/// is pinned; other seeds run unpinned (a claim must also hold on a seed
/// nobody tuned for).
pub fn check_fingerprint(spec: &Spec, seed: u64, quick: bool, got: &str) -> Result<(), String> {
    if seed != DEFAULT_SEED || quick || spec.pinned_fingerprint == got {
        return Ok(());
    }
    Err(format!(
        "sbt_workloads changed the traffic: workload {} seed {seed} fingerprints to {got}, \
         pinned {}",
        spec.name, spec.pinned_fingerprint
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(key: u32, value: u32, ts: u32) -> Event {
        Event::new(key, value, ts)
    }

    fn pairs(rows: &[(u32, u64)]) -> Vec<u8> {
        rows.iter()
            .flat_map(|(k, v)| [k.to_le_bytes().to_vec(), v.to_le_bytes().to_vec()])
            .flatten()
            .collect()
    }

    #[test]
    fn sum_oracle_checks_value_and_length() {
        let expected = oracle_sum(&[ev(1, u32::MAX, 0), ev(2, 5, 0)]);
        assert_eq!(expected, Expected::Sum(u64::from(u32::MAX) + 5));
        assert!(expected.matches(&(u64::from(u32::MAX) + 5).to_le_bytes()));
        assert!(!expected.matches(&4u64.to_le_bytes()));
        assert!(!expected.matches(&[0u8; 16]));
        assert_eq!(expected.payload_bytes(), 8);
    }

    #[test]
    fn topk_oracle_keeps_k_largest_per_key_in_any_row_order() {
        let events = [ev(7, 1, 0), ev(7, 9, 0), ev(7, 5, 0), ev(3, 2, 0)];
        let expected = oracle_topk(&events, 2);
        assert!(expected.matches(&pairs(&[(3, 2), (7, 9), (7, 5)])));
        assert!(expected.matches(&pairs(&[(7, 5), (3, 2), (7, 9)])));
        assert!(!expected.matches(&pairs(&[(3, 2), (7, 9), (7, 1)])));
        assert!(!expected.matches(&pairs(&[(3, 2), (7, 9)])));
        assert!(!expected.matches(&pairs(&[(3, 2), (7, 9), (7, u64::from(u32::MAX) + 6)])));
        assert_eq!(expected.payload_bytes(), 36);
    }

    #[test]
    fn join_oracle_emits_the_cross_product_of_matching_keys() {
        let left = [ev(1, 10, 0), ev(1, 11, 0), ev(2, 20, 0)];
        let right = [ev(1, 100, 0), ev(3, 300, 0), ev(1, 101, 0)];
        let expected = oracle_join(&left, &right);
        let row = |k: u32, l: u64, r: u64| (k, (l << 32) | r);
        let good = [row(1, 11, 101), row(1, 10, 100), row(1, 10, 101), row(1, 11, 100)];
        assert!(expected.matches(&pairs(&good)));
        assert!(!expected.matches(&pairs(&good[..3])));
        let mut wrong = good;
        wrong[0] = row(1, 11, 102);
        assert!(!expected.matches(&pairs(&wrong)));
    }

    #[test]
    fn filter_oracle_is_inclusive_on_both_bounds() {
        let events = [ev(1, 4, 9), ev(2, 5, 8), ev(3, 7, 7), ev(4, 8, 6)];
        let expected = oracle_filter(&events, 5, 7);
        let bytes = Event::slice_to_bytes(&[ev(3, 7, 7), ev(2, 5, 8)]);
        assert!(expected.matches(&bytes));
        assert!(!expected.matches(&Event::slice_to_bytes(&[ev(2, 5, 8)])));
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let spec = spec_by_name("join").unwrap().quick();
        let a = engine_inputs(&spec, 7);
        let b = engine_inputs(&spec, 7);
        let c = engine_inputs(&spec, 8);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_eq!(a.windows.len(), 3);
        assert!(a.windows.iter().all(|w| !w.left.is_empty() && !w.right.is_empty()));
        assert_eq!(a.expected, b.expected);
        // Unpinned seeds pass; the pinned seed must match at full scale.
        assert!(check_fingerprint(&spec, 7, true, &a.fingerprint).is_ok());
        let full = spec_by_name("join").unwrap();
        assert!(check_fingerprint(&full, DEFAULT_SEED, false, "not-the-pin")
            .unwrap_err()
            .contains("sbt_workloads changed the traffic"));
        assert!(check_fingerprint(&full, DEFAULT_SEED, true, "not-the-pin").is_ok());
    }

    #[test]
    fn quick_keeps_batches_per_window() {
        for spec in SPECS {
            let q = spec.quick();
            assert_eq!(
                q.events_per_window.div_ceil(q.batch_events),
                spec.events_per_window.div_ceil(spec.batch_events),
                "{}",
                spec.name
            );
        }
    }
}
