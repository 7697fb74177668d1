//! `WindowedIngress` against its definition.
//!
//! One windowed ingress decrypts a batch straight into its window arrays.
//! The reference is the Segment kernel over a `Vec`: the test decrypts and
//! parses each batch itself and cuts it with `segment_by_window`. Everything
//! observable must agree with it: the window arrays (egressed and opened),
//! their ids and window ids, the audit records with their wall-clock stamps
//! zeroed, the ingest counts, and the pages committed — each window's
//! page-rounded size, with no array for the raw batch. The batches cover
//! encrypted and cleartext payloads, generic and power events, fixed and
//! sliding windows, shuffled timestamps, sizes off the 340-event decrypt
//! window, an empty payload, and a payload that is not whole events —
//! which the windowed and the raw ingress refuse alike with `BadIngress`,
//! holding nothing.
//!
//! Batches of one window appended to its one array, whether in one list
//! or in three on the same lane, grow that array alike; on three lanes they
//! are three arrays, which cost the part-filled pages the appends save.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbt_attest::{AuditRecord, DataRef, UArrayRef};
use sbt_crypto::{AesCtr, MasterSecret};
use sbt_dataplane::{Command, DataPlane, DataPlaneConfig, DataPlaneError, InvokeOutput, Reply};
use sbt_primitives::segment_by_window;
use sbt_types::{Duration, Event, PowerEvent, TenantId, WindowSpec, EVENT_BYTES};
use sbt_tz::{Platform, World, WorldGuard};
use sbt_uarray::TeePager;
use std::sync::Arc;

const T: TenantId = TenantId::DEFAULT;

fn in_tee<R>(f: impl FnOnce() -> R) -> R {
    let _g = WorldGuard::enter(World::Secure);
    f()
}

fn plane() -> Arc<DataPlane> {
    DataPlane::new(Platform::hikey(), DataPlaneConfig::default())
}

/// One batch and the windows it is cut into.
struct Case {
    payload: Vec<u8>,
    encrypted: bool,
    is_power: bool,
    keystream_block: u32,
    spec: WindowSpec,
}

impl Case {
    /// `n` events over `span_ms` of event time from `from_ms`, shuffled
    /// when `shuffle` holds, sent as generic or power events, encrypted at
    /// `keystream_block` or in the clear.
    fn new(n: u32, from_ms: u32, span_ms: u32, shuffle: bool, seed: u64) -> Self {
        let mut ts: Vec<u32> = (0..n).map(|i| from_ms + i * span_ms / n.max(1)).collect();
        if shuffle {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..ts.len()).rev() {
                ts.swap(i, rng.gen_range(0..=i));
            }
        }
        let events: Vec<Event> = ts
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new((i as u32 * 7 + seed as u32) % 13, i as u32 ^ 0xA5A5, t))
            .collect();
        Case {
            payload: Event::slice_to_bytes(&events),
            encrypted: false,
            is_power: false,
            keystream_block: 0,
            spec: WindowSpec::fixed(Duration::from_secs(1)),
        }
    }

    /// The same events' timestamps as 16-byte power events.
    fn power(mut self) -> Self {
        let power: Vec<PowerEvent> = Event::slice_from_bytes(&self.payload)
            .iter()
            .map(|e| PowerEvent::new(e.value, e.key, e.key >> 2, e.ts_ms))
            .collect();
        self.payload = PowerEvent::slice_to_bytes(&power);
        self.is_power = true;
        self
    }

    /// Encrypted under the default tenant's epoch-0 source key at `block`.
    fn encrypted(mut self, block: u32) -> Self {
        let keys = MasterSecret::demo().tenant_keys(T.0, 0);
        AesCtr::new(&keys.source_key, &keys.source_nonce)
            .apply_keystream_at(&mut self.payload, block);
        self.encrypted = true;
        self.keystream_block = block;
        self
    }

    fn windows(mut self, spec: WindowSpec) -> Self {
        self.spec = spec;
        self
    }

    fn events(&self) -> u64 {
        let record = if self.is_power { 16 } else { EVENT_BYTES };
        (self.payload.len() / record) as u64
    }

    fn windowed(&self) -> Command<'_> {
        self.windowed_on(0)
    }

    fn windowed_on(&self, lane: u32) -> Command<'_> {
        Command::WindowedIngress {
            payload: &self.payload,
            encrypted: self.encrypted,
            is_power: self.is_power,
            keystream_block: self.keystream_block,
            spec: self.spec,
            side: 0,
            lane,
        }
    }

    fn raw(&self) -> Command<'_> {
        Command::Ingress {
            payload: &self.payload,
            encrypted: self.encrypted,
            is_power: self.is_power,
            keystream_block: self.keystream_block,
        }
    }

    /// The batch's events, decrypted and parsed here, power events
    /// projected onto the generic layout.
    fn plaintext(&self) -> Vec<Event> {
        let mut bytes = self.payload.clone();
        if self.encrypted {
            let keys = MasterSecret::demo().tenant_keys(T.0, 0);
            AesCtr::new(&keys.source_key, &keys.source_nonce)
                .apply_keystream_at(&mut bytes, self.keystream_block);
        }
        if self.is_power {
            PowerEvent::slice_from_bytes(&bytes).iter().map(PowerEvent::to_generic).collect()
        } else {
            Event::slice_from_bytes(&bytes)
        }
    }
}

/// Zero the wall-clock stamps so two planes' records compare.
fn strip_ts(records: Vec<AuditRecord>) -> Vec<AuditRecord> {
    use AuditRecord::*;
    records
        .into_iter()
        .map(|r| match r {
            Ingress { data, .. } => Ingress { ts_ms: 0, data },
            Egress { data, .. } => Egress { ts_ms: 0, data },
            Windowing { input, win_no, output, .. } => {
                Windowing { ts_ms: 0, input, win_no, output }
            }
            other => other,
        })
        .collect()
}

fn records(dp: &DataPlane) -> Vec<AuditRecord> {
    let segments = dp.drain_audit_segments(T).unwrap();
    strip_ts(
        segments
            .iter()
            .flat_map(|s| sbt_attest::decompress_records(&s.compressed).expect("segment decodes"))
            .collect(),
    )
}

fn pages(dp: &DataPlane) -> u64 {
    dp.platform().stats().snapshot().tee_pages_committed
}

/// Egress and retire each window array, in order; the opened results.
fn drain_windows(dp: &DataPlane, windows: &[InvokeOutput]) -> Vec<Vec<u8>> {
    let keys = dp.verifier_keys(T).unwrap();
    windows
        .iter()
        .map(|w| {
            let msg = in_tee(|| dp.egress(T, w.opaque)).unwrap();
            in_tee(|| dp.retire(T, w.opaque)).unwrap();
            msg.open_with(keys.latest()).expect("the window array opens under its keys")
        })
        .collect()
}

/// Run every case on a fresh plane and compare it with the Segment kernel
/// over the case's own decryption.
fn agree(cases: &[Case]) {
    let dp = plane();
    let (mut next_id, mut expected, mut window_pages) = (0u32, Vec::new(), 0);
    for (i, case) in cases.iter().enumerate() {
        let reference = segment_by_window(&case.plaintext(), &case.spec);
        let replies = in_tee(|| dp.call(T, &[case.windowed()])).unwrap();
        let [Reply::WindowedIngress { events, windows }] = &replies[..] else {
            panic!("case {i}: a windowed ingress replies its windows, got {replies:?}")
        };
        assert_eq!(*events as u64, case.events(), "case {i}: event count");
        let shape = windows.iter().map(|w| (w.window, w.len)).collect::<Vec<_>>();
        let want = reference.iter().map(|(w, evs)| (Some(*w), evs.len())).collect::<Vec<_>>();
        assert_eq!(shape, want, "case {i}: window ids and lengths");
        let contents = reference.iter().map(|(_, evs)| Event::slice_to_bytes(evs));
        assert_eq!(drain_windows(&dp, windows), contents.collect::<Vec<_>>(), "case {i}");
        // The batch id is minted first, then one id per window, in window
        // order; each window array is egressed in that order.
        let batch = UArrayRef(next_id);
        expected.push(AuditRecord::Ingress { ts_ms: 0, data: DataRef::UArray(batch) });
        for (j, (w, _)) in (1..).zip(&reference) {
            let output = UArrayRef(next_id + j);
            expected.push(AuditRecord::Windowing {
                ts_ms: 0,
                input: batch,
                win_no: w.0 as u16,
                output,
            });
        }
        for j in 1..=reference.len() as u32 {
            expected.push(AuditRecord::Egress { ts_ms: 0, data: UArrayRef(next_id + j) });
        }
        next_id += 1 + reference.len() as u32;
        window_pages += reference
            .iter()
            .map(|(_, evs)| TeePager::pages_for((evs.len() * EVENT_BYTES) as u64))
            .sum::<u64>();
    }
    assert!(expected.iter().any(|r| matches!(r, AuditRecord::Windowing { .. })));
    assert_eq!(records(&dp), expected);
    let events: u64 = cases.iter().map(Case::events).sum();
    let bytes: u64 = cases.iter().map(|c| c.payload.len() as u64).sum();
    assert_eq!(dp.tenant_ingest(T).unwrap(), (events, bytes));
    let stats = dp.stats().snapshot();
    assert_eq!(
        (stats.events_ingested, stats.bytes_ingested, stats.audit_records, stats.invocations),
        (events, bytes, expected.len() as u64, cases.len() as u64)
    );
    assert_eq!(pages(&dp), window_pages, "each window's pages, and no raw array's");
    assert_eq!(dp.live_refs(T), 0);
    assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0);
}

/// Sizes around the 340-event decrypt window (255 power events), none a
/// multiple of it, and the empty batch.
const SIZES: [u32; 7] = [0, 1, 339, 341, 1_000, 2_500, 4_321];

#[test]
fn fixed_windows_agree_across_sizes_layouts_and_keystreams() {
    let mut cases = Vec::new();
    for (i, &n) in SIZES.iter().enumerate() {
        let from = i as u32 * 700;
        cases.push(Case::new(n, from, 1_500, false, i as u64));
        cases.push(Case::new(n, from, 2_500, false, i as u64).encrypted(12_345 + i as u32));
        cases.push(Case::new(n, from, 1_500, false, i as u64).power());
        cases.push(Case::new(n, from, 800, false, i as u64).power().encrypted(u32::MAX - 100));
    }
    agree(&cases);
}

#[test]
fn sliding_windows_and_shuffled_timestamps_agree() {
    let sliding = WindowSpec::sliding(Duration::from_millis(2_500), Duration::from_secs(1));
    let mut cases = Vec::new();
    for (i, &n) in SIZES.iter().enumerate() {
        let seed = 40 + i as u64;
        cases.push(Case::new(n, 300, 3_000, true, seed));
        cases.push(Case::new(n, 300, 3_000, false, seed).windows(sliding));
        cases.push(Case::new(n, 0, 5_000, true, seed).windows(sliding).encrypted(7));
        cases.push(Case::new(n, 0, 5_000, true, seed).power().windows(sliding));
    }
    agree(&cases);
}

#[test]
fn a_payload_of_no_whole_events_is_refused_alike_holding_nothing() {
    let (windowed, raw) = (plane(), plane());
    for (len, is_power) in [(13, false), (11, false), (20, true), (4_081, false)] {
        let case = Case {
            payload: vec![7; len],
            encrypted: false,
            is_power,
            keystream_block: 0,
            spec: WindowSpec::fixed(Duration::from_secs(1)),
        };
        let a = in_tee(|| windowed.call(T, &[case.windowed()])).unwrap_err();
        let b = in_tee(|| raw.call(T, &[case.raw()])).unwrap_err();
        assert!(matches!(a, DataPlaneError::BadIngress(_)), "{len} bytes: {a:?}");
        assert_eq!(a, b);
    }
    for dp in [&windowed, &raw] {
        assert_eq!(dp.live_refs(T), 0);
        assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0);
        assert_eq!(dp.platform().secure_mem().in_use(), 0);
        assert_eq!(pages(dp), 0);
        assert_eq!(dp.tenant_ingest(T).unwrap(), (0, 0));
        assert!(records(dp).is_empty());
    }
}

#[test]
fn one_group_or_three_on_one_lane_grow_one_window_array_alike() {
    // Three batches inside the first one-second window, none a whole
    // number of pages: one list on lane 0, three lists on lane 0, and
    // three lists on lanes 0, 1 and 2.
    let cases = [
        Case::new(700, 0, 900, false, 1),
        Case::new(1_000, 0, 900, true, 2),
        Case::new(341, 100, 800, false, 3).encrypted(9),
    ];
    let (one, three, lanes) = (plane(), plane(), plane());
    let grouped: Vec<Command<'_>> = cases.iter().map(Case::windowed).collect();
    let mut replies = [in_tee(|| one.call(T, &grouped)).unwrap(), Vec::new(), Vec::new()];
    for (lane, case) in (0..).zip(&cases) {
        replies[1].extend(in_tee(|| three.call(T, &[case.windowed()])).unwrap());
        replies[2].extend(in_tee(|| lanes.call(T, &[case.windowed_on(lane)])).unwrap());
    }
    // Each plane's window arrays, in the order they opened.
    let [wa, wb, wc] = replies.map(|replies| {
        let mut arrays: Vec<InvokeOutput> = Vec::new();
        for reply in replies {
            let Reply::WindowedIngress { windows, .. } = reply else { panic!("{reply:?}") };
            let [w] = &windows[..] else { panic!("one window, got {windows:?}") };
            match arrays.iter_mut().find(|a| a.opaque == w.opaque) {
                Some(a) => *a = *w,
                None => arrays.push(*w),
            }
        }
        arrays
    });
    let total: usize = cases.iter().map(|c| c.events() as usize).sum();
    assert_eq!((wa.len(), wb.len(), wc.len()), (1, 1, 3));
    assert_eq!((wa[0].len, wb[0].len), (total, total), "each batch grew the one array");
    // The lanes' arrays, opened one after another, hold what the one
    // array holds.
    let opened = |dp: &DataPlane, windows: &[InvokeOutput]| -> Vec<u8> {
        let keys = dp.verifier_keys(T).unwrap();
        let messages: Vec<_> = windows.iter().map(|w| in_tee(|| dp.egress(T, w.opaque))).collect();
        messages.into_iter().flat_map(|m| m.unwrap().open_with(keys.latest()).unwrap()).collect()
    };
    let (pa, pb, pc) = (opened(&one, &wa), opened(&three, &wb), opened(&lanes, &wc));
    assert_eq!(pa, pb, "the same array contents");
    assert_eq!(pa, pc, "the same events, over three arrays");
    for (dp, windows) in [(&one, &wa), (&three, &wb), (&lanes, &wc)] {
        for w in windows {
            in_tee(|| dp.retire(T, w.opaque)).unwrap();
        }
    }
    let ra = records(&one);
    assert_eq!(ra, records(&three), "the same records, ids and all");
    assert_eq!(ra.len(), 2 * cases.len() + 1, "an ingress and a windowing per batch, an egress");
    assert_eq!(pages(&one), pages(&three), "the same pages");
    let apart: u64 = cases.iter().map(|c| TeePager::pages_for(c.events() * 12)).sum();
    let together = TeePager::pages_for(total as u64 * 12);
    assert_eq!(pages(&lanes) - pages(&one), apart - together, "the part-filled pages saved");
    for dp in [&one, &three, &lanes] {
        assert_eq!(dp.live_refs(T), 0);
        assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0);
        assert_eq!(dp.platform().secure_mem().in_use(), 0);
    }
}
