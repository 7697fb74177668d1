//! Layer probes: each replays a sample of *this workload's* inputs against
//! one layer's public functions and times them from here, in isolation —
//! the "time each primitive alone, then reconcile against the composed
//! path" method of "On The Performance of ARM TrustZone". Run only in the
//! traced pass, never beside an end-to-end measurement.

use crate::cloud::Trail;
use crate::stats::median;
use crate::workload::{Kind, Spec, FILTER_HI, TOPK_K};
use sbt_attest::{
    decompress_records, verify_tenant_trail, verify_tenant_trail_parallel, AuditLog, AuditRecord,
    Verifier,
};
use sbt_crypto::{hmac_sha256, AesCtr, SigningKey};
use sbt_dataplane::{DataPlane, DataPlaneConfig, PrimitiveParams};
use sbt_engine::{Engine, EngineConfig, EngineVariant, Executor, StreamSide, TeeGateway};
use sbt_types::{Duration as EventDuration, Event, KeyValue, PrimitiveKind, WindowSpec};
use sbt_tz::{EntryFunction, Platform};
use sbt_uarray::{HintSet, TeePager, UArray, UArrayId, PAGE_SIZE};
use sbt_workloads::transport::Delivery;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median seconds per call of `f` over `reps` samples. The first call warms
/// up and sizes the samples: a call shorter than the clock can resolve is
/// repeated until one sample spans at least 200 µs, so a 100 ns operation
/// does not read as a handful of identical integers.
fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let calls = ((200e-6 / once).ceil() as usize).clamp(1, 100_000);
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&samples)
}

fn rate(units: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        units / secs
    } else {
        0.0
    }
}

/// `tz.smc_empty_ns`: one world-switch round trip with an empty body.
pub fn smc_empty_ns() -> f64 {
    let platform = Platform::hikey();
    let session = platform.smc().open_session();
    session.invoke(EntryFunction::Initialize, || {}).expect("fresh session initializes");
    median_secs(9, || session.invoke(EntryFunction::InvokePrimitive, || {}).is_ok()) * 1e9
}

fn pager_of(platform: &Platform) -> TeePager {
    TeePager::new(platform.secure_mem().clone(), platform.stats().clone(), *platform.cost())
}

/// `uarray.commit_ns_per_page`: `produce_exact` + `reclaim` of one batch
/// extent (commit all pages up front, fill, release).
pub fn uarray_commit_ns_per_page(batch: &[Event]) -> f64 {
    let platform = Platform::hikey();
    let pager = pager_of(&platform);
    let pages = ((std::mem::size_of_val(batch) as u64).div_ceil(PAGE_SIZE)).max(1);
    let secs = median_secs(15, || {
        let mut array = UArray::<Event>::produce_exact(UArrayId(1), batch.len(), &pager, |dst| {
            dst.extend_from_slice(batch)
        })
        .expect("the probe extent fits the secure carve-out");
        array.reclaim(&pager)
    });
    secs * 1e9 / pages as f64
}

/// `uarray.grow_ns_per_page`: incremental `extend_from_slice` growth up to
/// this workload's result size (the producer does not know its output size).
pub fn uarray_grow_ns_per_page(result_bytes: usize) -> f64 {
    let platform = Platform::hikey();
    let pager = pager_of(&platform);
    let records = (result_bytes / 12).max(1);
    let chunk: Vec<KeyValue> = (0..1024u32).map(|i| KeyValue::new(i, u64::from(i))).collect();
    let pages = ((records * std::mem::size_of::<KeyValue>()) as u64).div_ceil(PAGE_SIZE).max(1);
    let secs = median_secs(15, || {
        let mut array = UArray::<KeyValue>::with_reservation(UArrayId(2), 0);
        let mut left = records;
        while left > 0 {
            let n = left.min(chunk.len());
            array.extend_from_slice(&chunk[..n], &pager).expect("growth fits the carve-out");
            left -= n;
        }
        array.reclaim(&pager)
    });
    secs * 1e9 / pages as f64
}

/// `crypto.ctr_mb_s`: AES-CTR keystream over one batch payload.
pub fn ctr_mb_s(payload: &[u8]) -> f64 {
    let ctr = AesCtr::new(&[7u8; 16], &[9u8; 16]);
    let mut dst = vec![0u8; payload.len()];
    let secs = median_secs(15, || ctr.apply_keystream_into(payload, &mut dst, 0));
    rate(payload.len() as f64 / 1e6, secs)
}

/// `crypto.hmac_mb_s`: HMAC-SHA256 over one window's egress size.
pub fn hmac_mb_s(result_bytes: usize) -> f64 {
    let message = vec![0x5au8; result_bytes.max(1)];
    let secs = median_secs(9, || hmac_sha256(b"probe-key", &message));
    rate(message.len() as f64 / 1e6, secs)
}

/// Rates of the `sbt_primitives` functions on one window's events, Mevents/s
/// of input; 0 where this workload's pipelines never call the primitive.
pub struct PrimitiveRates {
    pub segment: f64,
    pub sort: f64,
    pub merge: f64,
    pub topk: f64,
    pub join: f64,
    pub sum: f64,
    pub filter: f64,
}

pub fn primitive_rates(kind: Kind, left: &[Event], right: &[Event]) -> PrimitiveRates {
    let n = left.len() as f64 / 1e6;
    let mev = |secs: f64, events: f64| rate(events, secs);
    let spec = WindowSpec::fixed(EventDuration::from_secs(1));
    let sorts = matches!(kind, Kind::TopK | Kind::Join | Kind::Tenants);
    let mut out = PrimitiveRates {
        segment: mev(median_secs(9, || sbt_primitives::segment_by_window(left, &spec)), n),
        sort: 0.0,
        merge: 0.0,
        topk: 0.0,
        join: 0.0,
        sum: 0.0,
        filter: 0.0,
    };
    if sorts {
        out.sort = mev(median_secs(9, || sbt_primitives::sort_events_by_key(left)), n);
        let (a, b) = left.split_at(left.len() / 2);
        let (a, b) = (sbt_primitives::sort_events_by_key(a), sbt_primitives::sort_events_by_key(b));
        out.merge = mev(median_secs(9, || sbt_primitives::merge_sorted_by_key(&a, &b)), n);
    }
    if matches!(kind, Kind::TopK | Kind::Tenants) {
        let sorted = sbt_primitives::sort_events_by_key(left);
        out.topk = mev(median_secs(9, || sbt_primitives::top_k_per_key(&sorted, TOPK_K)), n);
    }
    if kind == Kind::Join {
        let l = sbt_primitives::sort_events_by_key(left);
        let r = sbt_primitives::sort_events_by_key(right);
        let both = (left.len() + right.len()) as f64 / 1e6;
        out.join = mev(median_secs(9, || sbt_primitives::join_by_key(&l, &r)), both);
    }
    if matches!(kind, Kind::WinSum | Kind::Tenants) {
        out.sum = mev(median_secs(15, || sbt_primitives::sum(left)), n);
    }
    if kind == Kind::Tenants {
        out.filter = mev(median_secs(15, || sbt_primitives::filter_band(left, 0, FILTER_HI)), n);
    }
    out
}

/// The data plane's entry points timed through a gateway of its own.
pub struct PlaneProbe {
    pub ingress_ns_per_event: f64,
    pub invoke_overhead_us: f64,
    pub egress_seal_us: f64,
}

pub fn plane_probe(batch: &Delivery, result_bytes: usize) -> PlaneProbe {
    let dp = DataPlane::new(Platform::hikey(), DataPlaneConfig::default());
    let gw = TeeGateway::open(dp);

    // Ingress of one batch of this workload's size (decrypt in place into a
    // reserved uArray), retired outside the clock.
    let ingress_secs = {
        let mut samples = Vec::new();
        for _ in 0..12 {
            let t = Instant::now();
            let ingested = gw
                .ingress_shared(
                    &batch.wire_bytes,
                    batch.encrypted,
                    batch.is_power,
                    batch.keystream_block,
                )
                .expect("the probe batch ingests");
            samples.push(t.elapsed().as_secs_f64());
            gw.retire(ingested.opaque).expect("the probe array retires");
        }
        median(&samples[1..])
    };

    // The fixed cost of one invocation: a primitive over a 1-event input.
    let one = gw
        .ingress(&Event::slice_to_bytes(&[Event::new(1, 1, 0)]), false, false, 0)
        .expect("one event ingests");
    let invoke_secs = median_secs(9, || {
        let out = gw
            .invoke(PrimitiveKind::Sum, &[one.opaque], PrimitiveParams::None, &HintSet::none())
            .expect("sum over one event");
        gw.retire(out[0].opaque).expect("the scalar retires")
    });
    // An invoke and its retire are two crossings; the overhead of one call
    // is half the pair.
    let invoke_overhead_us = invoke_secs * 1e6 / 2.0;

    // Egress (serialize, encrypt, HMAC, audit, flush) at the result size.
    let events: Vec<Event> =
        (0..(result_bytes / 12).max(1) as u32).map(|i| Event::new(i, i, 0)).collect();
    let result = gw
        .ingress(&Event::slice_to_bytes(&events), false, false, 0)
        .expect("the result-sized array ingests");
    let egress_secs = median_secs(9, || gw.egress(result.opaque).expect("egress seals"));

    PlaneProbe {
        ingress_ns_per_event: ingress_secs * 1e9 / batch.event_count.max(1) as f64,
        invoke_overhead_us,
        egress_seal_us: egress_secs * 1e6,
    }
}

/// `dataplane.checkpoint_ms` / `.snapshot_kb`: `Engine::checkpoint` with one
/// window ingested and not yet fired.
pub fn checkpoint_probe(spec: &Spec, left: &[Delivery], right: &[Delivery]) -> (f64, f64) {
    let pipeline = match spec.kind {
        Kind::Tenants => spec.tenant_pipeline(0),
        _ => spec.pipeline(),
    };
    let mut times = Vec::new();
    let mut kb = 0.0;
    for _ in 0..5 {
        let engine =
            Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, 1), pipeline.clone());
        engine.ingest_many(left.to_vec(), StreamSide::Left).expect("probe window ingests");
        if !right.is_empty() {
            engine.ingest_many(right.to_vec(), StreamSide::Right).expect("probe window ingests");
        }
        let t = Instant::now();
        let sealed = engine.checkpoint().expect("a quiescent engine checkpoints");
        times.push(t.elapsed().as_secs_f64() * 1e3);
        kb = sealed.len() as f64 / 1024.0;
    }
    (median(&times), kb)
}

/// The audit layer replayed over the run's own records.
pub struct AttestProbe {
    pub append_ns_per_record: f64,
    pub seal_us_per_segment: f64,
    pub decode_mb_s: f64,
    pub verify_serial_krec_s: f64,
    pub verify_parallel_krec_s: f64,
    pub replay_krec_s: f64,
}

pub fn attest_probe(trails: &[Trail], workers: usize) -> AttestProbe {
    let records: Vec<Vec<AuditRecord>> = trails
        .iter()
        .map(|t| verify_tenant_trail(&t.segments, t.tenant, &t.keychain).unwrap_or_default())
        .collect();
    let total_records: usize = records.iter().map(Vec::len).sum();
    let krec = total_records as f64 / 1e3;

    // Append and seal, separated: the log never auto-flushes (threshold
    // `usize::MAX`), the probe seals every 256 records as the data plane's
    // default threshold would.
    let (mut append_samples, mut seal_samples) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (mut append_s, mut seal_s, mut segments) = (0.0, 0.0, 0usize);
        for (trail, recs) in trails.iter().zip(&records) {
            let mut log = AuditLog::for_tenant(SigningKey::new(b"probe"), usize::MAX, trail.tenant);
            for block in recs.chunks(256) {
                let owned = block.to_vec();
                let t = Instant::now();
                for record in owned {
                    black_box(log.append(record));
                }
                append_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let sealed = log.flush();
                seal_s += t.elapsed().as_secs_f64();
                if let Some(segment) = sealed {
                    segments += 1;
                    log.recycle(segment.compressed);
                }
            }
        }
        append_samples.push(append_s * 1e9 / total_records.max(1) as f64);
        seal_samples.push(seal_s * 1e6 / segments.max(1) as f64);
    }

    let compressed_mb: f64 =
        trails.iter().flat_map(|t| &t.segments).map(|s| s.compressed.len() as f64).sum::<f64>()
            / 1e6;
    let decode_secs = median_secs(9, || {
        for segment in trails.iter().flat_map(|t| &t.segments) {
            black_box(decompress_records(&segment.compressed).is_ok());
        }
    });
    let serial_secs = median_secs(9, || {
        for t in trails {
            black_box(verify_tenant_trail(&t.segments, t.tenant, &t.keychain).is_ok());
        }
    });
    let pool = Executor::new(workers);
    let shared: Vec<Arc<Vec<_>>> = trails.iter().map(|t| Arc::new(t.segments.clone())).collect();
    let parallel_secs = median_secs(9, || {
        for (t, segments) in trails.iter().zip(&shared) {
            black_box(verify_tenant_trail_parallel(segments, t.tenant, &t.keychain, &pool).is_ok());
        }
    });
    let replay_secs = median_secs(9, || {
        for (t, recs) in trails.iter().zip(&records) {
            black_box(Verifier::new(t.spec.clone()).replay(recs));
        }
    });

    AttestProbe {
        append_ns_per_record: median(&append_samples),
        seal_us_per_segment: median(&seal_samples),
        decode_mb_s: rate(compressed_mb, decode_secs),
        verify_serial_krec_s: rate(krec, serial_secs),
        verify_parallel_krec_s: rate(krec, parallel_secs),
        replay_krec_s: rate(krec, replay_secs),
    }
}
