//! Group commit: a lane ingests its batches in groups, one world switch
//! per group.
//!
//! A lane sends a window's batches as one command list: a group stops at
//! the watermark (or at the tenant's quota headroom, which these quotas
//! never reach), so a window of 25 batches is one ingest crossing and no
//! group carries batches of two windows. The watermark makes no crossing of
//! its own: the window's fire records it at the head of its first list. The
//! window's 25 batches are one array, so the fire adds its own lists: one
//! for WinSum, and 2 for a TopK window on one worker (the array's sort,
//! then the tail). A group is
//! one transaction: a quota trip rejects every batch in it, for one
//! penalty, and the lane then sends groups of one until a group is
//! accepted.

use sbt_attest::{verify_tenant_trail, Verifier};
use sbt_crypto::MasterSecret;
use sbt_engine::{Operator, Pipeline};
use sbt_server::{ServerConfig, StreamServer, TenantConfig, TenantStream};
use sbt_telemetry::FlightReason;
use sbt_types::TenantId;
use sbt_workloads::datasets::{multi_tenant_streams, StreamChunk};
use sbt_workloads::generator::{Generator, GeneratorConfig};
use sbt_workloads::transport::Channel;
use std::collections::BTreeMap;

const BATCH: usize = 1_000;

fn window_sum(name: &str, batch: usize) -> Pipeline {
    Pipeline::new(name).then(Operator::WindowSum).target_delay_ms(60_000).batch_events(batch)
}

fn stream(tenant: TenantId, batch: usize, chunks: Vec<StreamChunk>) -> TenantStream {
    TenantStream {
        tenant,
        generator: Generator::new(
            GeneratorConfig { batch_events: batch },
            Channel::for_tenant(&MasterSecret::demo(), tenant, 0),
            chunks,
        ),
    }
}

#[test]
fn a_winsum_window_of_25_batches_is_1_ingest_and_1_fire_crossing_per_lane() {
    const WINDOWS: u32 = 3;
    const WINDOW: usize = 25 * BATCH;
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    let tenants = ["a", "b"].map(|name| {
        server.admit(TenantConfig::new(name, 32 << 20), window_sum(name, BATCH)).unwrap()
    });
    let loads = multi_tenant_streams(2, WINDOWS, WINDOW, 64, 21);
    let before = tenants.map(|id| server.engine(id).unwrap().boundary_events());
    let streams =
        tenants.iter().zip(&loads).map(|(id, chunks)| stream(*id, BATCH, chunks.clone())).collect();
    let report = server.serve(streams).unwrap();

    for (t, id) in tenants.iter().enumerate() {
        let progress = &report.per_tenant[t];
        assert_eq!(progress.accepted_batches, u64::from(WINDOWS) * 25);
        assert_eq!(progress.rejected_batches, 0);
        assert_eq!(progress.results, WINDOWS as usize);
        let engine = server.engine(*id).unwrap();
        let boundary = engine.boundary_events();
        // Trusted IO: every switch is one SMC invocation.
        assert_eq!(boundary.switches, boundary.invocations);
        // Per window: one ingest group, and the WindowSum fire's one list,
        // which records the watermark.
        let crossings = boundary.switches - before[t].switches;
        assert_eq!(crossings, u64::from(WINDOWS) * (1 + 1), "tenant {t}");

        // The opened results are the per-window oracle's, and the trail
        // replays clean against the declared plan.
        let keys = server.verifier_keys(*id).unwrap();
        for (w, message) in engine.results().iter().enumerate() {
            let plain = message.open_with(keys.latest()).expect("opens under its own keys");
            let sum = u64::from_le_bytes(plain[..8].try_into().unwrap());
            let expected: u64 = loads[t][w].events.iter().map(|e| e.value as u64).sum();
            assert_eq!(sum, expected, "tenant {t} window {w}");
        }
        let records = verify_tenant_trail(&engine.drain_audit_segments(), *id, &keys)
            .expect("the trail verifies");
        let replay = Verifier::new(engine.pipeline().spec()).replay(&records);
        assert!(replay.is_correct(), "tenant {t}: {:?}", replay.violations);
        assert_eq!(replay.egressed, WINDOWS as usize);
    }
}

#[test]
fn a_topk_window_of_25_batches_on_one_worker_is_1_ingest_and_2_fire_crossings() {
    const WINDOWS: u32 = 3;
    const WINDOW: usize = 25 * BATCH;
    let server = StreamServer::new(ServerConfig::default().with_cores(1));
    let pipeline = Pipeline::new("topk")
        .then(Operator::TopKPerKey { k: 10 })
        .target_delay_ms(60_000)
        .batch_events(BATCH);
    let id = server.admit(TenantConfig::new("topk", 32 << 20), pipeline).unwrap();
    let loads = multi_tenant_streams(1, WINDOWS, WINDOW, 64, 33);
    let before = server.engine(id).unwrap().boundary_events();
    let report = server.serve(vec![stream(id, BATCH, loads[0].clone())]).unwrap();

    let progress = &report.per_tenant[0];
    assert_eq!(progress.accepted_batches, u64::from(WINDOWS) * 25);
    assert_eq!(progress.results, WINDOWS as usize);
    let engine = server.engine(id).unwrap();
    let boundary = engine.boundary_events();
    assert_eq!(boundary.switches, boundary.invocations);
    // Per window: one ingest group, and the fire: the sort of the window's
    // one array in one list, which records the watermark, then the tail.
    let crossings = boundary.switches - before.switches;
    assert_eq!(crossings, u64::from(WINDOWS) * (1 + 2));

    // The opened results are the per-window top 10 of each key, and the
    // trail replays clean against the declared plan.
    let keys = server.verifier_keys(id).unwrap();
    for (w, message) in engine.results().iter().enumerate() {
        let plain = message.open_with(keys.latest()).expect("opens under its own keys");
        let mut got: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for pair in plain.chunks_exact(12) {
            let key = u32::from_le_bytes(pair[..4].try_into().unwrap());
            let value = u64::from_le_bytes(pair[4..].try_into().unwrap()) as u32;
            got.entry(key).or_default().push(value);
        }
        let mut expected: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for e in &loads[0][w].events {
            expected.entry(e.key).or_default().push(e.value);
        }
        for values in expected.values_mut() {
            values.sort_unstable_by(|a, b| b.cmp(a));
            values.truncate(10);
        }
        assert_eq!(got, expected, "window {w}");
    }
    let records =
        verify_tenant_trail(&engine.drain_audit_segments(), id, &keys).expect("the trail verifies");
    let replay = Verifier::new(engine.pipeline().spec()).replay(&records);
    assert!(replay.is_correct(), "{:?}", replay.violations);
    assert_eq!(replay.egressed, WINDOWS as usize);
}

#[test]
fn a_rejected_group_counts_every_batch_once_penalized_then_groups_shrink_to_one() {
    // A quota below one 500-event batch: every group is rejected. No batch
    // could ever fit, so window 0 is one group of 4 (4 rejected, 1
    // penalty); after it the lane sends groups of one, so window 1 is 4
    // groups (4 rejected, 4 penalties).
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    let tiny = server.admit(TenantConfig::new("tiny", 4 * 1024), window_sum("tiny", 500)).unwrap();
    let loads = multi_tenant_streams(1, 2, 2_000, 64, 5);
    let penalties = || server.telemetry().snapshot().counter_u64("drr.penalties");
    let penalties_before = penalties();
    let _ = server.telemetry().take_flight_dumps();

    let report = server.serve(vec![stream(tiny, 500, loads[0].clone())]).unwrap();
    let progress = &report.per_tenant[0];
    assert_eq!(progress.accepted_batches, 0);
    assert_eq!(progress.rejected_batches, 8);
    assert_eq!(progress.ingested_events, 0);
    assert_eq!(penalties() - penalties_before, 1 + 4);
    let dumps = server.telemetry().take_flight_dumps();
    assert_eq!(dumps.len(), 1 + 4, "one flight dump per rejected group: {dumps:?}");
    assert!(dumps.iter().all(|d| d.tenant == tiny.0 && d.reason == FlightReason::QuotaExhausted));
    let memory = server.data_plane().tenant_memory(tiny).unwrap();
    assert_eq!(memory.used_bytes, 0, "no rejected batch holds quota");
    assert_eq!(server.data_plane().live_refs(tiny), 0);
}
