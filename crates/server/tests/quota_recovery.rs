//! One quota rejection must cost a tenant one window, not the rest of its
//! stream.
//!
//! The wedge this pins down: a window whose *fire* trips the tenant's quota
//! (sort and merge intermediates count against it) used to stop the
//! engine's window drainer on the spot. Every later window whose watermark
//! had already been merged into the drain target — the normal state when
//! ingest runs ahead of a slow fire — then had no watermark left to respawn
//! a drainer, so it never fired: the serve loop ran out of input and
//! returned with the tenant having egressed nothing since the rejection.
//!
//! The reproduction needs no timing. Every window of the stream arrives
//! under a single closing watermark, so one drain target covers them all;
//! one window is large enough that its fire (which holds its events and
//! their filtered copy at once: a filter that keeps every event writes a
//! fresh array, where a sort would rewrite its input in place) exceeds a
//! quota that its resident events alone fit under; every other window is
//! small.

use sbt_attest::verify_tenant_trail;
use sbt_crypto::MasterSecret;
use sbt_engine::{Operator, Pipeline};
use sbt_server::{ServerConfig, StreamServer, TenantConfig, TenantStream};
use sbt_types::Event;
use sbt_workloads::datasets::{multi_tenant_streams, StreamChunk};
use sbt_workloads::generator::{Generator, GeneratorConfig};
use sbt_workloads::transport::Channel;
use std::collections::BTreeMap;

const WINDOWS: u32 = 6;
const SMALL: usize = 2_000;
const BIG: usize = 30_000;
const BIG_WINDOW: usize = 2;
const BATCH: usize = 1_000;
const K: usize = 3;
/// Holds all 40 000 resident events (480 KB, page-rounded per batch) with
/// room to fire a small window, but not the big window's events plus their
/// filtered copy (2 × 360 KB on top of the other windows).
const QUOTA: u64 = 768 * 1024;

/// The whole stream as one chunk: six windows of events, one watermark.
fn single_watermark_stream() -> (StreamChunk, Vec<Vec<Event>>) {
    let small = multi_tenant_streams(1, WINDOWS, SMALL, 16, 42).remove(0);
    let big = multi_tenant_streams(1, WINDOWS, BIG, 16, 7).remove(0);
    let per_window: Vec<Vec<Event>> = (0..WINDOWS as usize)
        .map(|w| if w == BIG_WINDOW { big[w].events.clone() } else { small[w].events.clone() })
        .collect();
    let chunk = StreamChunk {
        events: per_window.concat(),
        power_events: Vec::new(),
        watermark: small[WINDOWS as usize - 1].watermark,
    };
    (chunk, per_window)
}

/// The oracle: per key, the `K` largest values, as the wire pairs egress
/// carries them.
fn top_k(events: &[Event]) -> BTreeMap<u32, Vec<u64>> {
    let mut by_key: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for e in events {
        by_key.entry(e.key).or_default().push(e.value as u64);
    }
    for values in by_key.values_mut() {
        values.sort_unstable_by(|a, b| b.cmp(a));
        values.truncate(K);
    }
    by_key
}

fn opened_top_k(plain: &[u8]) -> BTreeMap<u32, Vec<u64>> {
    let mut by_key: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for pair in plain.chunks_exact(12) {
        let key = u32::from_le_bytes(pair[..4].try_into().unwrap());
        let value = u64::from_le_bytes(pair[4..].try_into().unwrap());
        by_key.entry(key).or_default().push(value);
    }
    for values in by_key.values_mut() {
        values.sort_unstable_by(|a, b| b.cmp(a));
    }
    by_key
}

#[test]
fn a_window_that_trips_the_quota_costs_only_itself() {
    let (chunk, per_window) = single_watermark_stream();
    let server = StreamServer::new(ServerConfig::default().with_cores(1));
    let pipeline = Pipeline::new("topk")
        .then(Operator::Filter { lo: 0, hi: u32::MAX })
        .then(Operator::TopKPerKey { k: K })
        .target_delay_ms(60_000)
        .batch_events(BATCH);
    let tenant = server.admit(TenantConfig::new("topk", QUOTA), pipeline).unwrap();
    let stream = TenantStream {
        tenant,
        generator: Generator::new(
            GeneratorConfig { batch_events: BATCH },
            Channel::for_tenant(&MasterSecret::demo(), tenant, 0),
            vec![chunk],
        ),
    };

    let report = server.serve(vec![stream]).unwrap();
    let progress = &report.per_tenant[0];
    let batches = (BIG + (WINDOWS as usize - 1) * SMALL) / BATCH;
    assert_eq!(progress.accepted_batches, batches as u64, "every batch fits under the quota");
    assert_eq!(progress.rejected_batches, 1, "exactly the big window's fire is rejected");

    // Every window but the rejected one egressed, in order, with the right
    // answer — the ones *after* the rejection included.
    let engine = server.engine(tenant).unwrap();
    let fired: Vec<u64> = engine.metrics().windows.iter().map(|w| w.window.0).collect();
    let expected: Vec<u64> = (0..WINDOWS as u64).filter(|w| *w != BIG_WINDOW as u64).collect();
    assert_eq!(fired, expected, "windows after the rejected one must still fire");
    let chain = server.verifier_keys(tenant).unwrap();
    let results = engine.results();
    assert_eq!(results.len(), expected.len());
    for (msg, window) in results.iter().zip(&expected) {
        let plain = msg.open_with(chain.latest()).expect("egress opens under the tenant's keys");
        assert_eq!(opened_top_k(&plain), top_k(&per_window[*window as usize]), "window {window}");
    }

    // The failed fire released everything it held, and the trail — which
    // records the lost window's ingress but no egress for it — verifies.
    let memory = server.data_plane().tenant_memory(tenant).unwrap();
    assert_eq!(memory.used_bytes, 0, "the rejected fire stranded quota");
    let segments = engine.drain_audit_segments();
    verify_tenant_trail(&segments, tenant, &chain).expect("the tenant's trail verifies");
}
