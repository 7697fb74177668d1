//! Multi-tenant integration tests: N pipelines over one shared TEE.
//!
//! Covers the serving layer end to end — admission, weighted round-robin
//! scheduling, per-tenant quotas with per-tenant backpressure, strict
//! reference/audit isolation (including a randomized interleaving property
//! test), and independent per-tenant trail verification.

use proptest::prelude::*;
use sbt_dataplane::DataPlaneError;
use sbt_engine::TeeGateway;
use std::collections::BTreeMap;
use streambox_tz::prelude::*;

const MB: u64 = 1024 * 1024;

fn sum_by_key_pipeline(name: &str, batch: usize) -> Pipeline {
    Pipeline::new(name).then(Operator::SumByKey).target_delay_ms(60_000).batch_events(batch)
}

/// Decode a SumByKey egress payload into (key -> (sum, count)).
fn decode_key_aggs(plain: &[u8]) -> BTreeMap<u32, (u64, u64)> {
    plain
        .chunks_exact(20)
        .map(|c| {
            (
                u32::from_le_bytes(c[0..4].try_into().unwrap()),
                (
                    u64::from_le_bytes(c[4..12].try_into().unwrap()),
                    u64::from_le_bytes(c[12..20].try_into().unwrap()),
                ),
            )
        })
        .collect()
}

/// Oracle: per-key (sum, count) computed directly from generated chunks.
fn oracle_key_aggs(events: &[Event]) -> BTreeMap<u32, (u64, u64)> {
    let mut out: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for e in events {
        let entry = out.entry(e.key).or_insert((0, 0));
        entry.0 += e.value as u64;
        entry.1 += 1;
    }
    out
}

#[test]
fn served_tenants_produce_correct_isolated_results_and_trails() {
    let tenants = 4usize;
    let windows = 2u32;
    let keys = 24u32;
    let server = StreamServer::new(ServerConfig::default().with_cores(4));
    let ids: Vec<TenantId> = (0..tenants)
        .map(|t| {
            server
                .admit(
                    TenantConfig::new(&format!("tenant-{t}"), 32 * MB),
                    sum_by_key_pipeline(&format!("p{t}"), 700),
                )
                .unwrap()
        })
        .collect();
    let master = MasterSecret::demo();
    let loads = multi_tenant_streams(tenants, windows, 3_000, keys, 5);
    let streams: Vec<TenantStream> = ids
        .iter()
        .zip(loads.clone())
        .map(|(id, chunks)| TenantStream {
            tenant: *id,
            generator: Generator::new(
                GeneratorConfig { batch_events: 700 },
                Channel::for_tenant(&master, *id, 0),
                chunks,
            ),
        })
        .collect();
    let report = server.serve(streams).unwrap();
    assert_eq!(report.aggregate_events(), (tenants * windows as usize * 3_000) as u64);

    let mut all_segments = Vec::new();
    for (t, id) in ids.iter().enumerate() {
        let keychain = server.verifier_keys(*id).unwrap();
        let engine = server.engine(*id).unwrap();
        let results = engine.results();
        assert_eq!(results.len(), windows as usize, "tenant {t}");
        let (lo, hi) = (t as u32 * keys, (t as u32 + 1) * keys);
        for (w, msg) in results.iter().enumerate() {
            let plain = msg.open_with(keychain.latest()).unwrap();
            let got = decode_key_aggs(&plain);
            // No foreign keys: everything this tenant egressed lies in its
            // own disjoint key range.
            assert!(got.keys().all(|k| *k >= lo && *k < hi), "tenant {t} window {w} leaked keys");
            assert_eq!(got, oracle_key_aggs(&loads[t][w].events), "tenant {t} window {w}");
        }
        // Its audit trail verifies independently and replays cleanly.
        let segments = engine.drain_audit_segments();
        assert!(segments.iter().all(|s| s.tenant == *id));
        let records = verify_tenant_trail(&segments, *id, &keychain).unwrap();
        let replay = Verifier::new(engine.pipeline().spec()).replay(&records);
        assert!(replay.is_correct(), "tenant {t}: {:?}", replay.violations);
        assert_eq!(replay.egressed, windows as usize);
        all_segments.push(segments);
    }
    // Trails are not interchangeable between tenants: tenant 1's keychain
    // never vouches for tenant 0's segments.
    let keychain1 = server.verifier_keys(ids[1]).unwrap();
    assert!(verify_tenant_trail(&all_segments[0], ids[1], &keychain1).is_err());
}

#[test]
fn quota_exceeding_tenant_is_contained_while_others_progress() {
    // Tenant "small" gets a quota far below its stream's working set;
    // tenant "big" has ample room. The small tenant must be backpressured /
    // rejected, and the big tenant must finish every window correctly.
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    let small = server
        .admit(TenantConfig::new("small", 64 * 1024), sum_by_key_pipeline("small", 2_000))
        .unwrap();
    let big =
        server.admit(TenantConfig::new("big", 64 * MB), sum_by_key_pipeline("big", 2_000)).unwrap();
    // ~40_000 events/window * 12 B = ~480 KB/window >> 64 KB quota.
    let master = MasterSecret::demo();
    let loads = multi_tenant_streams(2, 2, 40_000, 16, 9);
    let streams: Vec<TenantStream> = [small, big]
        .into_iter()
        .zip(loads.clone())
        .map(|(tenant, chunks)| TenantStream {
            tenant,
            generator: Generator::new(
                GeneratorConfig { batch_events: 2_000 },
                Channel::for_tenant(&master, tenant, 0),
                chunks,
            ),
        })
        .collect();
    let report = server.serve(streams).unwrap();

    let small_progress = &report.per_tenant[0];
    let big_progress = &report.per_tenant[1];
    assert!(
        small_progress.rejected_batches > 0 || small_progress.backpressure_signals > 0,
        "the over-quota tenant must be backpressured or rejected: {small_progress:?}"
    );
    assert!(small_progress.ingested_events < small_progress.offered_events);

    // The big tenant is completely unaffected: every window, correct sums.
    assert_eq!(big_progress.rejected_batches, 0);
    assert_eq!(big_progress.ingested_events, 80_000);
    let engine = server.engine(big).unwrap();
    let results = engine.results();
    assert_eq!(results.len(), 2);
    let keychain = server.verifier_keys(big).unwrap();
    for (w, msg) in results.iter().enumerate() {
        let plain = msg.open_with(keychain.latest()).unwrap();
        assert_eq!(decode_key_aggs(&plain), oracle_key_aggs(&loads[1][w].events), "window {w}");
    }
    // And its trail still verifies.
    let records = verify_tenant_trail(&engine.drain_audit_segments(), big, &keychain).unwrap();
    assert!(Verifier::new(engine.pipeline().spec()).replay(&records).is_correct());

    // The small tenant's quota is respected inside the TEE throughout.
    let mem = server.data_plane().tenant_memory(small).unwrap();
    assert_eq!(mem.quota_bytes, Some(64 * 1024));
    assert!(mem.used_bytes <= 64 * 1024);
}

proptest! {
    // Each case spins up a whole server; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random interleaved multi-tenant ingestion never leaks one tenant's
    /// events into another's egress or audit trail, and a forged
    /// cross-tenant reference is rejected no matter the state it lands in.
    #[test]
    fn isolation_holds_under_random_interleaving(
        tenants in 2usize..5,
        events_per_window in 500usize..2_500,
        batch in 150usize..900,
        seed in 0u64..10_000,
        schedule in collection::vec(0usize..8, 5..40),
    ) {
        let keys = 16u32;
        let server = StreamServer::new(ServerConfig::default().with_cores(2));
        let ids: Vec<TenantId> = (0..tenants)
            .map(|t| {
                server
                    .admit(
                        TenantConfig::new(&format!("t{t}"), 32 * MB),
                        sum_by_key_pipeline(&format!("p{t}"), batch),
                    )
                    .unwrap()
            })
            .collect();
        let master = MasterSecret::demo();
        let loads = multi_tenant_streams(tenants, 1, events_per_window, keys, seed);
        let mut generators: Vec<Generator> = loads
            .iter()
            .zip(&ids)
            .map(|(chunks, id)| {
                Generator::new(
                    GeneratorConfig { batch_events: batch },
                    Channel::for_tenant(&master, *id, 0),
                    chunks.clone(),
                )
            })
            .collect();

        // Drive the engines directly in an arbitrary interleaving drawn by
        // proptest (the schedule is walked cyclically until every stream is
        // exhausted), rather than through the fair scheduler — isolation
        // must not depend on scheduling discipline.
        let mut step = 0usize;
        while generators.iter().any(|g| !g.is_exhausted()) {
            let choice = schedule[step % schedule.len()] % tenants;
            step += 1;
            // If the chosen stream is exhausted, fall through to the next
            // live one so the walk always terminates.
            let pick = (0..tenants)
                .map(|o| (choice + o) % tenants)
                .find(|&i| !generators[i].is_exhausted())
                .unwrap();
            if let Some(offer) = generators[pick].next_offer() {
                let engine = server.engine(ids[pick]).unwrap();
                match offer {
                    Offer::Batch(d) => {
                        engine.ingest_group(&[d], StreamSide::Left).unwrap();
                    }
                    Offer::Watermark(wm) => engine.advance_watermark_on(wm, StreamSide::Left).unwrap(),
                }
            }
        }

        for (t, id) in ids.iter().enumerate() {
            let keychain = server.verifier_keys(*id).unwrap();
            let engine = server.engine(*id).unwrap();
            let results = engine.results();
            prop_assert_eq!(results.len(), 1, "tenant {} results", t);
            let plain = results[0].open_with(keychain.latest()).unwrap();
            let got = decode_key_aggs(&plain);
            let (lo, hi) = (t as u32 * keys, (t as u32 + 1) * keys);
            prop_assert!(
                got.keys().all(|k| *k >= lo && *k < hi),
                "tenant {} egress leaked foreign keys: {:?}",
                t,
                got.keys().collect::<Vec<_>>()
            );
            prop_assert_eq!(got, oracle_key_aggs(&loads[t][0].events), "tenant {}", t);

            let segments = engine.drain_audit_segments();
            prop_assert!(segments.iter().all(|s| s.tenant == *id), "foreign segment tag");
            let records = verify_tenant_trail(&segments, *id, &keychain).unwrap();
            let replay = Verifier::new(engine.pipeline().spec()).replay(&records);
            prop_assert!(replay.is_correct(), "tenant {}: {:?}", t, replay.violations);
            // The trail cannot be passed off as a neighbour's: neither the
            // neighbour's keychain nor its results open under ours.
            let other = ids[(t + 1) % tenants];
            let other_chain = server.verifier_keys(other).unwrap();
            prop_assert!(verify_tenant_trail(&segments, other, &other_chain).is_err());
            prop_assert!(results[0].open_with(other_chain.latest()).is_none());
        }

        // Forged cross-tenant reference: a probe tenant ingests a batch and
        // every other tenant tries to use the resulting live reference.
        let victim = server
            .admit(TenantConfig::new("victim", MB), sum_by_key_pipeline("victim", batch))
            .unwrap();
        let attacker = server
            .admit(TenantConfig::new("attacker", MB), sum_by_key_pipeline("attacker", batch))
            .unwrap();
        let dp = server.data_plane().clone();
        let victim_gw = TeeGateway::open_for(dp.clone(), victim);
        let attacker_gw = TeeGateway::open_for(dp, attacker);
        let probe_events: Vec<Event> =
            (0..16).map(|i| Event::new(i, seed as u32 ^ i, 0)).collect();
        let stolen = victim_gw
            .ingress(&Event::slice_to_bytes(&probe_events), false, false, 0)
            .unwrap()
            .opaque;
        prop_assert_eq!(
            attacker_gw
                .invoke(
                    sbt_types::PrimitiveKind::Sort,
                    &[stolen],
                    sbt_dataplane::PrimitiveParams::None,
                    &sbt_uarray::HintSet::none(),
                )
                .unwrap_err(),
            DataPlaneError::InvalidReference
        );
        prop_assert!(attacker_gw.egress(stolen).is_err());
        prop_assert!(attacker_gw.retire(stolen).is_err());
        // The rightful owner's reference still works afterwards.
        victim_gw.retire(stolen).unwrap();
    }
}
