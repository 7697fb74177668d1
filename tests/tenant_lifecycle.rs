//! Tenant lifecycle integration tests: admit, rekey, drain, resize and
//! evict on one shared TEE.
//!
//! Covers the full lifecycle surface end to end — an evicted tenant's
//! opaque references are rejected and its secure memory returns to the
//! admission pool, a drained tenant's final windows still execute and its
//! trail verifies (departure record included), key epochs isolate trails
//! and results, eviction unwinds a scheduler lane mid-`serve`, and a
//! randomized admit/evict/rekey/resize interleaving keeps the server's
//! quota accounting and key isolation intact.

use proptest::prelude::*;
use sbt_engine::TeeGateway;
use streambox_tz::prelude::*;

const MB: u64 = 1024 * 1024;

fn winsum(name: &str, batch: usize) -> Pipeline {
    Pipeline::new(name).then(Operator::WindowSum).target_delay_ms(60_000).batch_events(batch)
}

/// Block until the tenant's engine shows ingest progress (the serve loop is
/// demonstrably mid-stream), so lifecycle operations land mid-serve without
/// racing a wall-clock guess.
fn wait_for_ingest(server: &std::sync::Arc<StreamServer>, tenant: TenantId) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        if let Some(engine) = server.engine(tenant) {
            if engine.metrics().events_ingested > 0 {
                return;
            }
        } else {
            return; // already departed: nothing left to wait for
        }
        assert!(std::time::Instant::now() < deadline, "serve never ingested for {tenant}");
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

fn stream_for(
    master: &MasterSecret,
    tenant: TenantId,
    epoch: u32,
    chunks: Vec<sbt_workloads::datasets::StreamChunk>,
    batch: usize,
) -> TenantStream {
    TenantStream {
        tenant,
        generator: Generator::new(
            GeneratorConfig { batch_events: batch },
            Channel::for_tenant(master, tenant, epoch),
            chunks,
        ),
    }
}

#[test]
fn evicted_tenant_refs_memory_and_reservation_are_gone() {
    let server = StreamServer::new(ServerConfig::default().with_secure_mem(64 * MB));
    let doomed = server.admit(TenantConfig::new("doomed", 32 * MB), winsum("d", 500)).unwrap();
    let keeper = server.admit(TenantConfig::new("keeper", 16 * MB), winsum("k", 500)).unwrap();
    assert_eq!(server.unreserved_quota(), 16 * MB);

    // Both tenants ingest directly through gateways so live references and
    // committed memory exist at eviction time.
    let dp = server.data_plane().clone();
    let doomed_gw = TeeGateway::open_for(dp.clone(), doomed);
    let keeper_gw = TeeGateway::open_for(dp.clone(), keeper);
    let events: Vec<Event> = (0..4_000).map(|i| Event::new(i, i, 0)).collect();
    let bytes = Event::slice_to_bytes(&events);
    let doomed_ref = doomed_gw.ingress(&bytes, false, false, 0).unwrap().opaque;
    let keeper_ref = keeper_gw.ingress(&bytes, false, false, 0).unwrap().opaque;
    let doomed_used = dp.tenant_memory(doomed).unwrap().used_bytes;
    assert!(doomed_used > 0);
    let in_use_before = dp.platform().secure_mem().in_use();

    let report = server.evict(doomed).unwrap();
    assert_eq!(report.reason, DepartureReason::Evicted);
    assert_eq!(report.reclaimed_bytes, doomed_used);
    assert_eq!(report.refs_revoked, 1);

    // The evicted tenant's references are rejected at every entry point.
    assert!(doomed_gw.egress(doomed_ref).is_err());
    assert!(doomed_gw.retire(doomed_ref).is_err());
    assert!(doomed_gw
        .invoke(
            sbt_types::PrimitiveKind::Sort,
            &[doomed_ref],
            sbt_dataplane::PrimitiveParams::None,
            &sbt_uarray::HintSet::none(),
        )
        .is_err());
    // Its secure memory was released and its reservation recovered.
    assert_eq!(dp.platform().secure_mem().in_use(), in_use_before - doomed_used);
    assert_eq!(server.unreserved_quota(), 48 * MB);
    // The survivor is untouched.
    assert!(keeper_gw.egress(keeper_ref).is_ok());
    // And the freed reservation is immediately admittable.
    server.admit(TenantConfig::new("reborn", 48 * MB), winsum("r", 500)).unwrap();
}

#[test]
fn drained_tenant_final_windows_execute_and_trail_verifies() {
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    let master = MasterSecret::demo();
    let a = server.admit(TenantConfig::new("a", 32 * MB), winsum("a", 500)).unwrap();
    let loads = multi_tenant_streams(1, 2, 3_000, 16, 77);

    // Serve the full stream, then drain: the tenant's windows all executed,
    // its results opened, and its post-departure trail still verifies.
    let report = server.serve(vec![stream_for(&master, a, 0, loads[0].clone(), 500)]).unwrap();
    assert_eq!(report.per_tenant[0].results, 2);
    let keychain = server.verifier_keys(a).unwrap();
    let results = server.engine(a).unwrap().results();
    let mut trail = server.engine(a).unwrap().drain_audit_segments();

    let departure = server.drain(a).unwrap();
    assert_eq!(departure.reason, DepartureReason::Drained);
    trail.extend(departure.trail);

    // Results decrypt under the tenant's keychain; the trail replays
    // cleanly and ends in the drained departure record.
    for (w, msg) in results.iter().enumerate() {
        let plain = msg.open_with(keychain.latest()).unwrap();
        let got = u64::from_le_bytes(plain[..8].try_into().unwrap());
        let expected: u64 = loads[0][w].events.iter().map(|e| e.value as u64).sum();
        assert_eq!(got, expected, "window {w}");
    }
    let records = verify_tenant_trail(&trail, a, &keychain).unwrap();
    let replay = Verifier::new(winsum("a", 500).spec()).replay(&records);
    assert!(replay.is_correct(), "violations: {:?}", replay.violations);
    assert_eq!(replay.egressed, 2);
    assert!(replay.departed);
    // The keychain stays derivable after departure.
    assert!(server.verifier_keys(a).is_some());
    assert!(server.engine(a).is_none());
}

#[test]
fn drain_mid_serve_stops_ingest_and_finishes_inflight_windows() {
    // Drain lands while a serve loop owns the lane: the drained tenant
    // stops ingesting (partial progress), its in-flight windows finish, the
    // other tenant completes its whole stream, and both trails verify.
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    let master = MasterSecret::demo();
    let victim = server.admit(TenantConfig::new("victim", 32 * MB), winsum("v", 200)).unwrap();
    let steady = server.admit(TenantConfig::new("steady", 32 * MB), winsum("s", 200)).unwrap();
    // A long stream so the drain request lands mid-serve.
    let loads = multi_tenant_streams(2, 6, 8_000, 16, 3);
    let streams = vec![
        stream_for(&master, victim, 0, loads[0].clone(), 200),
        stream_for(&master, steady, 0, loads[1].clone(), 200),
    ];
    let server2 = server.clone();
    let drainer = std::thread::spawn(move || {
        // Drain only once the serve loop is demonstrably mid-stream.
        wait_for_ingest(&server2, victim);
        server2.drain(victim)
    });
    let report = server.serve(streams).unwrap();
    let departure = drainer.join().unwrap().unwrap();
    assert_eq!(departure.reason, DepartureReason::Drained);

    let victim_progress = &report.per_tenant[0];
    let steady_progress = &report.per_tenant[1];
    assert!(victim_progress.departed, "drained tenant is marked departed in the report");
    assert!(!steady_progress.departed);
    // The steady tenant was unaffected: every event, every window.
    assert_eq!(steady_progress.ingested_events, 6 * 8_000);
    assert_eq!(steady_progress.results, 6);
    let steady_keys = server.verifier_keys(steady).unwrap();
    let records = verify_tenant_trail(
        &server.engine(steady).unwrap().drain_audit_segments(),
        steady,
        &steady_keys,
    )
    .unwrap();
    assert!(Verifier::new(winsum("s", 200).spec()).replay(&records).is_correct());
    // The drained tenant's final trail (whatever it completed) verifies and
    // ends with the departure record.
    let victim_keys = server.verifier_keys(victim).unwrap();
    let records = verify_tenant_trail(&departure.trail, victim, &victim_keys).unwrap();
    assert!(matches!(
        records.last(),
        Some(sbt_attest::AuditRecord::Departure { reason: DepartureReason::Drained, .. })
    ));
    assert_eq!(server.unreserved_quota(), server.config().secure_mem_bytes - 32 * MB);
}

#[test]
fn evict_mid_serve_unwinds_the_lane_without_disturbing_others() {
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    let master = MasterSecret::demo();
    let victim = server.admit(TenantConfig::new("victim", 32 * MB), winsum("v", 200)).unwrap();
    let steady = server.admit(TenantConfig::new("steady", 32 * MB), winsum("s", 200)).unwrap();
    // The victim streams five times as long as the steady tenant, so the
    // eviction lands while its lane is still serving.
    let loads = multi_tenant_streams(2, 30, 8_000, 16, 9);
    let streams = vec![
        stream_for(&master, victim, 0, loads[0].clone(), 200),
        stream_for(&master, steady, 0, loads[1][..6].to_vec(), 200),
    ];
    let server2 = server.clone();
    let evictor = std::thread::spawn(move || {
        wait_for_ingest(&server2, victim);
        // The cloud pulls the trail so far, then the tenant is evicted.
        let pulled = server2.engine(victim).unwrap().drain_audit_segments();
        server2.evict(victim).map(|departure| (pulled, departure))
    });
    // The serve loop must complete (not error) despite the mid-serve
    // eviction: the victim's lane unwinds, everyone else finishes.
    let report = server.serve(streams).unwrap();
    let (mut trail, departure) = evictor.join().unwrap().unwrap();
    assert!(report.per_tenant[0].departed);
    // The evicted tenant's whole trail — what was pulled before eviction
    // plus the departure report's — authenticates under its final-epoch
    // keychain, replays with no violation and ends in the eviction record.
    // A command list the eviction lands in commits nothing, so no batch is
    // cut between its ingress and its windowing.
    assert_eq!(departure.reason, DepartureReason::Evicted);
    trail.extend(departure.trail);
    let keychain = server.verifier_keys(victim).unwrap();
    let records = verify_tenant_trail_parallel(
        &std::sync::Arc::new(trail),
        victim,
        &keychain,
        &Executor::new(2),
    )
    .unwrap();
    let replay = Verifier::new(winsum("v", 200).spec()).replay(&records);
    assert!(replay.is_correct(), "violations: {:?}", replay.violations);
    assert!(replay.departed);
    assert!(matches!(
        records.last(),
        Some(sbt_attest::AuditRecord::Departure { reason: DepartureReason::Evicted, .. })
    ));
    let steady_progress = &report.per_tenant[1];
    assert_eq!(steady_progress.ingested_events, 6 * 8_000);
    assert_eq!(steady_progress.results, 6);
    // The victim's quota reservation came back even though its stream never
    // finished.
    assert_eq!(server.unreserved_quota(), server.config().secure_mem_bytes - 32 * MB);
    assert_eq!(server.tenants(), vec![steady]);
}

#[test]
fn rekey_mid_stream_isolates_epochs_end_to_end() {
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    let master = MasterSecret::demo();
    let a = server.admit(TenantConfig::new("a", 32 * MB), winsum("a", 500)).unwrap();
    let loads = multi_tenant_streams(1, 2, 2_000, 16, 21);

    // Window 0 under epoch 0.
    server.serve(vec![stream_for(&master, a, 0, vec![loads[0][0].clone()], 500)]).unwrap();
    let mut trail = server.engine(a).unwrap().drain_audit_segments();
    // Rekey; window 1 must now be encrypted under epoch 1.
    assert_eq!(server.rekey(a).unwrap(), 1);
    server.serve(vec![stream_for(&master, a, 1, vec![loads[0][1].clone()], 500)]).unwrap();
    trail.extend(server.engine(a).unwrap().drain_audit_segments());

    // Results: window 0 opens only under epoch 0, window 1 only under 1.
    let keychain = server.verifier_keys(a).unwrap();
    assert_eq!(keychain.epoch_count(), 2);
    let results = server.engine(a).unwrap().results();
    assert_eq!(results.len(), 2);
    for (w, msg) in results.iter().enumerate() {
        let (plain, epoch) = msg.open_any(&keychain).unwrap();
        assert_eq!(epoch, w as u32);
        let got = u64::from_le_bytes(plain[..8].try_into().unwrap());
        let expected: u64 = loads[0][w].events.iter().map(|e| e.value as u64).sum();
        assert_eq!(got, expected, "window {w}");
    }
    // The two-epoch trail verifies under the full keychain, not a stale one.
    let records = verify_tenant_trail(&trail, a, &keychain).unwrap();
    assert!(records.iter().any(|r| matches!(r, sbt_attest::AuditRecord::Rekey { epoch: 1, .. })));
    let replay = Verifier::new(winsum("a", 500).spec()).replay(&records);
    assert!(replay.is_correct(), "violations: {:?}", replay.violations);
    assert_eq!(replay.rekeys, 1);
    let stale = MasterSecret::demo().keychain(a.0, 0);
    assert!(verify_tenant_trail(&trail, a, &stale).is_err());
}

proptest! {
    // Each case spins up a whole server; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized admit/evict/rekey/resize interleavings: reservation
    /// accounting never drifts, evicted tenants' references and namespaces
    /// are gone while survivors keep working, and every surviving tenant's
    /// key material stays isolated per epoch.
    #[test]
    fn lifecycle_interleavings_preserve_quota_and_isolation(
        ops in proptest::collection::vec((0u8..4, 0usize..8), 6..24),
        seed in 0u64..10_000,
    ) {
        let secure_mem = 64 * MB;
        let server = StreamServer::new(
            ServerConfig::default().with_cores(2).with_secure_mem(secure_mem).with_max_tenants(16),
        );
        let dp = server.data_plane().clone();
        // Model state: (id, expected_quota, expected_epoch) of live tenants.
        let mut live: Vec<(TenantId, u64, u32)> = Vec::new();
        let mut admitted_count = 0u32;
        let mut expected_reserved = 0u64;

        for (op, pick) in ops {
            match op {
                // Admit a 4 MB tenant when headroom allows.
                0 => {
                    let quota = 4 * MB;
                    let name = format!("t{admitted_count}");
                    match server.admit(TenantConfig::new(&name, quota), winsum(&name, 200)) {
                        Ok(id) => {
                            live.push((id, quota, 0));
                            admitted_count += 1;
                            expected_reserved += quota;
                            // Give the newcomer some state so eviction has
                            // something to reclaim.
                            let gw = TeeGateway::open_for(dp.clone(), id);
                            let events: Vec<Event> =
                                (0..64).map(|i| Event::new(i, seed as u32 ^ i, 0)).collect();
                            gw.ingress(&Event::slice_to_bytes(&events), false, false, 0).unwrap();
                        }
                        Err(AdmissionError::QuotaOvercommit { .. })
                        | Err(AdmissionError::ServerFull { .. })
                        | Err(AdmissionError::DelayUnmeetable { .. }) => {}
                        Err(e) => panic!("unexpected admission failure: {e}"),
                    }
                }
                // Evict a random live tenant.
                1 if !live.is_empty() => {
                    let (id, quota, _) = live.remove(pick % live.len());
                    let report = server.evict(id).unwrap();
                    prop_assert_eq!(report.released_quota, quota);
                    expected_reserved -= quota;
                    // Its namespace is gone immediately.
                    prop_assert!(dp.tenant_memory(id).is_err());
                }
                // Rekey a random live tenant.
                2 if !live.is_empty() => {
                    let idx = pick % live.len();
                    let entry = &mut live[idx];
                    entry.2 += 1;
                    prop_assert_eq!(server.rekey(entry.0).unwrap(), entry.2);
                }
                // Resize a random live tenant (within the model's headroom).
                3 if !live.is_empty() => {
                    let idx = pick % live.len();
                    let new_quota = ((pick as u64 % 6) + 1) * MB;
                    let others = expected_reserved - live[idx].1;
                    if others + new_quota <= secure_mem {
                        server.resize_quota(live[idx].0, new_quota).unwrap();
                        expected_reserved = others + new_quota;
                        live[idx].1 = new_quota;
                    } else {
                        let overcommitted = matches!(
                            server.resize_quota(live[idx].0, new_quota),
                            Err(LifecycleError::QuotaOvercommit { available: _, requested: _ })
                        );
                        prop_assert!(overcommitted);
                    }
                }
                _ => {}
            }
            // Invariant: the server's reservation accounting matches the
            // model exactly after every operation.
            prop_assert_eq!(server.unreserved_quota(), secure_mem - expected_reserved);
        }

        // Survivors still work end to end and stay mutually isolated.
        for (id, _, epoch) in &live {
            prop_assert_eq!(dp.tenant_epoch(*id).unwrap(), *epoch);
            let gw = TeeGateway::open_for(dp.clone(), *id);
            let events: Vec<Event> = (0..16).map(|i| Event::new(i, i, 0)).collect();
            let r = gw.ingress(&Event::slice_to_bytes(&events), false, false, 0).unwrap();
            let msg = gw.egress(r.opaque).unwrap();
            let keychain = server.verifier_keys(*id).unwrap();
            prop_assert_eq!(keychain.epoch_count() as u32, epoch + 1);
            prop_assert!(msg.open_with(keychain.latest()).is_some());
            // No other live tenant's keychain opens it.
            for (other, _, _) in &live {
                if other != id {
                    let foreign = server.verifier_keys(*other).unwrap();
                    prop_assert!(msg.open_any(&foreign).is_none());
                }
            }
        }
        // Departed tenants' keychains remain derivable for late verification.
        for id in server.departed_tenants() {
            prop_assert!(server.verifier_keys(id).is_some());
        }
    }
}
