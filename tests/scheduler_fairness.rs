//! Scheduler fairness properties.
//!
//! Deficit round-robin's promise is *weighted fairness in cycle cost*: over
//! enough rounds, the service each backlogged lane receives is proportional
//! to its weight, regardless of how its traffic is cut into batches. The
//! property tests below drive the pure [`DrrAccounting`] bookkeeping with
//! randomized weights and batch-cost distributions and check the delivered
//! service against the weight ratios; an end-to-end test then runs a real
//! weighted multi-tenant serve under the DRR scheduler and checks results
//! stay correct and complete.

use proptest::prelude::*;
use streambox_tz::prelude::*;

/// Simulate `rounds` DRR refill rounds over permanently backlogged lanes
/// whose next-batch costs cycle through per-lane cost patterns. Returns the
/// total service (actual cost units) delivered per lane.
fn simulate_drr(weights: &[u32], quantum: u64, costs: &[Vec<u64>], rounds: usize) -> Vec<u64> {
    let mut drr = DrrAccounting::new(weights, quantum);
    let mut served = vec![0u64; weights.len()];
    let mut cursor = vec![0usize; weights.len()];
    for _ in 0..rounds {
        drr.begin_round(|_| true);
        for lane in 0..weights.len() {
            loop {
                let pattern = &costs[lane];
                let cost = pattern[cursor[lane] % pattern.len()].max(1);
                if !drr.can_dispatch(lane, cost) {
                    break;
                }
                cursor[lane] += 1;
                drr.charge(lane, cost);
                served[lane] += cost;
            }
        }
    }
    served
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over many rounds, per-lane service tracks `weight × quantum × rounds`
    /// within one max-batch overshoot per round — i.e. the service *ratio*
    /// between any two backlogged lanes converges to their weight ratio,
    /// no matter how the batch sizes are randomized.
    #[test]
    fn drr_service_is_proportional_to_weights(
        weights in proptest::collection::vec(1u32..5, 2..6),
        cost_seed in proptest::collection::vec(200u64..20_000, 4..12),
        rounds in 100usize..300,
    ) {
        let quantum: u64 = 25_000;
        // Give each lane its own rotation of the random cost pattern so
        // lanes see different batch-size sequences.
        let costs: Vec<Vec<u64>> = (0..weights.len())
            .map(|lane| {
                let mut c = cost_seed.clone();
                c.rotate_left(lane % cost_seed.len());
                c
            })
            .collect();
        let served = simulate_drr(&weights, quantum, &costs, rounds);
        let max_cost = *cost_seed.iter().max().unwrap();
        for (lane, &s) in served.iter().enumerate() {
            let ideal = weights[lane] as u64 * quantum * rounds as u64;
            // DRR's classic bound: deviation from ideal service is at most
            // one max-size batch per round (we allow that plus slack for
            // the final partial round).
            let tolerance = max_cost * rounds as u64 / 10 + max_cost + quantum;
            prop_assert!(
                s.abs_diff(ideal) <= tolerance,
                "lane {} (weight {}): served {} vs ideal {} (tolerance {})",
                lane, weights[lane], s, ideal, tolerance
            );
        }
        // Pairwise ratio check, the fairness statement proper: within 10%.
        for a in 0..served.len() {
            for b in (a + 1)..served.len() {
                let lhs = served[a] as f64 / weights[a] as f64;
                let rhs = served[b] as f64 / weights[b] as f64;
                let ratio = lhs / rhs;
                prop_assert!(
                    (0.9..=1.1).contains(&ratio),
                    "lanes {a}/{b}: normalized service ratio {ratio:.3} off weights {:?}",
                    weights
                );
            }
        }
    }

    /// Penalized lanes lose exactly the credit of a round and recover:
    /// fairness is restored once the penalty is absorbed.
    #[test]
    fn drr_penalties_are_bounded_debits(
        weight in 1u32..5,
        penalties in 1u64..6,
    ) {
        let quantum = 1_000u64;
        let mut drr = DrrAccounting::new(&[weight, 1], quantum);
        for _ in 0..penalties {
            drr.penalize(0);
        }
        let debt = drr.deficit(0);
        prop_assert_eq!(debt, -(penalties as i64 * weight as i64 * quantum as i64));
        // Each refill round restores one penalty's worth; after `penalties`
        // rounds the lane can dispatch again.
        for _ in 0..penalties {
            drr.begin_round(|_| true);
        }
        prop_assert!(drr.deficit(0) >= 0);
        prop_assert!(drr.can_dispatch(0, 1).eq(&(drr.deficit(0) >= 1)));
    }
}

/// End-to-end: a weighted serve under DRR completes every tenant with
/// correct per-window sums — fairness must not cost correctness.
#[test]
fn weighted_drr_serve_completes_all_tenants_correctly() {
    let tenants = 3usize;
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    let ids: Vec<TenantId> = (0..tenants)
        .map(|t| {
            let pipeline = Pipeline::new(&format!("p{t}"))
                .then(Operator::WindowSum)
                .target_delay_ms(60_000)
                .batch_events(400);
            server
                .admit(
                    TenantConfig::new(&format!("t{t}"), 32 * 1024 * 1024).with_weight(t as u32 + 1),
                    pipeline,
                )
                .unwrap()
        })
        .collect();
    let master = MasterSecret::demo();
    let loads = multi_tenant_streams(tenants, 2, 3_000, 16, 11);
    let streams: Vec<TenantStream> = ids
        .iter()
        .zip(loads.clone())
        .map(|(id, chunks)| TenantStream {
            tenant: *id,
            generator: Generator::new(
                GeneratorConfig { batch_events: 400 },
                Channel::for_tenant(&master, *id, 0),
                chunks,
            ),
        })
        .collect();
    let report = server.serve_with(streams, Scheduler::DeficitRoundRobin).unwrap();
    assert_eq!(report.aggregate_events(), (tenants * 2 * 3_000) as u64);

    for (t, id) in ids.iter().enumerate() {
        let keychain = server.verifier_keys(*id).unwrap();
        let engine = server.engine(*id).unwrap();
        let results = engine.results();
        assert_eq!(results.len(), 2, "tenant {t}");
        for (w, msg) in results.iter().enumerate() {
            let plain = msg.open_with(keychain.latest()).unwrap();
            let got = u64::from_le_bytes(plain[..8].try_into().unwrap());
            let expected: u64 = loads[t][w].events.iter().map(|e| e.value as u64).sum();
            assert_eq!(got, expected, "tenant {t} window {w}");
        }
        // Pipelined serving must not corrupt the per-tenant audit trail.
        let records = verify_tenant_trail(&engine.drain_audit_segments(), *id, &keychain).unwrap();
        let replay = Verifier::new(engine.pipeline().spec()).replay(&records);
        assert!(replay.is_correct(), "tenant {t}: {:?}", replay.violations);
    }
}
