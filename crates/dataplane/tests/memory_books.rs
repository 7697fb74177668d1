//! The plane's memory books agree under random multi-tenant traffic.
//!
//! A seeded random sequence of ingress, `Sort` (with and without a
//! consumed-in-parallel hint, and consumed: a `[Sort, Retire]` list whose
//! output takes over its input's pages), retirement and tenant eviction
//! runs under both placement policies. After every step three views of the secure
//! memory must agree:
//!
//! * (a) the allocator's committed bytes equal the carve-out's bytes in use;
//! * (b) the tenants' charged bytes sum to the carve-out's bytes in use;
//! * (c) the committed bytes are exactly the page-rounded arrays the control
//!   plane still holds references to, plus the retired bytes stuck behind
//!   live arrays — nothing retired is left committed at a group's front.

use sbt_attest::DepartureReason;
use sbt_dataplane::{
    Arg, Command, DataPlane, DataPlaneConfig, DataPlaneError, OpaqueRef, PrimitiveParams, Reply,
};
use sbt_types::{Event, PrimitiveKind, TenantId};
use sbt_tz::{Platform, World, WorldGuard};
use sbt_uarray::{AllocatorConfig, HintSet, PlacementPolicy, TeePager, PAGE_SIZE};

const TENANTS: [TenantId; 3] = [TenantId(1), TenantId(2), TenantId(3)];
const QUOTA: u64 = 4 << 20;
const STEPS: usize = 3_000;

fn in_tee<R>(f: impl FnOnce() -> R) -> R {
    let _g = WorldGuard::enter(World::Secure);
    f()
}

/// A small deterministic generator (xorshift64*), so the sequence is the
/// same on every run and every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Secure bytes an array of `len` events commits: whole pages.
fn page_rounded(len: usize) -> u64 {
    TeePager::pages_for((len * std::mem::size_of::<Event>()) as u64) * PAGE_SIZE
}

fn check_books(dp: &DataPlane, held: &[Vec<(OpaqueRef, usize)>], step: usize) {
    let report = dp.memory_report();
    let in_use = dp.platform().secure_mem().in_use();
    assert_eq!(report.committed_bytes, in_use, "(a) at step {step}");
    let charged: u64 = TENANTS.iter().map(|t| dp.tenant_memory(*t).unwrap().used_bytes).sum();
    assert_eq!(charged, in_use, "(b) at step {step}");
    let live: u64 = held.iter().flatten().map(|(_, len)| page_rounded(*len)).sum();
    assert_eq!(report.committed_bytes, live + report.stuck_bytes, "(c) at step {step}");
}

fn random_traffic(policy: PlacementPolicy, seed: u64) {
    let config = DataPlaneConfig {
        allocator: AllocatorConfig { policy, ..AllocatorConfig::default() },
        ..DataPlaneConfig::default()
    };
    let dp = DataPlane::new(Platform::hikey(), config);
    for t in TENANTS {
        dp.register_tenant(t, Some(QUOTA)).unwrap();
    }
    let mut rng = Rng(seed);
    // The references each tenant's control plane holds, with their lengths.
    let mut held: Vec<Vec<(OpaqueRef, usize)>> = vec![Vec::new(); TENANTS.len()];
    for step in 0..STEPS {
        let ti = rng.below(TENANTS.len());
        let tenant = TENANTS[ti];
        match rng.below(17) {
            0 => {
                dp.deregister_tenant(tenant, DepartureReason::Evicted).unwrap();
                held[ti].clear();
                dp.register_tenant(tenant, Some(QUOTA)).unwrap();
            }
            1..=5 => {
                let n = 1 + rng.below(3_000);
                let events: Vec<Event> =
                    (0..n as u32).map(|i| Event::new(rng.next() as u32 % 97, i, i)).collect();
                let bytes = Event::slice_to_bytes(&events);
                match in_tee(|| dp.ingress(tenant, &bytes, false, false, 0)) {
                    Ok(out) => held[ti].push((out.opaque, out.len)),
                    Err(e) => assert_eq!(e, DataPlaneError::QuotaExceeded, "step {step}"),
                }
            }
            6..=9 if !held[ti].is_empty() => {
                let (input, _) = held[ti][rng.below(held[ti].len())];
                let hints = if rng.below(2) == 0 {
                    HintSet::none()
                } else {
                    HintSet::consumed_in_parallel(1, 0)
                };
                let sorted = in_tee(|| {
                    dp.invoke(tenant, PrimitiveKind::Sort, &[input], PrimitiveParams::None, &hints)
                });
                match sorted {
                    Ok(outs) => held[ti].extend(outs.iter().map(|o| (o.opaque, o.len))),
                    Err(e) => assert_eq!(e, DataPlaneError::QuotaExceeded, "step {step}"),
                }
            }
            15 | 16 if !held[ti].is_empty() => {
                // Consumed: the output takes over the input's pages.
                let at = rng.below(held[ti].len());
                let (input, _) = held[ti].swap_remove(at);
                let list =
                    [sort(Arg::Ref(input), HintSet::none()), Command::Retire(Arg::Ref(input))];
                match in_tee(|| dp.call(tenant, &list)) {
                    Ok(replies) => {
                        held[ti].extend(replies[0].outputs().iter().map(|o| (o.opaque, o.len)))
                    }
                    Err(e) => {
                        panic!("a sort in place commits nothing, yet failed at step {step}: {e}")
                    }
                }
            }
            _ if !held[ti].is_empty() => {
                let at = rng.below(held[ti].len());
                let (r, _) = held[ti].swap_remove(at);
                in_tee(|| dp.retire(tenant, r)).unwrap();
            }
            _ => {}
        }
        check_books(&dp, &held, step);
    }
    // Everything retired: nothing may stay committed or charged.
    for (ti, tenant) in TENANTS.iter().enumerate() {
        for (r, _) in held[ti].drain(..) {
            in_tee(|| dp.retire(*tenant, r)).unwrap();
        }
    }
    check_books(&dp, &held, STEPS);
    assert_eq!(dp.platform().secure_mem().in_use(), 0);
    assert_eq!(dp.memory_report().live_uarrays, 0);
}

fn sort(input: Arg, hints: HintSet) -> Command<'static> {
    Command::Invoke {
        op: PrimitiveKind::Sort,
        inputs: vec![input],
        params: PrimitiveParams::None,
        hints,
    }
}

#[test]
fn books_agree_under_hint_guided_placement() {
    random_traffic(PlacementPolicy::HintGuided, 0x5EED_0001);
}

#[test]
fn books_agree_under_same_producer_placement() {
    random_traffic(PlacementPolicy::SameProducer, 0x5EED_0002);
}

/// A window array grows in place: after each group that appends to it, and
/// after a group that trips the quota part-way and is cut back, the ledger,
/// the carve-out and the tenant's charge all hold exactly the array's
/// page-rounded length; once the fire consumes and retires it, nothing.
#[test]
fn books_agree_as_a_window_array_grows_is_cut_back_and_retires() {
    use sbt_types::{Duration, WindowSpec};
    const TENANT: TenantId = TenantId(1);
    let dp = DataPlane::new(Platform::hikey(), DataPlaneConfig::default());
    dp.register_tenant(TENANT, Some(10 * PAGE_SIZE)).unwrap();
    let spec = WindowSpec::fixed(Duration::from_secs(1));
    // Every event in window 0.
    let payload = |n: u32| {
        Event::slice_to_bytes(&(0..n).map(|i| Event::new(i % 7, i, i % 1_000)).collect::<Vec<_>>())
    };
    let group = |payloads: &[Vec<u8>]| {
        let cmds: Vec<Command<'_>> = payloads
            .iter()
            .map(|payload| Command::WindowedIngress {
                payload,
                encrypted: false,
                is_power: false,
                keystream_block: 0,
                spec,
                side: 0,
                lane: 0,
            })
            .collect();
        in_tee(|| dp.call(TENANT, &cmds))
    };
    let books = |len: usize, at: &str| {
        let in_use = dp.platform().secure_mem().in_use();
        assert_eq!(in_use, page_rounded(len), "{at}: the carve-out holds the array");
        assert_eq!(dp.memory_report().committed_bytes, in_use, "{at}: the ledger");
        assert_eq!(dp.tenant_memory(TENANT).unwrap().used_bytes, in_use, "{at}: the charge");
    };
    let array = |replies: Vec<Reply>| match replies.last() {
        Some(Reply::WindowedIngress { windows, .. }) => (windows[0].opaque, windows[0].len),
        other => panic!("a windowed ingress replies its array: {other:?}"),
    };

    // Two groups append to the window's one array: 3 pages, then 5.
    let (first, len) = array(group(&[payload(1_000)]).unwrap());
    books(len, "after the first group");
    let (second, len) = array(group(&[payload(400), payload(300)]).unwrap());
    assert_eq!((second, len), (first, 1_700), "the second group grew the same array");
    books(1_700, "after the second group");

    // A third group appends 300 events (6 pages), then a batch that does
    // not fit the 4 pages left: the group is refused and the array cut
    // back to its 1 700 events.
    let err = group(&[payload(300), payload(1_500)]).unwrap_err();
    assert_eq!(err, DataPlaneError::QuotaExceeded);
    books(1_700, "after the refused group");
    assert_eq!(dp.tenant_ingest(TENANT).unwrap().0, 1_700);

    // The fire consumes the array and retires it, and its output.
    let total = in_tee(|| {
        dp.invoke(TENANT, PrimitiveKind::Sum, &[first], PrimitiveParams::None, &HintSet::none())
    })
    .unwrap();
    in_tee(|| dp.retire(TENANT, first)).unwrap();
    in_tee(|| dp.retire(TENANT, total[0].opaque)).unwrap();
    books(0, "after the fire");
    assert_eq!(dp.memory_report().live_uarrays, 0);
    assert_eq!(dp.live_refs(TENANT), 0);
}

/// A consumed sort hands its window array's pages to its output: after
/// each sort the ledger, the carve-out and the tenant's charge still hold
/// exactly the window's arrays, and not one page more was ever committed.
/// A merge of the sorted runs that trips the quota part-way releases what
/// it wrote and retires its runs, leaving nothing; one with room leaves its
/// fresh array, and its retire nothing.
#[test]
fn books_agree_as_sorts_take_over_their_arrays_and_a_merge_trips_the_quota() {
    use sbt_types::{Duration, WindowSpec};
    const TENANT: TenantId = TenantId(1);
    const LEN: u32 = 1_700; // 5 pages
    let dp = DataPlane::new(Platform::hikey(), DataPlaneConfig::default());
    dp.register_tenant(TENANT, Some(14 * PAGE_SIZE)).unwrap();
    let spec = WindowSpec::fixed(Duration::from_secs(1));
    let carve_out = dp.platform().secure_mem();
    let books = |bytes: u64, at: &str| {
        assert_eq!(carve_out.in_use(), bytes, "{at}: the carve-out");
        assert_eq!(dp.memory_report().committed_bytes, bytes, "{at}: the ledger");
        assert_eq!(dp.tenant_memory(TENANT).unwrap().used_bytes, bytes, "{at}: the charge");
    };
    // Window `w`'s array on ingest lane `lane`: LEN events, keys descending.
    let ingest = |w: u32, lane: u32| {
        let events: Vec<Event> =
            (0..LEN).map(|i| Event::new(LEN - i, i, w * 1_000 + i % 1_000)).collect();
        let payload = Event::slice_to_bytes(&events);
        let cmd = Command::WindowedIngress {
            payload: &payload,
            encrypted: false,
            is_power: false,
            keystream_block: 0,
            spec,
            side: 0,
            lane,
        };
        match in_tee(|| dp.call(TENANT, &[cmd])).unwrap().pop() {
            Some(Reply::WindowedIngress { windows, .. }) => windows[0].opaque,
            other => panic!("a windowed ingress replies its array: {other:?}"),
        }
    };
    let sort_consumed = |r: OpaqueRef, i: u32| {
        let hints = HintSet::consumed_in_parallel(2, i);
        let list = [sort(Arg::Ref(r), hints), Command::Retire(Arg::Ref(r))];
        let replies = in_tee(|| dp.call(TENANT, &list)).unwrap();
        replies[0].outputs()[0].opaque
    };
    let merge = |runs: [OpaqueRef; 2]| {
        let cmds = [
            Command::Invoke {
                op: PrimitiveKind::MergeK,
                inputs: runs.map(Arg::Ref).to_vec(),
                params: PrimitiveParams::None,
                hints: HintSet::none(),
            },
            Command::Retire(Arg::Ref(runs[0])),
            Command::Retire(Arg::Ref(runs[1])),
        ];
        in_tee(|| dp.call(TENANT, &cmds))
    };
    let runs = page_rounded(LEN as usize);

    for round in 0..2 {
        let (a0, a1) = (ingest(round, 0), ingest(round, 1));
        books(2 * runs, "after ingest");
        carve_out.reset_high_water();
        let s0 = sort_consumed(a0, 0);
        books(2 * runs, "after the first sort");
        let s1 = sort_consumed(a1, 1);
        books(2 * runs, "after the second sort");
        assert_eq!(carve_out.high_water(), 2 * runs, "a sort in place commits no page");
        if round == 0 {
            // The merged array needs 10 pages; 4 are left.
            assert_eq!(merge([s0, s1]).unwrap_err(), DataPlaneError::QuotaExceeded);
            assert_eq!(carve_out.high_water(), 14 * PAGE_SIZE, "the merge stopped at the quota");
            books(0, "after the refused merge");
            dp.set_tenant_quota(TENANT, Some(20 * PAGE_SIZE)).unwrap();
        } else {
            let merged = merge([s0, s1]).unwrap()[0].outputs()[0];
            assert_eq!(merged.len, 2 * LEN as usize);
            books(page_rounded(merged.len), "after the merge");
            in_tee(|| dp.retire(TENANT, merged.opaque)).unwrap();
            books(0, "after the retire");
        }
        assert_eq!(dp.memory_report().live_uarrays, 0);
        assert_eq!(dp.live_refs(TENANT), 0);
    }
}
