//! The plane's memory books agree under random multi-tenant traffic.
//!
//! A seeded random sequence of ingress, `Sort` (with and without a
//! consumed-in-parallel hint), retirement and tenant eviction runs under
//! both placement policies. After every step three views of the secure
//! memory must agree:
//!
//! * (a) the allocator's committed bytes equal the carve-out's bytes in use;
//! * (b) the tenants' charged bytes sum to the carve-out's bytes in use;
//! * (c) the committed bytes are exactly the page-rounded arrays the control
//!   plane still holds references to, plus the retired bytes stuck behind
//!   live arrays — nothing retired is left committed at a group's front.

use sbt_attest::DepartureReason;
use sbt_dataplane::{DataPlane, DataPlaneConfig, DataPlaneError, OpaqueRef, PrimitiveParams};
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
        match rng.below(15) {
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

#[test]
fn books_agree_under_hint_guided_placement() {
    random_traffic(PlacementPolicy::HintGuided, 0x5EED_0001);
}

#[test]
fn books_agree_under_same_producer_placement() {
    random_traffic(PlacementPolicy::SameProducer, 0x5EED_0002);
}
