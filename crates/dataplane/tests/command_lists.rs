//! Command lists fail closed.
//!
//! A command list is control-plane input like any other: every argument it
//! names — a held reference or an earlier command's output — is checked
//! before it is used. A list that names an output no earlier command
//! produces is refused before anything runs; a bad reference inside a list
//! stops the list at that command, with the replies of the commands before
//! it returned and nothing of the failing command done (no egress sequence
//! number spent). A bounded fuzz of random lists shows every outcome is a
//! typed error or success and that nothing leaks: once the references the
//! replies handed out are retired, the tenant's usage and the platform's
//! secure memory are back to zero. The grouped aggregates and Join take
//! key-sorted input; an unsorted one is refused like any other bad
//! argument, so the fuzz draws them too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbt_attest::AuditRecord;
use sbt_dataplane::{
    Arg, Command, DataPlane, DataPlaneConfig, DataPlaneError, OpaqueRef, PrimitiveParams, Replies,
    Reply,
};
use sbt_types::{Event, PrimitiveKind, TenantId, Watermark};
use sbt_tz::{Platform, World, WorldGuard};
use sbt_uarray::HintSet;
use std::sync::Arc;

const T: TenantId = TenantId(1);
const OTHER: TenantId = TenantId(2);

fn in_tee<R>(f: impl FnOnce() -> R) -> R {
    let _g = WorldGuard::enter(World::Secure);
    f()
}

fn plane(quota: Option<u64>) -> Arc<DataPlane> {
    let dp = DataPlane::new(Platform::hikey(), DataPlaneConfig::default());
    dp.register_tenant(T, quota).unwrap();
    dp.register_tenant(OTHER, None).unwrap();
    dp
}

fn call(dp: &DataPlane, tenant: TenantId, cmds: &[Command<'_>]) -> Replies {
    in_tee(|| dp.call(tenant, cmds))
}

fn wire(n: u32, seed: u32) -> Vec<u8> {
    // Timestamps stay inside the first one-second window.
    let events: Vec<Event> =
        (0..n).map(|i| Event::new((i * 7 + seed) % 13, i ^ seed, i % 1_000)).collect();
    Event::slice_to_bytes(&events)
}

fn ingress(payload: &[u8]) -> Command<'_> {
    Command::Ingress { payload, encrypted: false, is_power: false, keystream_block: 0 }
}

fn invoke(op: PrimitiveKind, inputs: Vec<Arg>) -> Command<'static> {
    let params = match op {
        PrimitiveKind::Segment => PrimitiveParams::one_second_windows(),
        PrimitiveKind::FilterBand => PrimitiveParams::Band { lo: 0, hi: 1 << 30 },
        PrimitiveKind::TopKPerKey => PrimitiveParams::K(3),
        _ => PrimitiveParams::None,
    };
    Command::Invoke { op, inputs, params, hints: HintSet::none() }
}

fn held(dp: &DataPlane, tenant: TenantId, payload: &[u8]) -> OpaqueRef {
    in_tee(|| dp.ingress(tenant, payload, false, false, 0)).unwrap().opaque
}

/// The egress sequence number the tenant's next result gets.
fn next_egress_seq(dp: &DataPlane, payload: &[u8]) -> u64 {
    let r = held(dp, T, payload);
    let seq = in_tee(|| dp.egress(T, r)).unwrap().seq;
    in_tee(|| dp.retire(T, r)).unwrap();
    seq
}

/// The tenant's drained audit records with the wall-clock stamp zeroed.
fn drained_records(dp: &DataPlane) -> Vec<AuditRecord> {
    let keys = dp.verifier_keys(T).unwrap();
    let segments = dp.drain_audit_segments(T).unwrap();
    let mut records = sbt_attest::verify_tenant_trail(&segments, T, &keys).expect("trail verifies");
    for r in &mut records {
        match r {
            AuditRecord::Ingress { ts_ms, .. }
            | AuditRecord::Egress { ts_ms, .. }
            | AuditRecord::Windowing { ts_ms, .. }
            | AuditRecord::Execution { ts_ms, .. }
            | AuditRecord::Rekey { ts_ms, .. }
            | AuditRecord::Departure { ts_ms, .. }
            | AuditRecord::Checkpoint { ts_ms, .. } => *ts_ms = 0,
        }
    }
    records
}

#[test]
fn a_list_runs_its_commands_in_order_and_audits_them_as_single_calls() {
    let payload = wire(500, 1);
    let listed = plane(None);
    let replies = call(
        &listed,
        T,
        &[
            ingress(&payload),
            invoke(PrimitiveKind::Segment, vec![Arg::out(0)]),
            Command::Retire(Arg::out(0)),
            invoke(PrimitiveKind::Sort, vec![Arg::out(1)]),
            Command::Retire(Arg::out(1)),
            Command::Egress(Arg::out(3)),
            Command::Retire(Arg::out(3)),
            Command::Watermark(Watermark::from_secs(1)),
        ],
    );
    assert_eq!(replies.failed, None);
    assert_eq!(replies.done.len(), 8);

    let single = plane(None);
    in_tee(|| {
        let ingested = single.ingress(T, &payload, false, false, 0).unwrap();
        let windows = single
            .invoke(
                T,
                PrimitiveKind::Segment,
                &[ingested.opaque],
                PrimitiveParams::one_second_windows(),
                &HintSet::none(),
            )
            .unwrap();
        single.retire(T, ingested.opaque).unwrap();
        let sorted = single
            .invoke(
                T,
                PrimitiveKind::Sort,
                &[windows[0].opaque],
                PrimitiveParams::None,
                &HintSet::none(),
            )
            .unwrap();
        single.retire(T, windows[0].opaque).unwrap();
        let msg = single.egress(T, sorted[0].opaque).unwrap();
        single.retire(T, sorted[0].opaque).unwrap();
        single.ingress_watermark(T, Watermark::from_secs(1)).unwrap();
        let Reply::Egress(listed_msg) = &replies.done[5] else { panic!("egress reply") };
        assert_eq!(listed_msg.ciphertext, msg.ciphertext);
    });
    assert_eq!(drained_records(&listed), drained_records(&single));
    assert_eq!(listed.live_refs(T), 0);
}

#[test]
fn a_forward_reference_is_refused_before_anything_runs() {
    let dp = plane(None);
    let payload = wire(100, 2);
    let replies = call(
        &dp,
        T,
        &[Command::Retire(Arg::out(1)), ingress(&payload), Command::Egress(Arg::out(1))],
    );
    assert!(replies.done.is_empty());
    assert!(matches!(replies.failed, Some(DataPlaneError::BadArguments(_))));
    // Nothing ran: no array, no record, no sequence number.
    assert_eq!(dp.live_refs(T), 0);
    assert_eq!(dp.tenant_ingest(T).unwrap(), (0, 0));
    assert!(drained_records(&dp).is_empty());
    assert_eq!(next_egress_seq(&dp, &payload), 0);
}

#[test]
fn an_index_past_a_commands_outputs_stops_the_list_there() {
    let dp = plane(None);
    let payload = wire(100, 3);
    let replies = call(
        &dp,
        T,
        &[
            ingress(&payload),
            invoke(PrimitiveKind::Sort, vec![Arg::out(0)]),
            Command::Egress(Arg::Out { cmd: 1, idx: 1 }),
            Command::Retire(Arg::out(1)),
        ],
    );
    assert!(matches!(replies.failed, Some(DataPlaneError::BadArguments(_))));
    // The earlier outputs come back: the caller still holds them.
    assert_eq!(replies.done.len(), 2);
    let live: Vec<OpaqueRef> =
        replies.done.iter().flat_map(|r| r.outputs()).map(|o| o.opaque).collect();
    assert_eq!(live.len(), 2);
    assert_eq!(dp.live_refs(T), 2);
    assert_eq!(next_egress_seq(&dp, &payload), 0, "no sequence number was spent");
    // An ingress has exactly one output: naming a second is refused up
    // front.
    let refused = call(&dp, T, &[ingress(&payload), Command::Retire(Arg::Out { cmd: 0, idx: 1 })]);
    assert!(refused.done.is_empty());
    assert_eq!(dp.live_refs(T), 2);
    for r in live {
        in_tee(|| dp.retire(T, r)).unwrap();
    }
    assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0);
}

#[test]
fn a_forged_reference_in_a_list_is_rejected_without_spending_a_sequence_number() {
    let dp = plane(None);
    let payload = wire(100, 4);
    let forged = OpaqueRef(0xDEAD_BEEF_0BAD_F00D);
    let replies = call(&dp, T, &[ingress(&payload), Command::Egress(Arg::Ref(forged))]);
    assert_eq!(replies.failed, Some(DataPlaneError::InvalidReference));
    let [Reply::Ingress(ingested)] = replies.done.as_slice() else { panic!("ingress reply") };
    assert_eq!(next_egress_seq(&dp, &payload), 0);
    in_tee(|| dp.retire(T, ingested.opaque)).unwrap();
    assert_eq!(dp.live_refs(T), 0);
}

#[test]
fn another_tenants_reference_in_a_list_does_not_resolve() {
    let dp = plane(None);
    let payload = wire(100, 5);
    let theirs = held(&dp, OTHER, &payload);
    let replies = call(
        &dp,
        T,
        &[
            ingress(&payload),
            invoke(PrimitiveKind::Merge, vec![Arg::out(0), Arg::Ref(theirs)]),
            Command::Egress(Arg::Ref(theirs)),
        ],
    );
    assert_eq!(replies.failed, Some(DataPlaneError::InvalidReference));
    assert_eq!(replies.done.len(), 1);
    assert_eq!(next_egress_seq(&dp, &payload), 0);
    // The other tenant's array is untouched and still theirs.
    assert_eq!(dp.live_refs(OTHER), 1);
    in_tee(|| dp.retire(OTHER, theirs)).unwrap();
}

/// The primitives that read their inputs as key runs.
const KEY_SORTED_OPS: [PrimitiveKind; 7] = [
    PrimitiveKind::SumCnt,
    PrimitiveKind::AveragePerKey,
    PrimitiveKind::CountPerKey,
    PrimitiveKind::MedianPerKey,
    PrimitiveKind::Unique,
    PrimitiveKind::TopKPerKey,
    PrimitiveKind::Join,
];

#[test]
fn an_unsorted_input_to_a_key_run_primitive_is_refused_before_any_work() {
    let dp = plane(None);
    let payload = wire(300, 6);
    for op in KEY_SORTED_OPS {
        let arity = if op == PrimitiveKind::Join { 2 } else { 1 };
        // Ingress order is not key order.
        let unsorted = call(&dp, T, &[ingress(&payload), invoke(op, vec![Arg::out(0); arity])]);
        assert_eq!(
            unsorted.failed,
            Some(DataPlaneError::BadArguments("input not key-sorted")),
            "{op:?}"
        );
        assert_eq!(unsorted.done.len(), 1, "{op:?}");
        // The same events sorted first are accepted.
        let sorted = call(
            &dp,
            T,
            &[
                ingress(&payload),
                invoke(PrimitiveKind::Sort, vec![Arg::out(0)]),
                invoke(op, vec![Arg::out(1); arity]),
            ],
        );
        assert_eq!(sorted.failed, None, "{op:?}");
        for r in unsorted.done.iter().chain(&sorted.done).flat_map(|r| r.outputs()) {
            in_tee(|| dp.retire(T, r.opaque)).unwrap();
        }
    }
    // A refused invocation mints nothing, audits nothing and spends no
    // sequence number.
    assert_eq!(next_egress_seq(&dp, &payload), 0);
    let executions =
        drained_records(&dp).iter().filter(|r| matches!(r, AuditRecord::Execution { .. })).count();
    assert_eq!(executions, 2 * KEY_SORTED_OPS.len(), "one Sort and one op per sorted list");
    assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0);
}

/// One random argument: a held reference, an earlier output (in or out of
/// range), a forward reference, a forged reference or another tenant's.
fn random_arg(rng: &mut StdRng, at: usize, held: &[OpaqueRef], theirs: OpaqueRef) -> Arg {
    match rng.gen_range(0..10u32) {
        0..=2 if !held.is_empty() => Arg::Ref(held[rng.gen_range(0..held.len())]),
        0..=5 if at > 0 => Arg::Out { cmd: rng.gen_range(0..at), idx: rng.gen_range(0..3usize) },
        6 => Arg::out(at + rng.gen_range(0..2usize)),
        7 => Arg::Ref(OpaqueRef(rng.gen())),
        8 => Arg::Ref(theirs),
        _ => Arg::out(at.saturating_sub(1)),
    }
}

#[test]
fn random_lists_fail_typed_and_leak_nothing() {
    let ops: Vec<PrimitiveKind> = [
        PrimitiveKind::Segment,
        PrimitiveKind::Sort,
        PrimitiveKind::Merge,
        PrimitiveKind::Concat,
        PrimitiveKind::FilterBand,
        PrimitiveKind::Sum,
        PrimitiveKind::MinMax,
        PrimitiveKind::Ingress,
        PrimitiveKind::Egress,
    ]
    .into_iter()
    .chain(KEY_SORTED_OPS)
    .collect();
    // A quota small enough that random lists also trip it.
    let dp = plane(Some(256 * 1024));
    let payloads: Vec<Vec<u8>> = (0..4u32).map(|i| wire(200 + 900 * i, i)).collect();
    let ragged = vec![0u8; 13];
    let theirs = held(&dp, OTHER, &payloads[0]);
    let mut rng = StdRng::seed_from_u64(0x5b7_c0de);
    let mut handed_out: Vec<OpaqueRef> = Vec::new();
    let (mut ok, mut failed) = (0, 0);
    for _ in 0..400 {
        let len = rng.gen_range(1..8usize);
        let recent = &handed_out[handed_out.len().saturating_sub(8)..];
        let cmds: Vec<Command<'_>> = (0..len)
            .map(|at| match rng.gen_range(0..10u32) {
                0..=2 => match rng.gen_range(0..5usize) {
                    4 => ingress(&ragged),
                    i => ingress(&payloads[i]),
                },
                3..=5 => {
                    let op = ops[rng.gen_range(0..ops.len())];
                    let arity = rng.gen_range(1..3usize);
                    invoke(
                        op,
                        (0..arity).map(|_| random_arg(&mut rng, at, recent, theirs)).collect(),
                    )
                }
                6 => Command::Egress(random_arg(&mut rng, at, recent, theirs)),
                7 => Command::Retire(random_arg(&mut rng, at, recent, theirs)),
                8 => Command::Watermark(Watermark::from_secs(rng.gen_range(0..5u64))),
                _ => Command::UncountIngest { events: rng.gen_range(0..100u64), bytes: 0 },
            })
            .collect();
        let replies = call(&dp, T, &cmds);
        match &replies.failed {
            None => {
                assert_eq!(replies.done.len(), cmds.len());
                ok += 1;
            }
            Some(_) => {
                assert!(replies.done.len() < cmds.len());
                failed += 1;
            }
        }
        handed_out.extend(replies.done.iter().flat_map(|r| r.outputs()).map(|o| o.opaque));
    }
    assert!(ok > 20 && failed > 20, "the fuzz exercises both outcomes: {ok} ok, {failed} failed");
    for r in handed_out {
        let _ = in_tee(|| dp.retire(T, r));
    }
    assert_eq!(dp.live_refs(T), 0);
    assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0);
    in_tee(|| dp.retire(OTHER, theirs)).unwrap();
    assert_eq!(dp.platform().secure_mem().in_use(), 0);
    // The trail still verifies after all of it.
    drained_records(&dp);
}
