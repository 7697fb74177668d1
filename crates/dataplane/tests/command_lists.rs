//! Command lists fail closed, and fail whole.
//!
//! A command list is control-plane input like any other: every argument it
//! names — a held reference or an earlier command's output — is checked
//! before it is used. A list that names an output no earlier command
//! produces is refused before anything runs; a bad reference inside a list
//! fails the list at that command. A failed list leaves no trace: no audit
//! record, no ingest count, no egress message or sequence number, no
//! output. The held references it names in a `Retire` are retired all the
//! same, so the caller holds what it would hold had the list succeeded,
//! minus the outputs — whichever command failed (the ordinal property
//! below). A bounded fuzz of random lists shows every outcome is a typed
//! error or success and that nothing leaks: once the references the
//! successful lists handed out are retired, the tenant's usage and the
//! platform's secure memory are back to zero. The grouped aggregates and Join take
//! key-sorted input; an unsorted one is refused like any other bad
//! argument, so the fuzz draws them too. Consumption hints are arguments as
//! well: more hints than outputs, a parallel hint outside `0..k` and a
//! consumed-after hint naming an array the caller does not own are refused.
//! The fuzz draws hints of every kind, and windowed ingress under a
//! well-formed and a malformed window spec.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbt_attest::{AuditRecord, DataRef, DepartureReason, UArrayRef};
use sbt_crypto::MasterSecret;
use sbt_dataplane::{
    Arg, Command, DataPlane, DataPlaneConfig, DataPlaneError, OpaqueRef, PrimitiveParams, Reply,
};
use sbt_types::{
    Duration, Event, LanePool, LaneTask, PrimitiveKind, TenantId, Watermark, WindowSpec,
};
use sbt_tz::{Platform, World, WorldGuard};
use sbt_uarray::{ConsumptionHint, HintSet, TeePager, UArrayId};
use std::sync::{mpsc, Arc, Mutex};

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

fn call(
    dp: &DataPlane,
    tenant: TenantId,
    cmds: &[Command<'_>],
) -> Result<Vec<Reply>, DataPlaneError> {
    in_tee(|| dp.call(tenant, cmds))
}

fn wire(n: u32, seed: u32) -> Vec<u8> {
    // Timestamps stay inside the first one-second window.
    let events: Vec<Event> =
        (0..n).map(|i| Event::new((i * 7 + seed) % 13, i ^ seed, i % 1_000)).collect();
    Event::slice_to_bytes(&events)
}

fn one_second() -> WindowSpec {
    WindowSpec::fixed(Duration::from_secs(1))
}

fn ingress(payload: &[u8]) -> Command<'_> {
    Command::Ingress { payload, encrypted: false, is_power: false, keystream_block: 0 }
}

fn windowed(payload: &[u8], spec: WindowSpec) -> Command<'_> {
    Command::WindowedIngress {
        payload,
        encrypted: false,
        is_power: false,
        keystream_block: 0,
        spec,
        side: 0,
        lane: 0,
    }
}

fn invoke(op: PrimitiveKind, inputs: Vec<Arg>) -> Command<'static> {
    hinted(op, inputs, HintSet::none())
}

fn hinted(op: PrimitiveKind, inputs: Vec<Arg>, hints: HintSet) -> Command<'static> {
    let params = match op {
        PrimitiveKind::FilterBand => PrimitiveParams::Band { lo: 0, hi: 1 << 30 },
        PrimitiveKind::TopKPerKey => PrimitiveParams::K(3),
        _ => PrimitiveParams::None,
    };
    Command::Invoke { op, inputs, params, hints }
}

fn hints(entries: &[ConsumptionHint]) -> HintSet {
    let mut set = HintSet::none();
    for hint in entries {
        set.push(Some(*hint));
    }
    set
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
            invoke(PrimitiveKind::Sort, vec![Arg::out(0)]),
            Command::Retire(Arg::out(0)),
            Command::Egress(Arg::out(1)),
            Command::Retire(Arg::out(1)),
            Command::Watermark(Watermark::from_secs(1)),
        ],
    )
    .unwrap();
    assert_eq!(replies.len(), 6);

    let single = plane(None);
    in_tee(|| {
        let ingested = single.ingress(T, &payload, false, false, 0).unwrap();
        let sorted = single
            .invoke(
                T,
                PrimitiveKind::Sort,
                &[ingested.opaque],
                PrimitiveParams::None,
                &HintSet::none(),
            )
            .unwrap();
        single.retire(T, ingested.opaque).unwrap();
        let msg = single.egress(T, sorted[0].opaque).unwrap();
        single.retire(T, sorted[0].opaque).unwrap();
        single.ingress_watermark(T, Watermark::from_secs(1)).unwrap();
        let Reply::Egress(listed_msg) = &replies[3] else { panic!("egress reply") };
        assert_eq!(listed_msg.ciphertext, msg.ciphertext);
    });
    assert_eq!(drained_records(&listed), drained_records(&single));
    assert_eq!(listed.live_refs(T), 0);
}

#[test]
fn a_forward_reference_is_refused_before_anything_runs() {
    let dp = plane(None);
    let payload = wire(100, 2);
    let refused = call(
        &dp,
        T,
        &[Command::Retire(Arg::out(1)), ingress(&payload), Command::Egress(Arg::out(1))],
    );
    assert!(matches!(refused, Err(DataPlaneError::BadArguments(_))));
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
    let failed = call(
        &dp,
        T,
        &[
            ingress(&payload),
            invoke(PrimitiveKind::Sort, vec![Arg::out(0)]),
            // The batch lies in one window, which only running it shows.
            windowed(&payload, one_second()),
            Command::Egress(Arg::Out { cmd: 2, idx: 1 }),
            Command::Retire(Arg::out(1)),
        ],
    );
    assert_eq!(failed.unwrap_err(), DataPlaneError::BadArguments("command output out of range"));
    // The list stops there and is unwound: the outputs of the commands
    // before it are released, and nothing of it is counted or audited.
    assert_eq!(dp.live_refs(T), 0);
    assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0);
    assert_eq!(dp.tenant_ingest(T).unwrap(), (0, 0));
    assert!(drained_records(&dp).is_empty());
    assert_eq!(next_egress_seq(&dp, &payload), 0, "no sequence number was spent");
    // An ingress has exactly one output: naming a second is refused up
    // front.
    let refused = call(&dp, T, &[ingress(&payload), Command::Retire(Arg::Out { cmd: 0, idx: 1 })]);
    assert!(matches!(refused, Err(DataPlaneError::BadArguments(_))));
    assert_eq!(dp.live_refs(T), 0);
    assert_eq!(dp.platform().secure_mem().in_use(), 0);
}

#[test]
fn an_invocations_second_output_is_refused_before_the_list_runs() {
    let dp = plane(None);
    let payload = wire(100, 5);
    let refused = call(
        &dp,
        T,
        &[
            windowed(&payload, one_second()),
            invoke(PrimitiveKind::Sort, vec![Arg::out(0)]),
            Command::Egress(Arg::Out { cmd: 1, idx: 1 }),
        ],
    );
    assert_eq!(
        refused.unwrap_err(),
        DataPlaneError::BadArguments("command names an output no earlier command produces")
    );
    // An invocation has one output, known before the list runs: the list
    // was refused before its ingress committed a page, so nothing unwound.
    assert_eq!(dp.platform().stats().snapshot().tee_pages_committed, 0);
    assert_eq!(dp.live_refs(T), 0);
    assert_eq!(dp.tenant_ingest(T).unwrap(), (0, 0));
    assert!(drained_records(&dp).is_empty());
    assert_eq!(next_egress_seq(&dp, &payload), 0);
}

#[test]
fn an_invoke_of_segment_is_refused_with_nothing_left_behind() {
    let dp = plane(None);
    let payload = wire(500, 6);
    let raw = held(&dp, T, &payload);
    let window = call(&dp, T, &[windowed(&payload, one_second())]).unwrap()[0].outputs()[0];
    let pages = || dp.platform().stats().snapshot().tee_pages_committed;
    let in_use = dp.platform().secure_mem().in_use();
    let (committed, audited) = (pages(), dp.stats().snapshot().audit_records);
    let refused = DataPlaneError::BadArguments("not an invokable primitive");
    // Alone, over a held array or an open window array: refused before
    // anything is reserved.
    for input in [raw, window.opaque] {
        let segment = invoke(PrimitiveKind::Segment, vec![Arg::Ref(input)]);
        assert_eq!(call(&dp, T, &[segment]).unwrap_err(), refused);
        assert_eq!(pages(), committed, "nothing reserved");
    }
    // After an ingress in one list: the ingress's pages are all the list
    // committed, and its unwind gave them back.
    let list = [ingress(&payload), invoke(PrimitiveKind::Segment, vec![Arg::out(0)])];
    assert_eq!(call(&dp, T, &list).unwrap_err(), refused);
    assert_eq!(pages(), committed + TeePager::pages_for(payload.len() as u64));
    assert_eq!(dp.platform().secure_mem().in_use(), in_use);
    assert_eq!(dp.stats().snapshot().audit_records, audited, "no record");
    assert_eq!(dp.live_refs(T), 2, "the held array and the window array");
    assert_eq!(dp.tenant_ingest(T).unwrap(), (1_000, 2 * payload.len() as u64));
    // The window array is still open: the next batch grows it.
    let grown = call(&dp, T, &[windowed(&payload, one_second())]).unwrap()[0].outputs()[0];
    assert_eq!((grown.opaque, grown.len), (window.opaque, 1_000));
    for r in [raw, window.opaque] {
        in_tee(|| dp.retire(T, r)).unwrap();
    }
    assert_eq!(next_egress_seq(&dp, &payload), 0, "no sequence number was spent");
    let records = drained_records(&dp);
    let executions = records.iter().filter(|r| matches!(r, AuditRecord::Execution { .. })).count();
    assert_eq!(executions, 0);
    assert_eq!(dp.live_refs(T), 0);
    assert_eq!(dp.platform().secure_mem().in_use(), 0);
}

#[test]
fn a_forged_reference_in_a_list_is_rejected_without_spending_a_sequence_number() {
    let dp = plane(None);
    let payload = wire(100, 4);
    let forged = OpaqueRef(0xDEAD_BEEF_0BAD_F00D);
    let failed = call(&dp, T, &[ingress(&payload), Command::Egress(Arg::Ref(forged))]);
    assert_eq!(failed.unwrap_err(), DataPlaneError::InvalidReference);
    // The ingested batch went with the list.
    assert_eq!(dp.live_refs(T), 0);
    assert_eq!(dp.tenant_ingest(T).unwrap(), (0, 0));
    assert!(drained_records(&dp).is_empty());
    assert_eq!(next_egress_seq(&dp, &payload), 0);
    assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0);
}

#[test]
fn another_tenants_reference_in_a_list_does_not_resolve() {
    let dp = plane(None);
    let payload = wire(100, 5);
    let theirs = held(&dp, OTHER, &payload);
    let failed = call(
        &dp,
        T,
        &[
            ingress(&payload),
            invoke(PrimitiveKind::Merge, vec![Arg::out(0), Arg::Ref(theirs)]),
            Command::Retire(Arg::Ref(theirs)),
            Command::Egress(Arg::Ref(theirs)),
        ],
    );
    assert_eq!(failed.unwrap_err(), DataPlaneError::InvalidReference);
    assert_eq!(dp.live_refs(T), 0);
    assert_eq!(next_egress_seq(&dp, &payload), 0);
    // The other tenant's array is untouched and still theirs, though the
    // failed list named it in a retire.
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
            unsorted.unwrap_err(),
            DataPlaneError::BadArguments("input not key-sorted"),
            "{op:?}"
        );
        assert_eq!(dp.live_refs(T), 0, "{op:?}");
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
        for r in sorted.unwrap().iter().flat_map(|r| r.outputs()) {
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

/// Held key-sorted arrays of `wire(n, seed)`'s events, one per entry.
fn sorted_runs(dp: &DataPlane, runs: &[(u32, u32)]) -> Vec<OpaqueRef> {
    runs.iter()
        .map(|&(n, seed)| {
            let payload = wire(n, seed);
            let sort = invoke(PrimitiveKind::Sort, vec![Arg::out(0)]);
            let replies = call(dp, T, &[ingress(&payload), sort, Command::Retire(Arg::out(0))]);
            replies.unwrap()[1].outputs()[0].opaque
        })
        .collect()
}

/// Invoke `op` over held `inputs` and check it is refused with `expected`
/// before any page is reserved: the carve-out never rose above what was in
/// use, the inputs are still held, nothing was charged and nothing audited.
fn refused_before_any_page(
    dp: &DataPlane,
    op: PrimitiveKind,
    inputs: &[OpaqueRef],
    params: PrimitiveParams,
    expected: DataPlaneError,
) {
    let carve_out = dp.platform().secure_mem();
    let (in_use, refs, used) =
        (carve_out.in_use(), dp.live_refs(T), dp.tenant_memory(T).unwrap().used_bytes);
    carve_out.reset_high_water();
    let inputs = inputs.iter().map(|r| Arg::Ref(*r)).collect();
    let cmd = Command::Invoke { op, inputs, params, hints: HintSet::none() };
    assert_eq!(call(dp, T, &[cmd]).unwrap_err(), expected, "{op:?} {params:?}");
    assert_eq!(carve_out.high_water(), in_use, "{op:?} {params:?}: no page reserved");
    assert_eq!(dp.live_refs(T), refs, "{op:?} {params:?}");
    assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, used, "{op:?} {params:?}");
}

#[test]
fn an_unsorted_run_among_sorted_ones_is_refused_before_any_page_is_reserved() {
    let dp = plane(None);
    let runs = sorted_runs(&dp, &[(300, 1), (200, 2), (0, 3), (250, 4)]);
    let unsorted = held(&dp, T, &wire(300, 6));
    drained_records(&dp);
    for op in KEY_SORTED_OPS {
        let params = match op {
            PrimitiveKind::TopKPerKey => PrimitiveParams::K(3),
            PrimitiveKind::Join => PrimitiveParams::Left(2),
            _ => PrimitiveParams::None,
        };
        // The unsorted run in every place, on either side of a join.
        for at in 0..=runs.len() {
            let mut inputs = runs.clone();
            inputs.insert(at, unsorted);
            let expected = DataPlaneError::BadArguments("input not key-sorted");
            refused_before_any_page(&dp, op, &inputs, params, expected);
        }
    }
    assert!(drained_records(&dp).is_empty(), "a refused invocation audits nothing");
    for r in runs.into_iter().chain([unsorted]) {
        in_tee(|| dp.retire(T, r)).unwrap();
    }
    assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0);
}

#[test]
fn a_join_whose_left_side_is_empty_or_everything_is_refused() {
    let dp = plane(None);
    let runs = sorted_runs(&dp, &[(300, 1), (200, 2), (250, 4)]);
    let sides = DataPlaneError::BadArguments("Join needs runs on both sides");
    for left in [0, 3, 4, usize::MAX] {
        refused_before_any_page(
            &dp,
            PrimitiveKind::Join,
            &runs,
            PrimitiveParams::Left(left),
            sides.clone(),
        );
    }
    // `None` is one input a side: three inputs, or one, are refused too.
    for inputs in [&runs[..], &runs[..1]] {
        let join = PrimitiveKind::Join;
        refused_before_any_page(&dp, join, inputs, PrimitiveParams::None, sides.clone());
    }
    // Every split with runs on both sides joins.
    for left in 1..3 {
        let cmd = Command::Invoke {
            op: PrimitiveKind::Join,
            inputs: runs.iter().map(|r| Arg::Ref(*r)).collect(),
            params: PrimitiveParams::Left(left),
            hints: HintSet::none(),
        };
        let joined = call(&dp, T, &[cmd]).unwrap()[0].outputs()[0].opaque;
        in_tee(|| dp.retire(T, joined)).unwrap();
    }
    for r in runs {
        in_tee(|| dp.retire(T, r)).unwrap();
    }
    assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0);
}

/// The id of the data array a tenant ingested last, read off its trail
/// (draining it).
fn last_ingested_id(dp: &DataPlane, tenant: TenantId) -> UArrayId {
    let keys = dp.verifier_keys(tenant).unwrap();
    let segments = dp.drain_audit_segments(tenant).unwrap();
    let records = sbt_attest::verify_tenant_trail(&segments, tenant, &keys).unwrap();
    records
        .iter()
        .rev()
        .find_map(|r| match r {
            AuditRecord::Ingress { data: DataRef::UArray(id), .. } => Some(UArrayId(id.0 as u64)),
            _ => None,
        })
        .expect("the tenant ingested an array")
}

#[test]
fn malformed_hints_are_refused_before_any_work() {
    let dp = plane(None);
    let payload = wire(300, 7);
    let theirs = held(&dp, OTHER, &payload);
    let theirs_id = last_ingested_id(&dp, OTHER);
    // Ids are minted densely: the caller's array is the next one (checked
    // against its trail below).
    let mine = held(&dp, T, &payload);
    let mine_id = UArrayId(theirs_id.0 + 1);
    let parallel = |k, index| ConsumptionHint::ConsumedInParallel { k, index };
    let after = ConsumptionHint::ConsumedAfter;
    let refused = [
        // Two hints for Sort's one output.
        (PrimitiveKind::Sort, hints(&[parallel(2, 0), parallel(2, 1)]), "more hints than outputs"),
        // Every invocation has one output.
        (
            PrimitiveKind::FilterBand,
            hints(&[parallel(2, 0), parallel(2, 1)]),
            "more hints than outputs",
        ),
        (PrimitiveKind::Sort, hints(&[parallel(3, 3)]), "parallel hint index outside 0..k"),
        (PrimitiveKind::Sort, hints(&[parallel(0, 0)]), "parallel hint index outside 0..k"),
        (
            PrimitiveKind::Sort,
            hints(&[after(theirs_id)]),
            "consumed-after hint names a foreign uArray",
        ),
        (
            PrimitiveKind::Sort,
            hints(&[after(UArrayId(1 << 40))]),
            "consumed-after hint names a foreign uArray",
        ),
    ];
    for (op, hints, reason) in refused {
        let refused = call(&dp, T, &[ingress(&payload), hinted(op, vec![Arg::out(0)], hints)]);
        assert_eq!(refused.unwrap_err(), DataPlaneError::BadArguments(reason), "{op:?} {reason}");
        assert_eq!(dp.live_refs(T), 1, "only the held array is live: {op:?} {reason}");
    }
    // Well-formed hints are accepted: a sibling of a parallel set, and the
    // caller's own array as a predecessor.
    let accepted = call(
        &dp,
        T,
        &[
            ingress(&payload),
            hinted(PrimitiveKind::Sort, vec![Arg::out(0)], hints(&[parallel(3, 2)])),
            hinted(PrimitiveKind::Sort, vec![Arg::out(0)], hints(&[after(mine_id)])),
        ],
    );
    for r in accepted.unwrap().iter().flat_map(|r| r.outputs()) {
        in_tee(|| dp.retire(T, r.opaque)).unwrap();
    }
    in_tee(|| dp.retire(T, mine)).unwrap();
    // The refused lists minted nothing, audited nothing (not even their
    // ingress), charged nothing and spent no sequence number.
    assert_eq!(next_egress_seq(&dp, &payload), 0);
    let records = drained_records(&dp);
    let mine_ref = UArrayRef(mine_id.0 as u32);
    assert_eq!(records[0], AuditRecord::Ingress { ts_ms: 0, data: DataRef::UArray(mine_ref) });
    let executions = records.iter().filter(|r| matches!(r, AuditRecord::Execution { .. })).count();
    assert_eq!(executions, 2, "the two accepted Sorts");
    let ingresses = records.iter().filter(|r| matches!(r, AuditRecord::Ingress { .. })).count();
    assert_eq!(ingresses, 3, "the held array, the accepted list's and the probe's");
    assert_eq!(dp.live_refs(T), 0);
    assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0);
    in_tee(|| dp.retire(OTHER, theirs)).unwrap();
    assert_eq!(dp.platform().secure_mem().in_use(), 0);
}

/// A random hint set: half the time none, otherwise one or two entries of
/// any kind, well formed or not — parallel hints with any `k` and index,
/// predecessors that are this tenant's, another tenant's, or nobody's.
fn random_hints(rng: &mut StdRng) -> HintSet {
    let mut hints = HintSet::none();
    if rng.gen_range(0..2u32) == 0 {
        return hints;
    }
    for _ in 0..rng.gen_range(1..3usize) {
        hints.push(match rng.gen_range(0..4u32) {
            0 => None,
            1 => Some(ConsumptionHint::ConsumedInParallel {
                k: rng.gen_range(0..4),
                index: rng.gen_range(0..4),
            }),
            _ => Some(ConsumptionHint::ConsumedAfter(UArrayId(rng.gen_range(0..64)))),
        });
    }
    hints
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
    let one_second = one_second();
    let malformed = WindowSpec::Fixed { size: Duration::from_micros(0) };
    let theirs = held(&dp, OTHER, &payloads[0]);
    let mut rng = StdRng::seed_from_u64(0x5b7_c0de);
    let mut handed_out: Vec<OpaqueRef> = Vec::new();
    let (mut ok, mut failed) = (0, 0);
    for _ in 0..400 {
        let len = rng.gen_range(1..8usize);
        let recent = &handed_out[handed_out.len().saturating_sub(8)..];
        let cmds: Vec<Command<'_>> = (0..len)
            .map(|at| match rng.gen_range(0..9u32) {
                0..=2 => match rng.gen_range(0..7usize) {
                    4 => ingress(&ragged),
                    5 => windowed(&payloads[rng.gen_range(0..4usize)], one_second),
                    6 => windowed(&payloads[rng.gen_range(0..4usize)], malformed),
                    i => ingress(&payloads[i]),
                },
                3..=5 => {
                    let op = ops[rng.gen_range(0..ops.len())];
                    let arity = rng.gen_range(1..3usize);
                    let inputs =
                        (0..arity).map(|_| random_arg(&mut rng, at, recent, theirs)).collect();
                    hinted(op, inputs, random_hints(&mut rng))
                }
                6 => Command::Egress(random_arg(&mut rng, at, recent, theirs)),
                7 => Command::Retire(random_arg(&mut rng, at, recent, theirs)),
                _ => Command::Watermark(Watermark::from_secs(rng.gen_range(0..5u64))),
            })
            .collect();
        let (live_before, ingest_before) = (dp.live_refs(T), dp.tenant_ingest(T).unwrap());
        match call(&dp, T, &cmds) {
            Ok(replies) => {
                assert_eq!(replies.len(), cmds.len());
                handed_out.extend(replies.iter().flat_map(|r| r.outputs()).map(|o| o.opaque));
                ok += 1;
            }
            Err(_) => {
                // A failed list hands out nothing and counts nothing.
                assert!(dp.live_refs(T) <= live_before);
                assert_eq!(dp.tenant_ingest(T).unwrap(), ingest_before);
                failed += 1;
            }
        }
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

/// A list shaped like a window's tail — invoke over held references, retire
/// them, egress the result, retire it — fails at each position in turn: the
/// command there is replaced by an `Invoke` or an `Egress` naming a forged
/// reference, and an ingress followed by a failing command. Whichever
/// command fails, the list leaves no record, no egress message or sequence
/// number and no ingest, egress or audit count, the tenant's or the
/// plane's; the caller holds what it
/// held minus the list's `Retire` targets; once it retires those, nothing
/// is charged anywhere.
#[test]
fn a_list_failing_at_any_command_leaves_no_trace() {
    let forged = OpaqueRef(0xDEAD_BEEF_0BAD_F00D);
    let payloads = [wire(300, 8), wire(200, 9), wire(100, 10)];
    let tail = |a, b| {
        vec![
            invoke(PrimitiveKind::MergeK, vec![Arg::Ref(a), Arg::Ref(b)]),
            Command::Retire(Arg::Ref(a)),
            Command::Retire(Arg::Ref(b)),
            Command::Egress(Arg::out(0)),
            Command::Retire(Arg::out(0)),
        ]
    };
    let failing: [fn(OpaqueRef) -> Command<'static>; 2] = [
        |forged| invoke(PrimitiveKind::Sort, vec![Arg::Ref(forged)]),
        |forged| Command::Egress(Arg::Ref(forged)),
    ];
    // The honest list succeeds and egresses.
    let dp = plane(None);
    let [a, b] = [held(&dp, T, &payloads[0]), held(&dp, T, &payloads[1])];
    let replies = call(&dp, T, &tail(a, b)).unwrap();
    assert!(matches!(replies[3], Reply::Egress(_)));
    assert_eq!(dp.live_refs(T), 0);

    let outcome_counts = |dp: &DataPlane| {
        let s = dp.stats().snapshot();
        (s.events_ingested, s.bytes_ingested, s.egress_count, s.audit_records)
    };
    // Position `tail.len()` stands for the list `[Ingress, failing command]`.
    for j in 0..=tail(a, b).len() {
        for fail in failing {
            let dp = plane(None);
            // `c` is held but never named by the list.
            let held_refs: Vec<OpaqueRef> = payloads.iter().map(|p| held(&dp, T, p)).collect();
            let [a, b, c] = held_refs[..] else { unreachable!() };
            let mut cmds = tail(a, b);
            match cmds.get_mut(j) {
                Some(cmd) => *cmd = fail(forged),
                None => cmds = vec![ingress(&payloads[0]), fail(forged)],
            }
            let trail_before = dp.drain_audit_segments(T).unwrap();
            let ingest_before = dp.tenant_ingest(T).unwrap();
            let counts_before = outcome_counts(&dp);

            let failed = call(&dp, T, &cmds);
            assert!(failed.is_err(), "position {j}: {failed:?}");
            let after = dp.drain_audit_segments(T).unwrap();
            assert!(!trail_before.is_empty());
            assert!(after.is_empty(), "position {j}: the failed list reached the trail");
            assert_eq!(dp.tenant_ingest(T).unwrap(), ingest_before, "position {j}");
            assert_eq!(outcome_counts(&dp), counts_before, "position {j}: plane counters moved");

            let retired: Vec<OpaqueRef> = cmds
                .iter()
                .filter_map(|cmd| match cmd {
                    Command::Retire(Arg::Ref(r)) => Some(*r),
                    _ => None,
                })
                .collect();
            let live: Vec<OpaqueRef> =
                [a, b, c].into_iter().filter(|r| !retired.contains(r)).collect();
            assert_eq!(dp.live_refs(T), live.len(), "position {j}");
            for r in live {
                in_tee(|| dp.retire(T, r)).unwrap_or_else(|e| panic!("position {j}: {e:?}"));
            }
            assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0, "position {j}");
            assert_eq!(dp.platform().secure_mem().in_use(), 0, "position {j}");
            assert_eq!(next_egress_seq(&dp, &payloads[2]), 0, "position {j}");
        }
    }
}

/// One ingest group: a `WindowedIngress` into one-second windows for each
/// batch, the list a server lane sends as one crossing.
fn ingest_group<'a>(payloads: &[&'a [u8]]) -> Vec<Command<'a>> {
    payloads
        .iter()
        .map(|payload| windowed(payload, WindowSpec::fixed(Duration::from_secs(1))))
        .collect()
}

#[test]
fn a_group_that_trips_the_quota_at_any_batch_leaves_no_trace_of_any() {
    // Four batches of 100 events fit the quota together; one of 20 000
    // (240 KB) does not fit it alone.
    const QUOTA: u64 = 64 * 1024;
    let small: Vec<Vec<u8>> = (0..4).map(|b| wire(100, 20 + b)).collect();
    let big = wire(20_000, 30);

    // The honest group: every batch appends to the window's one array.
    let dp = plane(Some(QUOTA));
    let refs: Vec<&[u8]> = small.iter().map(Vec::as_slice).collect();
    let replies = call(&dp, T, &ingest_group(&refs)).unwrap();
    let windowed: Vec<(OpaqueRef, usize)> = replies
        .iter()
        .filter_map(|r| match r {
            Reply::WindowedIngress { windows, .. } => Some((windows[0].opaque, windows[0].len)),
            _ => None,
        })
        .collect();
    let lens: Vec<usize> = windowed.iter().map(|(_, len)| *len).collect();
    assert_eq!(lens, [100, 200, 300, 400], "each batch grows the one array");
    assert!(windowed.iter().all(|(r, _)| *r == windowed[0].0));
    assert_eq!(dp.tenant_ingest(T).unwrap().0, 400);
    assert_eq!(dp.live_refs(T), 1, "only the window array is held");
    in_tee(|| dp.retire(T, windowed[0].0)).unwrap();

    for j in 0..4 {
        let dp = plane(Some(QUOTA));
        let mut refs: Vec<&[u8]> = small.iter().map(Vec::as_slice).collect();
        refs[j] = &big;
        let failed = call(&dp, T, &ingest_group(&refs));
        assert_eq!(failed.unwrap_err(), DataPlaneError::QuotaExceeded, "batch {j}");
        // Nothing of any batch survives, those before j included.
        assert!(drained_records(&dp).is_empty(), "batch {j}: a record reached the trail");
        assert_eq!(dp.tenant_ingest(T).unwrap(), (0, 0), "batch {j}");
        assert_eq!(dp.live_refs(T), 0, "batch {j}");
        assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 0, "batch {j}");
        assert_eq!(dp.memory_report().committed_bytes, 0, "batch {j}");
        assert_eq!(dp.platform().secure_mem().in_use(), 0, "batch {j}");
    }
}

/// A lane pool that holds the seal lent to it until the test lets it go: a
/// list that egresses stays in flight for as long as the test needs.
struct Gate {
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl LanePool for Gate {
    fn workers(&self) -> usize {
        1
    }

    fn run(&self, tasks: Vec<LaneTask>) {
        let _ = self.entered.lock().unwrap().send(());
        let _ = self.release.lock().unwrap().recv();
        for task in tasks {
            task();
        }
    }
}

#[test]
fn a_list_its_tenant_departs_during_commits_nothing() {
    let dp = plane(None);
    // Two seal chunks, so the egress fans out onto the gated pool.
    let big = wire(12_000, 11);
    let small = wire(100, 12);
    let r = held(&dp, T, &big);
    let (entered, has_entered) = mpsc::channel();
    let (release, gate) = mpsc::channel();
    dp.set_lane_pool(Arc::new(Gate { entered: Mutex::new(entered), release: Mutex::new(gate) }));
    let list = {
        let dp = dp.clone();
        std::thread::spawn(move || {
            call(
                &dp,
                T,
                &[ingress(&small), Command::Egress(Arg::Ref(r)), Command::Retire(Arg::Ref(r))],
            )
        })
    };
    // The list has ingested and is sealing when the tenant departs.
    has_entered.recv().unwrap();
    let teardown = dp.deregister_tenant(T, DepartureReason::Evicted).unwrap();
    release.send(()).unwrap();
    assert_eq!(list.join().unwrap().unwrap_err(), DataPlaneError::UnknownTenant);
    // The trail ends at the departure: the batch the list ingested and the
    // result it sealed are not on it.
    let keys = MasterSecret::demo().keychain(T.0, 0);
    let records = sbt_attest::verify_tenant_trail(&teardown.segments, T, &keys).unwrap();
    assert_eq!(records.len(), 2, "{records:?}");
    assert!(matches!(records[0], AuditRecord::Ingress { data: DataRef::UArray(_), .. }));
    assert!(matches!(records[1], AuditRecord::Departure { .. }));
    assert_eq!(dp.platform().secure_mem().in_use(), 0);
}

/// A windowed ingress on `lane` into one-second windows.
fn windowed_on(payload: &[u8], lane: u32) -> Command<'_> {
    match windowed(payload, WindowSpec::fixed(Duration::from_secs(1))) {
        Command::WindowedIngress {
            payload,
            encrypted,
            is_power,
            keystream_block,
            spec,
            side,
            ..
        } => Command::WindowedIngress {
            payload,
            encrypted,
            is_power,
            keystream_block,
            spec,
            side,
            lane,
        },
        other => other,
    }
}

/// The window array a windowed ingress appended to.
fn window_array(replies: &[Reply]) -> (OpaqueRef, usize) {
    match replies.first() {
        Some(Reply::WindowedIngress { windows, .. }) => (windows[0].opaque, windows[0].len),
        other => panic!("a windowed ingress replies its array: {other:?}"),
    }
}

#[test]
fn a_window_array_a_list_appends_to_is_closed_to_every_other_list() {
    // A list appends a batch to window 0's lane-0 array, then holds at an
    // egress seal: meanwhile a second appender on that lane, a consumer and
    // a retire of the array are refused, and another lane's array is not
    // touched. Once the list commits, the array holds both batches.
    let dp = plane(None);
    let (first, second, third) = (wire(300, 1), wire(200, 2), wire(100, 3));
    let (array, _) = window_array(&call(&dp, T, &[windowed_on(&first, 0)]).unwrap());
    let sealed = held(&dp, T, &wire(12_000, 4));
    let (entered, has_entered) = mpsc::channel();
    let (release, gate) = mpsc::channel();
    dp.set_lane_pool(Arc::new(Gate { entered: Mutex::new(entered), release: Mutex::new(gate) }));
    let list = {
        let (dp, second) = (dp.clone(), second.clone());
        std::thread::spawn(move || {
            let cmds = [windowed_on(&second, 0), Command::Egress(Arg::Ref(sealed))];
            call(&dp, T, &cmds).map(|replies| window_array(&replies))
        })
    };
    has_entered.recv().unwrap();
    let held_elsewhere = |result: Result<Vec<Reply>, DataPlaneError>| {
        assert!(matches!(result, Err(DataPlaneError::BadArguments(_))), "{result:?}");
    };
    held_elsewhere(call(&dp, T, &[windowed_on(&third, 0)]));
    held_elsewhere(call(&dp, T, &[invoke(PrimitiveKind::Sort, vec![Arg::Ref(array)])]));
    held_elsewhere(call(&dp, T, &[Command::Retire(Arg::Ref(array))]));
    let (other_lane, _) = window_array(&call(&dp, T, &[windowed_on(&third, 1)]).unwrap());
    assert_ne!(other_lane, array);
    release.send(()).unwrap();
    assert_eq!(list.join().unwrap().unwrap(), (array, 500), "the list appended to the array");
    assert_eq!(window_array(&call(&dp, T, &[windowed_on(&third, 0)]).unwrap()), (array, 600));
    // The sealed array's 12 000 events, and the four windowed batches.
    assert_eq!(dp.tenant_ingest(T).unwrap().0, 12_000 + 700);
}

#[test]
fn a_list_holding_window_arrays_when_its_tenant_departs_leaves_no_page() {
    // The departure sweeps the ledger, the array's grown pages with it,
    // while the list still holds the array: the list commits nothing, and
    // between the sweep and the unwind every page comes back exactly once.
    let dp = plane(None);
    let (first, second) = (wire(300, 1), wire(700, 2));
    call(&dp, T, &[windowed_on(&first, 0)]).unwrap();
    let sealed = held(&dp, T, &wire(12_000, 4));
    let (entered, has_entered) = mpsc::channel();
    let (release, gate) = mpsc::channel();
    dp.set_lane_pool(Arc::new(Gate { entered: Mutex::new(entered), release: Mutex::new(gate) }));
    let list = {
        let (dp, second) = (dp.clone(), second.clone());
        std::thread::spawn(move || {
            call(&dp, T, &[windowed_on(&second, 0), Command::Egress(Arg::Ref(sealed))]).map(drop)
        })
    };
    has_entered.recv().unwrap();
    dp.deregister_tenant(T, DepartureReason::Evicted).unwrap();
    release.send(()).unwrap();
    assert_eq!(list.join().unwrap().unwrap_err(), DataPlaneError::UnknownTenant);
    assert_eq!(dp.platform().secure_mem().in_use(), 0);
    assert_eq!(dp.memory_report().committed_bytes, 0);
}

/// The events a result egressed, opened under the tenant's keys.
fn opened(dp: &DataPlane, reply: &Reply) -> Vec<Event> {
    let Reply::Egress(message) = reply else { panic!("an egress replies its message: {reply:?}") };
    let keys = dp.verifier_keys(T).unwrap();
    Event::slice_from_bytes(&message.open_with(keys.latest()).expect("the result opens"))
}

#[test]
fn a_list_that_reads_a_sorts_input_again_sorts_a_fresh_copy() {
    // The list egresses the input after sorting it, so the sort does not
    // consume it: its output is a fresh array, and the input is egressed
    // as it was ingested.
    let dp = plane(None);
    let payload = wire(2_000, 5);
    let input = held(&dp, T, &payload);
    let carve_out = dp.platform().secure_mem();
    let before = carve_out.in_use();
    carve_out.reset_high_water();
    let cmds = [
        invoke(PrimitiveKind::Sort, vec![Arg::Ref(input)]),
        Command::Egress(Arg::out(0)),
        Command::Egress(Arg::Ref(input)),
        Command::Retire(Arg::Ref(input)),
    ];
    let replies = call(&dp, T, &cmds).unwrap();
    assert_eq!(carve_out.high_water(), 2 * before, "the sort wrote a copy beside its input");
    let events = Event::slice_from_bytes(&payload);
    let mut sorted = events.clone();
    sorted.sort_by_key(|e| e.key);
    assert_eq!(opened(&dp, &replies[1]), sorted);
    assert_eq!(opened(&dp, &replies[2]), events, "the input is untouched");
    in_tee(|| dp.retire(T, replies[0].outputs()[0].opaque)).unwrap();
    assert_eq!(carve_out.in_use(), 0);
}

#[test]
fn a_one_command_sort_commits_its_output_in_fresh_pages() {
    // No list retires the input, so the sort writes a copy: the output
    // commits its own page-rounded size, and the input stays usable.
    let dp = plane(None);
    let input = held(&dp, T, &wire(3_000, 6));
    let carve_out = dp.platform().secure_mem();
    let before = carve_out.in_use();
    assert_eq!(before, 9 * 4096, "3 000 events fill 9 pages");
    let out = in_tee(|| {
        dp.invoke(T, PrimitiveKind::Sort, &[input], PrimitiveParams::None, &HintSet::none())
    })
    .unwrap();
    assert_eq!(carve_out.in_use(), 2 * before);
    assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, 2 * before);
    assert!(in_tee(|| dp.egress(T, input)).is_ok(), "the input is still held");
    for r in [input, out[0].opaque] {
        in_tee(|| dp.retire(T, r)).unwrap();
    }
    assert_eq!(carve_out.in_use(), 0);
}

#[test]
fn of_two_lists_consuming_one_array_one_succeeds_and_the_other_leaves_no_page() {
    // List A sorts an array in its own pages, then holds at an egress seal
    // of another array before it retires its input. Meanwhile list B,
    // which consumes the same array, finds it closed: B fails, and its
    // unwinding retire of the array is refused too, so A's output keeps
    // its pages. Once A commits, nothing is left but A's output and the
    // array A egressed. For a window array and for an array in the store.
    for window in [true, false] {
        let dp = plane(None);
        let payload = wire(1_000, 7);
        let array = if window {
            window_array(&call(&dp, T, &[windowed_on(&payload, 0)]).unwrap()).0
        } else {
            held(&dp, T, &payload)
        };
        let sealed = held(&dp, T, &wire(12_000, 8));
        let carve_out = dp.platform().secure_mem();
        let before = carve_out.in_use();
        carve_out.reset_high_water();
        let (entered, has_entered) = mpsc::channel();
        let (release, gate) = mpsc::channel();
        let pool = Gate { entered: Mutex::new(entered), release: Mutex::new(gate) };
        dp.set_lane_pool(Arc::new(pool));
        let consume =
            [invoke(PrimitiveKind::Sort, vec![Arg::Ref(array)]), Command::Retire(Arg::Ref(array))];
        let a = {
            let (dp, consume) = (dp.clone(), consume.clone());
            std::thread::spawn(move || {
                let cmds =
                    [consume[0].clone(), Command::Egress(Arg::Ref(sealed)), consume[1].clone()];
                call(&dp, T, &cmds).map(|replies| replies[0].outputs()[0].opaque)
            })
        };
        has_entered.recv().unwrap();
        let refused = call(&dp, T, &consume);
        assert!(matches!(refused, Err(DataPlaneError::BadArguments(_))), "{refused:?}");
        assert_eq!(carve_out.in_use(), before, "B committed nothing and released nothing");
        release.send(()).unwrap();
        let sorted = a.join().unwrap().expect("A commits");
        assert_eq!(carve_out.high_water(), before, "A's sort took over its input's pages");
        assert_eq!(dp.tenant_memory(T).unwrap().used_bytes, before);
        assert_eq!(dp.memory_report().committed_bytes, before);
        let replies = call(&dp, T, &[Command::Egress(Arg::Ref(sorted))]).unwrap();
        let mut expected = Event::slice_from_bytes(&payload);
        expected.sort_by_key(|e| e.key);
        assert_eq!(opened(&dp, &replies[0]), expected, "window array: {window}");
        for r in [sorted, sealed] {
            in_tee(|| dp.retire(T, r)).unwrap();
        }
        assert_eq!(carve_out.in_use(), 0);
        assert_eq!(dp.live_refs(T), 0);
    }
}
