//! The registry's counter names, pinned.
//!
//! Harnesses read counters by name (`TelemetrySnapshot::counter_u64`), and
//! a name that is missing reads as 0. A renamed or dropped counter would
//! therefore fail nothing but the figures built on it. This manifest is the
//! list every counter set must still export.

use streambox_tz::prelude::*;

fn names(snapshot: &TelemetrySnapshot, prefix: &str) -> Vec<String> {
    snapshot.counters.iter().map(|c| c.name.clone()).filter(|n| n.starts_with(prefix)).collect()
}

#[test]
fn a_single_engine_exports_exactly_the_pinned_counter_names() {
    let engine = Engine::new(
        EngineConfig::for_variant(EngineVariant::Sbt, 2),
        Pipeline::winsum_benchmark().batch_events(1_000),
    );
    let chunks = synthetic_stream(1, 2_000, 16, 7);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: 1_000 }, Channel::encrypted_demo(), chunks);
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(delivery) => {
                engine.ingest_group(&[delivery], StreamSide::Left).unwrap();
            }
            Offer::Watermark(wm) => engine.advance_watermark_on(wm, StreamSide::Left).unwrap(),
        }
    }
    let expected = [
        "executor.executed",
        "executor.panics",
        "executor.parks",
        "executor.steals",
        "executor.workers",
        "gateway.t0.copied_bytes",
        "gateway.t0.invocations",
        "gateway.t0.switches",
        "plane.audit_records",
        "plane.bytes_ingested",
        "plane.compute_nanos",
        "plane.decrypt_nanos",
        "plane.egress_count",
        "plane.events_ingested",
        "plane.invocations",
        "plane.memory_nanos",
        "tz.boundary_copy_bytes",
        "tz.boundary_copy_nanos",
        "tz.smc_invocations",
        "tz.switch_nanos",
        "tz.tee_pages_committed",
        "tz.tee_paging_nanos",
        "tz.trusted_io_bytes",
        "tz.via_os_bytes",
        "tz.world_switches",
    ];
    assert_eq!(names(&engine.telemetry().snapshot(), ""), expected);
}

#[test]
fn a_two_lane_serve_adds_the_drr_counter_names() {
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    let pipeline = |name: &str| {
        Pipeline::new(name).then(Operator::WindowSum).target_delay_ms(60_000).batch_events(500)
    };
    let ids: Vec<TenantId> = ["a", "b"]
        .iter()
        .map(|name| server.admit(TenantConfig::new(name, 32 << 20), pipeline(name)).unwrap())
        .collect();
    let master = MasterSecret::demo();
    let streams = ids
        .iter()
        .zip(multi_tenant_streams(2, 1, 1_000, 8, 3))
        .map(|(id, chunks)| TenantStream {
            tenant: *id,
            generator: Generator::new(
                GeneratorConfig { batch_events: 500 },
                Channel::for_tenant(&master, *id, 0),
                chunks,
            ),
        })
        .collect();
    server.serve_with(streams, Scheduler::DeficitRoundRobin).unwrap();
    assert_eq!(
        names(&server.telemetry().snapshot(), "drr."),
        ["drr.charged", "drr.lane0_deficit", "drr.lane1_deficit", "drr.penalties"]
    );
}
