//! One closed-but-unemitted window per lane.
//!
//! `StreamServer::serve` launches a lane's pending watermark only once the lane's
//! previous window ticket has resolved, and intake stops at a pending
//! watermark. A tenant whose fire is slower than its ingest therefore holds
//! at most the window being fired plus the one ingested behind it — however
//! fast ingest is. Without the rule its ingest runs as many windows ahead
//! as the fire is slow, every one of them resident, until a batch trips the
//! quota (the regime hardware-speed decryption put `tenants4_small_batch`
//! in: ingest outruns the TopK tenant's sort-and-reduce fire severalfold).
//!
//! The bound is structural, so the assertion needs no timing: the slow
//! tenant's quota holds two of its windows (one firing — its array, sorted
//! in its own pages, and the reduce's output — and one waiting), not the
//! five or more that unbounded run-ahead piles up over this stream.

use sbt_attest::verify_tenant_trail;
use sbt_crypto::MasterSecret;
use sbt_engine::{Operator, Pipeline};
use sbt_server::{ServerConfig, StreamServer, TenantConfig, TenantStream};
use sbt_workloads::datasets::{multi_tenant_streams, StreamChunk};
use sbt_workloads::generator::{Generator, GeneratorConfig};
use sbt_workloads::transport::Channel;

const WINDOWS: u32 = 14;
const BATCH: usize = 1_000;
/// The slow tenant's window: 40 000 events, 480 KB resident, one array (a
/// server lane sends a window's batches as one group). Its fire sorts the
/// array in its own pages and reduces it where it lies.
const SLOW_WINDOW: usize = 40_000;
/// The other three tenants' window.
const FAST_WINDOW: usize = 5_000;
const QUOTA: u64 = 2 * 1024 * 1024;

fn stream(tenant: sbt_types::TenantId, chunks: Vec<StreamChunk>) -> TenantStream {
    TenantStream {
        tenant,
        generator: Generator::new(
            GeneratorConfig { batch_events: BATCH },
            Channel::for_tenant(&MasterSecret::demo(), tenant, 0),
            chunks,
        ),
    }
}

#[test]
fn a_tenant_that_fires_slower_than_it_ingests_is_never_rejected() {
    let server = StreamServer::new(ServerConfig::default().with_cores(1));
    let pipeline = |name: &str, op: Operator| {
        Pipeline::new(name).then(op).target_delay_ms(60_000).batch_events(BATCH)
    };
    let tenants = [
        server.admit(TenantConfig::new("sum-a", QUOTA), pipeline("sum-a", Operator::WindowSum)),
        server.admit(TenantConfig::new("sum-b", QUOTA), pipeline("sum-b", Operator::WindowSum)),
        server.admit(
            TenantConfig::new("topk", QUOTA),
            pipeline("topk", Operator::TopKPerKey { k: 10 }),
        ),
        server.admit(TenantConfig::new("sum-c", QUOTA), pipeline("sum-c", Operator::WindowSum)),
    ]
    .map(|admitted| admitted.expect("four 2 MiB tenants fit one worker"));

    let fast = multi_tenant_streams(4, WINDOWS, FAST_WINDOW, 64, 11);
    let slow = multi_tenant_streams(1, WINDOWS, SLOW_WINDOW, 1_000, 12).remove(0);
    let streams: Vec<TenantStream> = tenants
        .iter()
        .enumerate()
        .map(|(t, id)| stream(*id, if t == 2 { slow.clone() } else { fast[t].clone() }))
        .collect();

    let report = server.serve(streams).expect("the run completes");
    for (t, id) in tenants.iter().enumerate() {
        let progress = &report.per_tenant[t];
        let window = if t == 2 { SLOW_WINDOW } else { FAST_WINDOW };
        assert_eq!(progress.rejected_batches, 0, "tenant {t} had a batch or a fire rejected");
        assert_eq!(progress.accepted_batches, (WINDOWS as usize * window / BATCH) as u64);
        assert_eq!(progress.results, WINDOWS as usize, "tenant {t} egressed every window");
        let memory = server.data_plane().tenant_memory(*id).expect("still admitted");
        assert_eq!(memory.used_bytes, 0, "tenant {t} finished holding quota");
        let engine = server.engine(*id).expect("still admitted");
        let chain = server.verifier_keys(*id).expect("has keys");
        verify_tenant_trail(&engine.drain_audit_segments(), *id, &chain)
            .expect("the tenant's trail verifies");
    }
    // The fast tenants' answers, against the plain definition.
    for t in [0usize, 1, 3] {
        let engine = server.engine(tenants[t]).unwrap();
        let chain = server.verifier_keys(tenants[t]).unwrap();
        for (w, message) in engine.results().iter().enumerate() {
            let plain = message.open_with(chain.latest()).expect("opens under its own keys");
            let sum = u64::from_le_bytes(plain[..8].try_into().unwrap());
            let expected: u64 = fast[t][w].events.iter().map(|e| e.value as u64).sum();
            assert_eq!(sum, expected, "tenant {t} window {w}");
        }
    }
}
