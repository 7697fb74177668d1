//! Kill-and-restart differential suite.
//!
//! Each scenario runs the same stream twice: once uninterrupted (the
//! oracle), and once through a crash — the first server is abandoned at a
//! chosen crash point with only its untrusted [`CheckpointVault`] surviving,
//! a replacement server restores the tenant from the vault and replays the
//! stream suffix from the checkpoint cut. The suite then requires:
//!
//! * the recovered run's output equals the uninterrupted run's output from
//!   the last durable checkpoint onward, window for window;
//! * the stitched audit trail — the prefix the cloud fetched at checkpoint
//!   time plus the recovered server's suffix — verifies under the tenant's
//!   keychain, by the serial and the pool-parallel verifier alike;
//! * torn and corrupted snapshots fail closed inside the TEE, and recovery
//!   falls back to the vault's previous intact slot;
//! * restoring from a *stale* checkpoint (older than trail the cloud
//!   holds) is detected by both verifiers.
//!
//! Crash points cover the checkpoint lifecycle: mid-ingest and
//! mid-window-fire (doomed work after a durable checkpoint), mid-seal (the
//! crash lands before the snapshot bytes ever reach the vault) and
//! mid-checkpoint-write (the bytes land torn).
//!
//! The trailing property test interleaves checkpoint / rekey / crash+restore
//! / evict arbitrarily and requires the cloud-held trail to stay verifiable
//! after every schedule.
//!
//! [`CheckpointVault`]: sbt_server::CheckpointVault

use proptest::prelude::*;
use sbt_attest::{verify_tenant_trail, verify_tenant_trail_parallel, LogSegment};
use sbt_crypto::MasterSecret;
use sbt_engine::{Operator, Pipeline, StreamSide};
use sbt_server::{ServerConfig, StreamServer, TenantConfig, TenantStream, VaultFault};
use sbt_types::TenantId;
use sbt_workloads::datasets::{multi_tenant_streams, StreamChunk};
use sbt_workloads::generator::{Generator, GeneratorConfig};
use sbt_workloads::transport::Channel;
use std::sync::Arc;

const WINDOWS: u32 = 4;
const EVENTS_PER_WINDOW: usize = 1_200;
const BATCH: usize = 400;
const QUOTA: u64 = 8 * 1024 * 1024;

fn pipeline(name: &str) -> Pipeline {
    Pipeline::new(name).then(Operator::WindowSum).target_delay_ms(60_000).batch_events(BATCH)
}

fn chunks() -> Vec<StreamChunk> {
    multi_tenant_streams(1, WINDOWS, EVENTS_PER_WINDOW, 16, 42).remove(0)
}

/// A stream of the given chunks for one tenant, encrypted under the
/// tenant's key material at `epoch`.
fn stream(tenant: TenantId, epoch: u32, chunks: &[StreamChunk]) -> TenantStream {
    TenantStream {
        tenant,
        generator: Generator::new(
            GeneratorConfig { batch_events: BATCH },
            Channel::for_tenant(&MasterSecret::demo(), tenant, epoch),
            chunks.to_vec(),
        ),
    }
}

/// Per-window oracle sums.
fn window_sums(chunks: &[StreamChunk]) -> Vec<u64> {
    chunks.iter().map(|c| c.events.iter().map(|e| e.value as u64).sum()).collect()
}

/// Decrypt a server's externalized window results for one tenant.
fn opened_results(server: &StreamServer, tenant: TenantId) -> Vec<u64> {
    let chain = server.verifier_keys(tenant).unwrap();
    server
        .engine(tenant)
        .unwrap()
        .results()
        .iter()
        .map(|msg| {
            let plain = msg.open_with(chain.latest()).unwrap();
            u64::from_le_bytes(plain[..8].try_into().unwrap())
        })
        .collect()
}

/// Verify a stitched trail with both verifiers and require them to agree.
fn verify_both(server: &StreamServer, tenant: TenantId, cloud: Vec<LogSegment>) {
    let chain = server.verifier_keys(tenant).unwrap();
    let serial = verify_tenant_trail(&cloud, tenant, &chain)
        .expect("stitched prefix + recovered suffix must verify");
    let arc = Arc::new(cloud);
    let parallel =
        verify_tenant_trail_parallel(&arc, tenant, &chain, server.worker_pool().as_ref())
            .expect("parallel verifier must accept what the serial one accepts");
    assert_eq!(serial.len(), parallel.len(), "both verifiers see the same record stream");
}

#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)] // the crash points are all genuinely mid-something
enum CrashPoint {
    /// Crash with a partial batch of the next window ingested.
    MidIngest,
    /// Crash after the next window fired but before its result or audit
    /// segments were fetched.
    MidWindowFire,
    /// Crash during the next checkpoint, before its bytes reach the vault.
    MidSeal,
    /// Crash during the next checkpoint's vault write: the bytes land torn.
    MidCheckpointWrite,
}

fn run_crash_scenario(point: CrashPoint) {
    let all = chunks();
    let oracle = window_sums(&all);

    // Uninterrupted oracle run.
    let uninterrupted = StreamServer::new(ServerConfig::default().with_cores(2));
    let t = uninterrupted.admit(TenantConfig::new("t", QUOTA), pipeline("t")).unwrap();
    uninterrupted.serve(vec![stream(t, 0, &all)]).unwrap();
    let u_results = opened_results(&uninterrupted, t);
    assert_eq!(u_results, oracle, "oracle run must be correct before it can anchor the diff");

    // Doomed run: serve two windows, take a durable checkpoint, let the
    // cloud fetch the trail prefix up to it.
    let doomed = StreamServer::new(ServerConfig::default().with_cores(2));
    let t2 = doomed.admit(TenantConfig::new("t", QUOTA), pipeline("t")).unwrap();
    assert_eq!(t2, t, "a fresh server mints the same first tenant id");
    doomed.serve(vec![stream(t, 0, &all[..2])]).unwrap();
    let receipt = doomed.checkpoint(t).unwrap();
    assert_eq!(receipt.ckpt_seq, 0);
    let mut cloud: Vec<LogSegment> = doomed.engine(t).unwrap().drain_audit_segments();
    assert!(!cloud.is_empty(), "the checkpoint record flushes a segment");

    // Post-checkpoint work that the crash will destroy.
    match point {
        CrashPoint::MidIngest => {
            // A partial batch of window 2 enters the TEE; its audit records
            // and memory die with the enclave.
            let engine = doomed.engine(t).unwrap();
            let mut ch = Channel::for_tenant(&MasterSecret::demo(), t, 0);
            let sub = StreamChunk {
                events: all[2].events[..BATCH].to_vec(),
                power_events: Vec::new(),
                watermark: all[2].watermark,
            };
            engine.ingest_group(&[ch.send(&sub)], StreamSide::Left).unwrap();
        }
        CrashPoint::MidWindowFire => {
            // Window 2 fully fires, but neither its result nor its audit
            // segments are ever fetched.
            doomed.serve(vec![stream(t, 0, &all[2..3])]).unwrap();
        }
        CrashPoint::MidSeal => {
            // The next checkpoint crashes before its bytes reach the vault:
            // the store is refused, the durable state stays checkpoint 0.
            doomed
                .vault()
                .inject(VaultFault::FailStore { nth: doomed.vault().stores_attempted() + 1 });
            assert!(doomed.checkpoint(t).is_err(), "mid-seal crash surfaces as a failed store");
        }
        CrashPoint::MidCheckpointWrite => {
            // More progress, then a checkpoint whose vault write tears: the
            // newest snapshot is truncated on the medium, the previous one
            // survives in the fallback slot.
            doomed.serve(vec![stream(t, 0, &all[2..3])]).unwrap();
            doomed.vault().inject(VaultFault::TearStore {
                nth: doomed.vault().stores_attempted() + 1,
                keep: 40,
            });
            doomed.checkpoint(t).unwrap();
        }
    }

    // Crash: only the untrusted vault survives.
    let vault = doomed.vault().clone();
    drop(doomed);

    // Recovery on a replacement server.
    let recovered =
        StreamServer::new(ServerConfig::default().with_cores(2).with_vault(vault.clone()));
    let restored = match point {
        CrashPoint::MidCheckpointWrite => {
            // The torn current snapshot must fail closed inside the TEE...
            let err = recovered
                .restore_tenant(t, TenantConfig::new("t", QUOTA), pipeline("t"), 0)
                .unwrap_err();
            assert!(
                matches!(err, sbt_server::AdmissionError::Rejected(_)),
                "torn snapshot must be rejected, got {err:?}"
            );
            assert!(recovered.tenants().is_empty(), "a failed restore admits nothing");
            // ...and recovery falls back to the previous intact slot.
            let previous = vault.fetch_previous(t).unwrap();
            recovered
                .restore_tenant_from_bytes(
                    &previous,
                    TenantConfig::new("t", QUOTA),
                    pipeline("t"),
                    0,
                )
                .unwrap()
        }
        _ => recovered.restore_tenant(t, TenantConfig::new("t", QUOTA), pipeline("t"), 0).unwrap(),
    };
    assert_eq!(restored.tenant, t);
    assert_eq!(restored.ckpt_seq, 0, "every scenario recovers from the durable checkpoint");
    assert_eq!(restored.next_unexecuted, 2, "windows 0 and 1 were checkpointed as fired");

    // Replay the suffix from the checkpoint cut and compare against the
    // uninterrupted run, window for window.
    recovered.serve(vec![stream(t, 0, &all[2..])]).unwrap();
    let r_results = opened_results(&recovered, t);
    assert_eq!(
        r_results,
        u_results[2..],
        "recovered output must equal the uninterrupted run from the checkpoint onward"
    );

    // The stitched trail — cloud prefix + recovered suffix — verifies
    // under both verifiers.
    cloud.extend(recovered.engine(t).unwrap().drain_audit_segments());
    verify_both(&recovered, t, cloud);
}

#[test]
fn crash_mid_ingest_recovers_to_uninterrupted_output() {
    run_crash_scenario(CrashPoint::MidIngest);
}

#[test]
fn crash_mid_window_fire_recovers_to_uninterrupted_output() {
    run_crash_scenario(CrashPoint::MidWindowFire);
}

#[test]
fn crash_mid_seal_recovers_from_the_prior_checkpoint() {
    run_crash_scenario(CrashPoint::MidSeal);
}

#[test]
fn crash_mid_checkpoint_write_fails_closed_then_recovers_from_fallback() {
    run_crash_scenario(CrashPoint::MidCheckpointWrite);
}

#[test]
fn bit_flipped_snapshot_fails_closed() {
    let all = chunks();
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    let t = server.admit(TenantConfig::new("t", QUOTA), pipeline("t")).unwrap();
    server.serve(vec![stream(t, 0, &all[..1])]).unwrap();
    // Flip one ciphertext bit on the medium (past the 30-byte header).
    server.vault().inject(VaultFault::FlipBit { nth: 1, byte: 64 });
    server.checkpoint(t).unwrap();
    let vault = server.vault().clone();
    drop(server);
    let recovered = StreamServer::new(ServerConfig::default().with_cores(2).with_vault(vault));
    let err =
        recovered.restore_tenant(t, TenantConfig::new("t", QUOTA), pipeline("t"), 0).unwrap_err();
    assert!(
        matches!(err, sbt_server::AdmissionError::Rejected(_)),
        "corrupted snapshot must fail the MAC, got {err:?}"
    );
    assert!(recovered.tenants().is_empty());
}

#[test]
fn stale_checkpoint_restore_is_detected_by_both_verifiers() {
    let all = chunks();
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    let t = server.admit(TenantConfig::new("t", QUOTA), pipeline("t")).unwrap();

    // Checkpoint 0, whose bytes an attacker squirrels away.
    server.serve(vec![stream(t, 0, &all[..1])]).unwrap();
    server.checkpoint(t).unwrap();
    let stale = server.vault().fetch(t).unwrap();

    // More progress and a newer checkpoint; the cloud fetches the trail
    // through it.
    server.serve(vec![stream(t, 0, &all[1..2])]).unwrap();
    server.checkpoint(t).unwrap();
    let mut cloud: Vec<LogSegment> = server.engine(t).unwrap().drain_audit_segments();
    drop(server);

    // Rollback: a replacement server is fed the stale snapshot.
    let rolled = StreamServer::new(ServerConfig::default().with_cores(2));
    let restored = rolled
        .restore_tenant_from_bytes(&stale, TenantConfig::new("t", QUOTA), pipeline("t"), 0)
        .unwrap();
    assert_eq!(restored.ckpt_seq, 0, "the rollback resumes from the older checkpoint");
    rolled.serve(vec![stream(t, 0, &all[1..])]).unwrap();
    cloud.extend(rolled.engine(t).unwrap().drain_audit_segments());

    // The stitched trail forks against what the cloud already holds: both
    // verifiers must refuse it, identically.
    let chain = rolled.verifier_keys(t).unwrap();
    let serial = verify_tenant_trail(&cloud, t, &chain)
        .expect_err("rollback to a stale checkpoint must not verify");
    let arc = Arc::new(cloud);
    let parallel = verify_tenant_trail_parallel(&arc, t, &chain, rolled.worker_pool().as_ref())
        .expect_err("the parallel verifier must refuse the rollback too");
    assert_eq!(serial, parallel, "serial and parallel verifiers report the same violation");
}

#[test]
fn policy_driven_checkpoints_fire_during_serve_and_restore_mid_window() {
    let all = chunks();
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    // A record-driven policy that cuts mid-window: every 1 000 events with
    // 1 200-event windows.
    let t = server
        .admit(TenantConfig::new("t", QUOTA).with_checkpoint_every_records(1_000), pipeline("t"))
        .unwrap();
    let report = server.serve(vec![stream(t, 0, &all)]).unwrap();
    assert!(
        report.per_tenant[0].checkpoints_taken >= 1,
        "the serve loop must take amortized checkpoints, got {:?}",
        report.per_tenant[0]
    );
    assert_eq!(opened_results(&server, t), window_sums(&all), "checkpointing must not skew output");
    // The live trail — checkpoints chained in — verifies end to end.
    let cloud = server.engine(t).unwrap().drain_audit_segments();
    verify_both(&server, t, cloud);

    // Crash after the run; restore from the last amortized checkpoint and
    // replay the stream from the snapshot's source cursor (a mid-window
    // cut: the restored window state plus the replayed remainder must
    // reassemble the exact windows).
    let vault = server.vault().clone();
    let u_results = opened_results(&server, t);
    drop(server);
    let recovered = StreamServer::new(ServerConfig::default().with_cores(2).with_vault(vault));
    let restored =
        recovered.restore_tenant(t, TenantConfig::new("t", QUOTA), pipeline("t"), 0).unwrap();
    let fired = restored.next_unexecuted as usize;
    // Source cursor: events the snapshot already holds, beyond the fully
    // fired windows.
    let events_at_ckpt = recovered.engine(t).unwrap().metrics().events_ingested as usize;
    let mut into_unfired = events_at_ckpt - all[..fired].iter().map(|c| c.len()).sum::<usize>();
    // Replay: skip fired windows entirely; slice the partially-checkpointed
    // ones from the cursor (a fully-checkpointed unfired window replays as
    // just its watermark).
    let mut replay: Vec<StreamChunk> = Vec::new();
    for chunk in &all[fired..] {
        let skip = into_unfired.min(chunk.len());
        into_unfired -= skip;
        replay.push(StreamChunk {
            events: chunk.events[skip..].to_vec(),
            power_events: Vec::new(),
            watermark: chunk.watermark,
        });
    }
    recovered.serve(vec![stream(t, 0, &replay)]).unwrap();
    assert_eq!(
        opened_results(&recovered, t),
        u_results[fired..],
        "mid-window restore must reassemble the exact remaining windows"
    );
}

#[test]
fn every_due_checkpoint_is_taken_and_recovery_restores_from_the_last() {
    // Two tenants of 16 windows each, a checkpoint due every 4 windows'
    // events: a lane holds its next group while the due window's fire is
    // out, so it seals at the quiescent point right after that fire, 4
    // times, the last after window 15.
    const WINDOWS: u32 = 16;
    let server = StreamServer::new(ServerConfig::default().with_cores(2));
    let every = 4 * EVENTS_PER_WINDOW as u64;
    let config = |name| TenantConfig::new(name, QUOTA).with_checkpoint_every_records(every);
    let names = ["a", "b"];
    let tenants = names.map(|name| server.admit(config(name), pipeline(name)).unwrap());
    let loads = multi_tenant_streams(2, WINDOWS, EVENTS_PER_WINDOW, 16, 42);
    let streams = tenants.iter().zip(&loads).map(|(t, chunks)| stream(*t, 0, chunks)).collect();
    let report = server.serve(streams).unwrap();
    for (i, progress) in report.per_tenant.iter().enumerate() {
        assert_eq!(progress.checkpoints_taken, 4, "tenant {i}: {progress:?}");
        assert_eq!(opened_results(&server, tenants[i]), window_sums(&loads[i]), "tenant {i}");
    }

    // Crash after the run: each tenant restores from its fourth and last
    // checkpoint, taken once all 16 windows had fired.
    let vault = server.vault().clone();
    drop(server);
    let recovered = StreamServer::new(ServerConfig::default().with_cores(2).with_vault(vault));
    for (i, tenant) in tenants.into_iter().enumerate() {
        let restored =
            recovered.restore_tenant(tenant, config(names[i]), pipeline(names[i]), 0).unwrap();
        assert_eq!(restored.ckpt_seq, 3, "tenant {i}");
        assert_eq!(restored.next_unexecuted, WINDOWS, "tenant {i}");
        assert!(restored.windows.is_empty(), "tenant {i}: no window was left in progress");
        let events = recovered.engine(tenant).unwrap().metrics().events_ingested;
        assert_eq!(events, u64::from(WINDOWS) * EVENTS_PER_WINDOW as u64, "tenant {i}");
    }
}

/// Window 0 of `chunks`, sent as groups of `batches[i]` batches of `batch`
/// events each, encrypted for `tenant`; and its watermark.
fn window_groups(
    tenant: TenantId,
    chunks: &[StreamChunk],
    batch: usize,
    batches: &[usize],
) -> (Vec<Vec<sbt_workloads::transport::Delivery>>, sbt_types::Watermark) {
    let mut channel = Channel::for_tenant(&MasterSecret::demo(), tenant, 0);
    let mut events = chunks[0].events.chunks(batch);
    let groups = batches
        .iter()
        .map(|&n| {
            (0..n)
                .map(|_| {
                    let events = events.next().expect("the window has the batches").to_vec();
                    channel.send(&StreamChunk { events, ..chunks[0].clone() })
                })
                .collect()
        })
        .collect();
    (groups, chunks[0].watermark)
}

/// The executions of `op` on a tenant's trail since the last drain.
fn executions(server: &StreamServer, tenant: TenantId, op: sbt_types::PrimitiveKind) -> usize {
    let segments = server.engine(tenant).unwrap().drain_audit_segments();
    let records = segments.iter().flat_map(|s| sbt_attest::decompress_records(&s.compressed));
    let ran = records
        .flatten()
        .filter(|r| matches!(r, sbt_attest::AuditRecord::Execution { op: ran, .. } if *ran == op));
    ran.count()
}

#[test]
fn a_checkpoint_holds_every_live_window_array() {
    // Three groups of window 0 append to its one lane-0 array; the
    // checkpoint snapshots the data plane's window arrays, so the restore
    // brings back every event of all three, whatever the control plane
    // holds: it names no array at all.
    let all = chunks();
    let server = StreamServer::new(ServerConfig::default().with_cores(1));
    let t = server.admit(TenantConfig::new("t", QUOTA), pipeline("t")).unwrap();
    let (groups, watermark) = window_groups(t, &all, BATCH, &[1, 1, 1]);
    let engine = server.engine(t).unwrap();
    for group in &groups {
        engine.ingest_group(group, StreamSide::Left).unwrap();
    }
    server.checkpoint(t).unwrap();
    let vault = server.vault().clone();
    drop((engine, server));

    let recovered = StreamServer::new(ServerConfig::default().with_cores(1).with_vault(vault));
    let restored = recovered.restore_tenant(t, TenantConfig::new("t", QUOTA), pipeline("t"), 0);
    let restored = restored.unwrap();
    assert_eq!(restored.events_restored, EVENTS_PER_WINDOW as u64);
    assert_eq!(restored.windows.len(), 1, "one array for the window's three groups");
    recovered.engine(t).unwrap().advance_watermark_on(watermark, StreamSide::Left).unwrap();
    assert_eq!(opened_results(&recovered, t), window_sums(&all[..1]));
}

#[test]
fn a_window_split_by_a_checkpoint_fires_from_one_array_per_lane_as_if_uninterrupted() {
    // On one worker (W = 2) a window's first `ingest_many` call sends b0 on
    // lane 0 and b1 on lane 1; the second, counting on from there, sends b2
    // and b3 on lane 1: the window is two arrays, [b0] and [b1, b2, b3].
    // Split by a checkpoint between the calls, the restore puts each array
    // back on its lane and the lanes' count where it stood, the second call
    // appends to the same array, and the fire — two filters, one
    // concatenation of their outputs in lane order — egresses what the
    // uninterrupted run does, byte for byte.
    let all = chunks();
    let filter = || {
        Pipeline::new("f")
            .then(Operator::Filter { lo: 0, hi: u32::MAX / 2 })
            .target_delay_ms(60_000)
            .batch_events(BATCH)
    };
    let config = || TenantConfig::new("f", QUOTA);
    let run = |split: bool| {
        let server = StreamServer::new(ServerConfig::default().with_cores(1));
        let t = server.admit(config(), filter()).unwrap();
        let (groups, watermark) = window_groups(t, &all, EVENTS_PER_WINDOW / 4, &[2, 2]);
        server.engine(t).unwrap().ingest_many(groups[0].clone(), StreamSide::Left).unwrap();
        let server = if split {
            server.checkpoint(t).unwrap();
            let vault = server.vault().clone();
            drop(server);
            let recovered =
                StreamServer::new(ServerConfig::default().with_cores(1).with_vault(vault));
            let restored = recovered.restore_tenant(t, config(), filter(), 0).unwrap();
            let lanes: Vec<u32> = restored.windows.iter().map(|a| a.lane).collect();
            assert_eq!(lanes, [0, 1], "the window's arrays come back on their lanes");
            recovered
        } else {
            server
        };
        let engine = server.engine(t).unwrap();
        let _ = engine.drain_audit_segments();
        engine.ingest_many(groups[1].clone(), StreamSide::Left).unwrap();
        engine.advance_watermark_on(watermark, StreamSide::Left).unwrap();
        let ciphertexts: Vec<Vec<u8>> =
            engine.results().into_iter().map(|m| m.ciphertext).collect();
        // The fire filtered one array per lane.
        assert_eq!(executions(&server, t, sbt_types::PrimitiveKind::FilterBand), 2);
        ciphertexts
    };
    let uninterrupted = run(false);
    assert_eq!(uninterrupted.len(), 1);
    assert_eq!(run(true), uninterrupted, "the split window egresses the same bytes");
}

// ---------------------------------------------------------------------------
// Property: arbitrary interleavings of serve / checkpoint / rekey /
// crash+restore / evict keep the cloud-held trail verifiable.
// ---------------------------------------------------------------------------

const PROP_WINDOWS: u32 = 4;
const PROP_EVENTS: usize = 400;
const PROP_BATCH: usize = 200;

fn prop_stream(tenant: TenantId, epoch: u32, chunks: &[StreamChunk]) -> TenantStream {
    TenantStream {
        tenant,
        generator: Generator::new(
            GeneratorConfig { batch_events: PROP_BATCH },
            Channel::for_tenant(&MasterSecret::demo(), tenant, epoch),
            chunks.to_vec(),
        ),
    }
}

fn prop_pipeline() -> Pipeline {
    Pipeline::new("p").then(Operator::WindowSum).target_delay_ms(60_000).batch_events(PROP_BATCH)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ops: 0 = serve next window, 1 = checkpoint (cloud fetches the trail),
    /// 2 = rekey, 3 = crash + restore from the vault, 4 = evict (terminal).
    #[test]
    fn interleaved_lifecycle_keeps_trails_verifiable(ops in collection::vec(0u8..5u8, 1..9)) {
        let all = multi_tenant_streams(1, PROP_WINDOWS, PROP_EVENTS, 8, 7).remove(0);
        let mut server = StreamServer::new(ServerConfig::default().with_cores(2));
        let t = server.admit(TenantConfig::new("p", QUOTA), prop_pipeline()).unwrap();
        let mut cloud: Vec<LogSegment> = Vec::new();
        let mut next_window = 0usize;
        let mut epoch = 0u32;
        let mut has_ckpt = false;
        let mut alive = true;

        for op in ops {
            match op {
                0 => {
                    if next_window < all.len() {
                        server
                            .serve(vec![prop_stream(t, epoch, &all[next_window..next_window + 1])])
                            .unwrap();
                        next_window += 1;
                    }
                }
                1 => {
                    server.checkpoint(t).unwrap();
                    // The cloud fetches everything through the checkpoint
                    // record; only fetched segments survive a later crash.
                    cloud.extend(server.engine(t).unwrap().drain_audit_segments());
                    has_ckpt = true;
                }
                2 => {
                    epoch = server.rekey(t).unwrap();
                }
                3 => {
                    if !has_ckpt {
                        continue; // nothing durable to restore from
                    }
                    let vault = server.vault().clone();
                    drop(server);
                    server = StreamServer::new(
                        ServerConfig::default().with_cores(2).with_vault(vault),
                    );
                    let restored = server
                        .restore_tenant(t, TenantConfig::new("p", QUOTA), prop_pipeline(), 0)
                        .unwrap();
                    // The snapshot fixes the replay cursor and key epoch.
                    next_window = restored.next_unexecuted as usize;
                    epoch = restored.epoch;
                }
                _ => {
                    // Evict: terminal. The departure trail continues the
                    // fetched prefix.
                    let report = server.evict(t).unwrap();
                    cloud.extend(report.trail);
                    alive = false;
                    break;
                }
            }
        }

        if alive {
            cloud.extend(server.engine(t).unwrap().drain_audit_segments());
        }
        if !cloud.is_empty() {
            let chain = server.verifier_keys(t).unwrap();
            let serial = verify_tenant_trail(&cloud, t, &chain);
            prop_assert!(
                serial.is_ok(),
                "interleaved lifecycle broke the trail: {:?}",
                serial.err()
            );
            let arc = Arc::new(cloud);
            let parallel = verify_tenant_trail_parallel(
                &arc,
                t,
                &chain,
                server.worker_pool().as_ref(),
            );
            prop_assert!(parallel.is_ok(), "parallel verifier disagrees: {:?}", parallel.err());
        }
    }
}
