//! End-to-end attestation: run a pipeline on the edge, upload the compressed
//! audit log, and replay it on the cloud verifier — first for an honest run,
//! then for a tampered log, showing how correctness and freshness violations
//! are surfaced (§7).
//!
//! Run with `cargo run --release --example attested_edge`.

use streambox_tz::attest::record::AuditRecord;
use streambox_tz::attest::Violation;
use streambox_tz::prelude::*;

fn run_edge() -> (Vec<AuditRecord>, PipelineSpec, usize) {
    let pipeline = Pipeline::new("attested-winsum")
        .then(Operator::WindowSum)
        .target_delay_ms(10_000)
        .batch_events(10_000);
    let engine = Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, 4), pipeline);
    let chunks = intel_lab_stream(3, 50_000, 11);
    let mut generator =
        Generator::new(GeneratorConfig { batch_events: 10_000 }, Channel::encrypted_demo(), chunks);
    while let Some(offer) = generator.next_offer() {
        match offer {
            Offer::Batch(batch) => {
                engine.ingest_group(&[batch], StreamSide::Left).expect("ingest");
            }
            Offer::Watermark(wm) => {
                engine.advance_watermark_on(wm, StreamSide::Left).expect("watermark")
            }
        }
    }
    let segments = engine.drain_audit_segments();
    // The audit segments are signed inside the TEE; the cloud authenticates
    // the trail (tenant tag, key epoch, signature, sequence) before
    // replaying it, holding only the tenant's verifier keys.
    let keys = engine.data_plane().verifier_keys(TenantId::DEFAULT).expect("tenant keys");
    let records =
        verify_tenant_trail(&segments, TenantId::DEFAULT, &keys).expect("audit trail verifies");
    let compressed: usize = segments.iter().map(|s| s.compressed.len()).sum();
    let raw: usize = segments.iter().map(|s| s.raw_bytes).sum();
    println!(
        "edge produced {} audit records in {} segments ({} B raw -> {} B compressed, {:.1}x)",
        records.len(),
        segments.len(),
        raw,
        compressed,
        raw as f64 / compressed.max(1) as f64
    );
    (records, engine.pipeline().spec(), engine.results().len())
}

fn main() {
    let (records, spec, results) = run_edge();
    println!("edge externalized {results} window results\n");

    // Honest replay.
    let verifier = Verifier::new(spec.clone());
    let report = verifier.replay(&records);
    println!(
        "honest log:    correct = {}, results attested = {}, max delay = {} ms, misleading hints = {}",
        report.is_correct(),
        report.egressed,
        report.freshness.max_delay_ms(),
        report.misleading_hints
    );
    assert!(report.is_correct());

    // Attack 1: the compromised control plane silently drops a window's
    // processing (remove one windowing record and everything derived from it
    // — here just the windowing record suffices for detection).
    let mut tampered: Vec<AuditRecord> = records.clone();
    if let Some(pos) = tampered.iter().position(|r| matches!(r, AuditRecord::Windowing { .. })) {
        tampered.remove(pos);
    }
    let report = verifier.replay(&tampered);
    let dropped_data_detected =
        report.violations.iter().any(|v| matches!(v, Violation::UnwindowedIngress(_)));
    println!(
        "dropped data:  correct = {}, violations = {} (unwindowed ingress detected: {})",
        report.is_correct(),
        report.violations.len(),
        dropped_data_detected
    );
    assert!(dropped_data_detected);

    // Attack 2: results delayed far beyond the freshness target.
    let mut stale = records.clone();
    for r in &mut stale {
        if let AuditRecord::Egress { ts_ms, .. } = r {
            *ts_ms += 120_000;
        }
    }
    let strict = Verifier::new(PipelineSpec::new(&spec.name, spec.stages.clone(), 1_000));
    let report = strict.replay(&stale);
    let stale_detected =
        report.violations.iter().any(|v| matches!(v, Violation::StaleResult { .. }));
    println!(
        "stale results: correct = {}, stale-result violations detected: {}",
        report.is_correct(),
        stale_detected
    );
    assert!(stale_detected);
}
