//! The cloud consumer's side of a round: open every egressed result under
//! the tenant's keychain, compare it with the reference, authenticate the
//! audit trail and replay it against the pipeline declaration. Runs after
//! the timed region; its own time is reported as the `cloud.*` layer.

use crate::workload::Expected;
use sbt_attest::{verify_tenant_trail, LogSegment, PipelineSpec, Verifier, Violation};
use sbt_crypto::TenantKeychain;
use sbt_dataplane::EgressMessage;
use sbt_types::TenantId;
use std::time::Instant;

/// Bytes one log segment costs on the uplink: the signed header (tenant,
/// epoch, sequence), the compressed payload and the HMAC.
pub fn segment_wire_bytes(segment: &LogSegment) -> u64 {
    16 + segment.compressed.len() as u64 + 32
}

/// What the consumer found for one tenant's round.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Windows whose result opened and matched the reference.
    pub windows_ok: Vec<bool>,
    /// Operations that failed (wrong/missing/unopenable window results, an
    /// extra result, a trail that does not verify or replays incorrect).
    pub failed: u64,
    pub failures: Vec<String>,
    /// Results the verifier's freshness check flagged as later than the
    /// pipeline's target. Reported, not failed: in a closed loop on a shared
    /// host a preempted window says nothing about the program.
    pub stale_results: u64,
    pub audit_records: u64,
    pub audit_wire_bytes: u64,
    pub audit_raw_bytes: u64,
    pub opened_bytes: u64,
    pub open_s: f64,
    pub compare_s: f64,
    pub verify_s: f64,
    pub replay_s: f64,
}

impl Verdict {
    /// Fold another tenant's verdict into this one (sums; `windows_ok` is
    /// per tenant and stays with the caller).
    pub fn absorb(&mut self, other: Verdict) {
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.stale_results += other.stale_results;
        self.audit_records += other.audit_records;
        self.audit_wire_bytes += other.audit_wire_bytes;
        self.audit_raw_bytes += other.audit_raw_bytes;
        self.opened_bytes += other.opened_bytes;
        self.open_s += other.open_s;
        self.compare_s += other.compare_s;
        self.verify_s += other.verify_s;
        self.replay_s += other.replay_s;
    }
}

/// Check one tenant's outputs against its reference.
pub fn check(
    label: &str,
    results: &[EgressMessage],
    expected: &[Expected],
    segments: &[LogSegment],
    tenant: TenantId,
    keychain: &TenantKeychain,
    spec: &PipelineSpec,
) -> Verdict {
    let mut v = Verdict { windows_ok: vec![false; expected.len()], ..Verdict::default() };
    let fail = |v: &mut Verdict, what: String| {
        v.failed += 1;
        if v.failures.len() < 8 {
            v.failures.push(format!("{label}: {what}"));
        }
    };

    for (w, reference) in expected.iter().enumerate() {
        let Some(message) = results.get(w) else {
            fail(&mut v, format!("window {w} has no result"));
            continue;
        };
        let t = Instant::now();
        let opened = message.open_any(keychain);
        v.open_s += t.elapsed().as_secs_f64();
        let Some((plain, _epoch)) = opened else {
            fail(&mut v, format!("window {w} does not open under the tenant keychain"));
            continue;
        };
        v.opened_bytes += plain.len() as u64;
        let t = Instant::now();
        let ok = reference.matches(&plain);
        v.compare_s += t.elapsed().as_secs_f64();
        if ok {
            v.windows_ok[w] = true;
        } else {
            fail(&mut v, format!("window {w} differs from the reference"));
        }
    }
    if results.len() > expected.len() {
        fail(&mut v, format!("{} results for {} windows", results.len(), expected.len()));
    }

    v.audit_wire_bytes = segments.iter().map(segment_wire_bytes).sum();
    v.audit_raw_bytes = segments.iter().map(|s| s.raw_bytes as u64).sum();
    let t = Instant::now();
    let trail = verify_tenant_trail(segments, tenant, keychain);
    v.verify_s = t.elapsed().as_secs_f64();
    match trail {
        Err(e) => fail(&mut v, format!("trail does not verify: {e}")),
        Ok(records) => {
            v.audit_records = records.len() as u64;
            let t = Instant::now();
            let report = Verifier::new(spec.clone()).replay(&records);
            v.replay_s = t.elapsed().as_secs_f64();
            let mut incorrect = Vec::new();
            for violation in &report.violations {
                match violation {
                    Violation::StaleResult { .. } => v.stale_results += 1,
                    other => incorrect.push(format!("{other:?}")),
                }
            }
            if !incorrect.is_empty() {
                fail(&mut v, format!("trail replays incorrect: {}", incorrect.join("; ")));
            } else if report.egressed != results.len() {
                fail(
                    &mut v,
                    format!(
                        "trail records {} egresses, {} uploaded",
                        report.egressed,
                        results.len()
                    ),
                );
            }
        }
    }
    v
}

/// One tenant's trail with what is needed to verify it.
pub struct Trail {
    pub segments: Vec<LogSegment>,
    pub tenant: TenantId,
    pub keychain: TenantKeychain,
    pub spec: PipelineSpec,
}

/// One cloud-side pass over a round's whole trail set: authenticate and
/// replay every tenant's trail. Returns (records, seconds).
pub fn verify_pass(trails: &[Trail]) -> (u64, f64) {
    let t = Instant::now();
    let mut records = 0u64;
    for trail in trails {
        if let Ok(decoded) = verify_tenant_trail(&trail.segments, trail.tenant, &trail.keychain) {
            records += decoded.len() as u64;
            std::hint::black_box(Verifier::new(trail.spec.clone()).replay(&decoded));
        }
    }
    (records, t.elapsed().as_secs_f64())
}

/// Repeat [`verify_pass`] for at least `min_seconds` (and at least once)
/// and return the rate over all of it, Krecords/s. A single-engine trail is
/// a few hundred records and verifies in a fraction of a millisecond, so one
/// pass alone is too short to time.
pub fn verify_rate(trails: &[Trail], min_seconds: f64) -> f64 {
    let started = Instant::now();
    let (mut records, mut seconds) = (0u64, 0.0);
    while records == 0 || started.elapsed().as_secs_f64() < min_seconds {
        let (pass_records, pass_seconds) = verify_pass(trails);
        if pass_records == 0 {
            return 0.0;
        }
        records += pass_records;
        seconds += pass_seconds;
    }
    records as f64 / 1e3 / seconds.max(1e-9)
}
