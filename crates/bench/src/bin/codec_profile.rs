//! Where the streaming encoder spends its time at large (16 K-record)
//! segments: full append+seal, append-only (seal skipped via `reset`),
//! seal-only (the difference), and a dispatch-and-touch-every-field walk
//! as the floor no encoder can beat. A diagnosis tool for the large-segment
//! regime, not a pass/fail check.
//!
//! Run with `cargo run --release -p sbt_bench --bin codec_profile`.
use sbt_attest::{AuditRecord, ColumnarEncoder};
use sbt_bench::{best_secs, synthetic_audit_records};

fn main() {
    let records = synthetic_audit_records(250, 32);
    let seg = 16 * 1024;
    let n = records.len();
    let raw = AuditRecord::raw_size(&records) as f64;
    let iters = 40;

    // Full append+seal into a reused buffer — the gate's loop.
    let mut enc = ColumnarEncoder::with_capacity(seg);
    let mut out = Vec::new();
    let full_secs = best_secs(iters, || {
        for chunk in records.chunks(seg) {
            for r in chunk {
                enc.append(r);
            }
            out.clear();
            enc.seal_into(&mut out);
        }
    });

    // Append-only: same appends, `reset` wipes the columns without the
    // entropy stage, so full minus this is the seal cost.
    let mut enc2 = ColumnarEncoder::with_capacity(seg);
    let append_only_secs = best_secs(iters, || {
        for chunk in records.chunks(seg) {
            for r in chunk {
                enc2.append(r);
            }
            enc2.reset();
        }
    });

    // Walk floor: dispatch every record and touch every field, no encoding.
    let walk_secs = best_secs(iters, || {
        let mut acc = 0u64;
        for r in &records {
            match r {
                AuditRecord::Ingress { ts_ms, data } => {
                    acc = acc.wrapping_add(*ts_ms as u64);
                    match data {
                        sbt_attest::DataRef::UArray(id) => acc = acc.wrapping_add(id.0 as u64),
                        sbt_attest::DataRef::Watermark(wm) => acc = acc.wrapping_add(*wm as u64),
                    }
                }
                AuditRecord::Egress { ts_ms, data } => {
                    acc = acc.wrapping_add(*ts_ms as u64 + data.0 as u64);
                }
                AuditRecord::Windowing { ts_ms, input, win_no, output } => {
                    acc = acc
                        .wrapping_add(*ts_ms as u64 + input.0 as u64 + output.0 as u64)
                        .wrapping_add(*win_no as u64);
                }
                AuditRecord::Execution { ts_ms, op, inputs, outputs, hints } => {
                    acc = acc.wrapping_add(*ts_ms as u64 + op.code() as u64);
                    for i in inputs.iter() {
                        acc = acc.wrapping_add(i.0 as u64);
                    }
                    for o in outputs.iter() {
                        acc = acc.wrapping_add(o.0 as u64);
                    }
                    for h in hints.iter() {
                        acc = acc.wrapping_add(*h);
                    }
                }
                AuditRecord::Rekey { ts_ms, epoch } => {
                    acc = acc.wrapping_add(*ts_ms as u64 + *epoch as u64);
                }
                AuditRecord::Departure { ts_ms, .. } => acc = acc.wrapping_add(*ts_ms as u64),
                AuditRecord::Checkpoint { ts_ms, seq, hash, .. } => {
                    acc = acc.wrapping_add(*ts_ms as u64 + *seq).wrapping_add(hash[0] as u64);
                }
            }
        }
        std::hint::black_box(acc);
    });

    println!("records {n}, raw {:.0} KB", raw / 1024.0);
    println!(
        "v3 append+seal: {:.3} ms  ({:.0} MB/s, {:.1} ns/rec)",
        full_secs * 1e3,
        raw / full_secs / 1e6,
        full_secs * 1e9 / n as f64
    );
    println!(
        "v3 append-only: {:.3} ms  ({:.0} MB/s, {:.1} ns/rec)",
        append_only_secs * 1e3,
        raw / append_only_secs / 1e6,
        append_only_secs * 1e9 / n as f64
    );
    println!(
        "v3 seal-only:   {:.3} ms  ({:.1} ns/rec)",
        (full_secs - append_only_secs) * 1e3,
        (full_secs - append_only_secs) * 1e9 / n as f64
    );
    println!(
        "walk floor:     {:.3} ms  ({:.1} ns/rec)",
        walk_secs * 1e3,
        walk_secs * 1e9 / n as f64
    );
}
