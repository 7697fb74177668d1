//! Table 4: breakdown of the StreamBox-TZ source into trusted (data-plane)
//! and untrusted (control-plane / library) code, demonstrating the lean TCB.
//!
//! The reproduction measures its own source tree: the crates that would run
//! inside the TEE versus those that stay in the normal world. Every crate
//! under `crates/` belongs to exactly one row. Run with
//! `cargo run -p sbt-bench --bin table4_tcb` from the repository root.

use sbt_bench::print_table;
use serde::Serialize;
use std::path::Path;

#[derive(Serialize)]
struct CrateRow {
    component: String,
    crates: Vec<String>,
    sloc: usize,
    trusted: bool,
}

/// Count non-empty, non-comment-only lines of Rust source under a crate's
/// `src` directory, tests left out: the paper's SLoC counts are counts of
/// the implementation, and no test is compiled into the trusted
/// application. A `tests.rs` file is skipped whole, an item under
/// `#[cfg(test)]` line by line (see [`count_lines`]).
fn count_sloc(dir: &Path) -> usize {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += count_sloc(&path);
        } else if path.extension().is_some_and(|e| e == "rs")
            && path.file_name().is_some_and(|n| n != "tests.rs")
        {
            if let Ok(content) = std::fs::read_to_string(&path) {
                total += count_lines(&content);
            }
        }
    }
    total
}

/// The counted lines of one source file. An item under `#[cfg(test)]` —
/// an inline test module, a test-only helper — is skipped from the
/// attribute to the item's last line: the first line at the attribute's
/// indent that ends in `;` or `}` (rustfmt's layout of every item). So a
/// declaration, `#[cfg(test)] mod tests;`, skips itself and not the rest of
/// its file.
fn count_lines(source: &str) -> usize {
    let mut lines = source.lines();
    let mut count = 0;
    while let Some(line) = lines.next() {
        let code = line.trim();
        if code == "#[cfg(test)]" {
            let indent = line.len() - line.trim_start().len();
            lines.find(|line| {
                let code = line.trim();
                line.len() - line.trim_start().len() == indent
                    && !code.starts_with("//")
                    && (code.ends_with(';') || code.ends_with('}'))
            });
        } else if !code.is_empty() && !code.starts_with("//") {
            count += 1;
        }
    }
    count
}

fn main() {
    sbt_bench::print_crypto_backend();
    // Locate the workspace root whether we run from it or from the crate dir.
    let root = if Path::new("crates").exists() {
        Path::new(".").to_path_buf()
    } else {
        Path::new("../..").to_path_buf()
    };

    let groups: Vec<(&str, Vec<&str>, bool)> = vec![
        // The data plane: what would be compiled into the TA (trusted).
        ("Data plane: trusted primitives", vec!["primitives"], true),
        ("Data plane: TEE memory mgmt (uArray)", vec!["uarray"], true),
        // Both back-ends: the AES-NI / SHA-NI kernels (`hw.rs`, the data
        // plane's only `unsafe`) and the portable ones they fall back to.
        ("Data plane: crypto", vec!["crypto"], true),
        ("Data plane: attestation (records + codec)", vec!["attest"], true),
        ("Data plane: dispatch/ingress/egress", vec!["dataplane"], true),
        // The data plane links it and records spans and latencies from
        // inside the TEE.
        ("Data plane: telemetry (spans, latencies)", vec!["telemetry"], true),
        // The control plane and everything else (untrusted).
        ("Control plane: engine, operators, scheduler", vec!["engine"], false),
        ("Control plane: multi-tenant server", vec!["server"], false),
        ("Shared types", vec!["types"], false),
        ("Platform simulation (OP-TEE/TrustZone stand-in)", vec!["tz"], false),
        ("Workloads & transport", vec!["workloads"], false),
        ("Baselines", vec!["baselines"], false),
        ("Benchmark harness", vec!["bench"], false),
    ];

    let mut rows = Vec::new();
    let mut table = Vec::new();
    let mut trusted_total = 0;
    let mut untrusted_total = 0;
    for (label, crates, trusted) in groups {
        let sloc: usize =
            crates.iter().map(|c| count_sloc(&root.join("crates").join(c).join("src"))).sum();
        if trusted {
            trusted_total += sloc;
        } else {
            untrusted_total += sloc;
        }
        table.push(vec![
            label.to_string(),
            crates.join(", "),
            sloc.to_string(),
            if trusted { "trusted (TCB)" } else { "untrusted" }.to_string(),
        ]);
        rows.push(CrateRow {
            component: label.to_string(),
            crates: crates.iter().map(|s| s.to_string()).collect(),
            sloc,
            trusted,
        });
    }
    print_table(
        "Table 4 — source breakdown of this reproduction",
        &["component", "crates", "SLoC", "trust"],
        &table,
    );
    let total = trusted_total + untrusted_total;
    println!("\nTrusted (data plane) SLoC:   {trusted_total}");
    println!("Untrusted SLoC:              {untrusted_total}");
    println!(
        "Data plane share of sources: {:.1}% (paper: the data plane adds 5K SLoC / 42.5 KB,\n\
         16% of the OP-TEE TCB binary; the untrusted side is ~31K SLoC plus ~1.3M SLoC of\n\
         commodity libraries that this reproduction does not need to link)",
        100.0 * trusted_total as f64 / total.max(1) as f64
    );
    sbt_bench::dump_json("table4_tcb", &rows);
}

#[cfg(test)]
mod tests {
    use super::count_lines;

    #[test]
    fn test_items_are_skipped_and_a_declaration_ends_at_its_semicolon() {
        let source = [
            "//! Docs.",
            "use a::b;",
            "",
            "#[cfg(test)]",
            "mod tests;",
            "",
            "fn kept() {",
            "    // A comment.",
            "    body();",
            "}",
            "",
            "#[cfg(test)]",
            "fn helper(",
            "    a: u32,",
            ") -> u32 {",
            "    a",
            "}",
            "",
            "#[cfg(test)]",
            "mod inline {",
            "    #[test]",
            "    fn t() {}",
            "}",
        ]
        .join("\n");
        // `use`, `fn kept() {`, `body();` and its `}`.
        assert_eq!(count_lines(&source), 4);
    }
}
