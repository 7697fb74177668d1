//! The repository's one benchmark (see `BENCHMARK.json` and `README.md` in
//! this directory).
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--out DIR]
//! benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! Per workload it prints one JSON object — `correct`, `attempted`, `failed`
//! and every metric by name with its unit — as a line of standard output
//! (the last line is the last workload's), a readable table on standard
//! error, and `results.json` (plus `trace.json` after a traced pass) under
//! `--out`. It reads no environment variable and imports nothing from
//! `sbt_bench`.

#![forbid(unsafe_code)]

mod cloud;
mod compare;
mod json;
mod metrics;
mod probes;
mod procfs;
mod run;
mod single;
mod spans;
mod stats;
mod tenants;
mod workload;

use json::Json;
use run::{Options, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Spec, DEFAULT_SEED, SPECS};

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--out DIR]\n       \
                     benchmark compare A.json B.json [--bounds BENCHMARK.json]";

/// Which passes an invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Passes {
    /// `--trace 0`: the end-to-end passes only, tracing off.
    EndToEnd,
    /// `--trace 1`: the traced pass and the layer probes only.
    Layers,
    /// No `--trace`: the full run, both.
    Both,
}

struct Cli {
    workloads: Vec<Spec>,
    passes: Passes,
    options: Options,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workloads = Vec::new();
    let mut passes = Passes::Both;
    let mut options = Options {
        seed: DEFAULT_SEED,
        seconds: 15.0,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let spec = workload::spec_by_name(name).ok_or_else(|| {
                    let known: Vec<_> = SPECS.iter().map(|s| s.name).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?;
                workloads.push(spec);
            }
            "--seed" => {
                options.seed =
                    value("--seed")?.parse().map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let seconds: f64 =
                    value("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                options.seconds = seconds;
            }
            "--trace" => {
                passes = match value("--trace")?.as_str() {
                    "0" => Passes::EndToEnd,
                    "1" => Passes::Layers,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--quick" => options.quick = true,
            "--out" => options.out_dir = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if workloads.is_empty() {
        workloads = SPECS.to_vec();
    }
    Ok(Cli { workloads, passes, options })
}

fn metrics_json(outcome: &Outcome, with_quartiles: bool) -> Json {
    Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|((name, unit, _), summary)| {
                let value = if with_quartiles {
                    summary.to_json(unit)
                } else {
                    Json::obj(vec![("value", Json::Num(summary.median)), ("unit", Json::str(unit))])
                };
                (name.to_string(), value)
            })
            .collect(),
    )
}

fn print_table(outcome: &Outcome) {
    eprintln!(
        "\n=== {} — attempted {} failed {} (nproc {}, workers {}, traffic {}) ===",
        outcome.workload,
        outcome.attempted,
        outcome.failed,
        outcome.nproc,
        outcome.workers,
        &outcome.fingerprint[..16.min(outcome.fingerprint.len())],
    );
    for ((name, unit, _), s) in &outcome.metrics {
        if s.n > 1 {
            eprintln!(
                "{name:<38} {:>14.4} {unit:<9} q1 {:>12.4} q3 {:>12.4} n {}",
                s.median, s.q1, s.q3, s.n
            );
        } else {
            eprintln!("{name:<38} {:>14.4} {unit}", s.median);
        }
    }
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
}

/// Run one workload's passes; returns its line for standard output and its
/// entry for `results.json`.
fn run_workload(
    spec: Spec,
    passes: Passes,
    options: &Options,
) -> Result<(Json, Json, bool), String> {
    let spec = if options.quick { spec.quick() } else { spec };
    let mut outcomes = Vec::new();
    if passes != Passes::Layers {
        outcomes.push(("end_to_end", run::run_end_to_end(spec, options)?));
    }
    if passes != Passes::EndToEnd {
        outcomes.push(("per_layer", run::run_layers(spec, options)?));
    }
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed).sum();
    let correct = outcomes.iter().all(|(_, o)| o.correct());

    let mut line_metrics = Vec::new();
    let mut entry = vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("fingerprint".to_string(), Json::str(&outcomes[0].1.fingerprint)),
        (
            "failures".to_string(),
            Json::Arr(
                outcomes.iter().flat_map(|(_, o)| &o.failures).map(|f| Json::str(f)).collect(),
            ),
        ),
    ];
    for (section, outcome) in &outcomes {
        print_table(outcome);
        if let Json::Obj(pairs) = metrics_json(outcome, false) {
            line_metrics.extend(pairs);
        }
        entry.push((section.to_string(), metrics_json(outcome, true)));
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(line_metrics)),
    ]);
    Ok((line, Json::Obj(entry), correct))
}

fn run_benchmark(cli: Cli) -> Result<bool, String> {
    let nproc = single::nproc();
    let mut entries = Vec::new();
    let mut all_correct = true;
    for spec in &cli.workloads {
        let (line, entry, correct) = run_workload(*spec, cli.passes, &cli.options)?;
        println!("{}", line.render());
        entries.push((spec.name.to_string(), entry));
        all_correct &= correct;
    }
    let results = Json::obj(vec![
        ("seed", Json::Num(cli.options.seed as f64)),
        ("seconds", Json::Num(cli.options.seconds)),
        ("quick", Json::Bool(cli.options.quick)),
        ("nproc", Json::Num(nproc as f64)),
        ("workers", Json::Num(single::workers_for(nproc) as f64)),
        ("workloads", Json::Obj(entries)),
    ]);
    std::fs::create_dir_all(&cli.options.out_dir)
        .and_then(|()| std::fs::write(cli.options.out_dir.join("results.json"), results.render()))
        .map_err(|e| {
            format!("cannot write results under {}: {e}", cli.options.out_dir.display())
        })?;
    Ok(all_correct)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds_path = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => bounds_path = PathBuf::from(it.next().ok_or("--bounds needs a path")?),
            path => files.push(path),
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(USAGE.to_string());
    };
    let load = |path: &std::path::Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let bounds = compare::bounds_from(&load(&bounds_path)?)?;
    let (report, regressed) = compare::compare(&load(a.as_ref())?, &load(b.as_ref())?, &bounds)?;
    print!("{report}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_cli(&args).and_then(run_benchmark),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::single::{run_round, workers_for, Pacing};
    use crate::workload::{engine_inputs, spec_by_name, tenant_inputs, Expected, Kind};
    use sbt_engine::EngineVariant;

    /// The contract file, read at compile time (no environment is read when
    /// the tests run).
    const BENCHMARK_JSON: &str =
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

    fn test_options(name: &str) -> Options {
        Options {
            seed: 3,
            seconds: 0.2,
            quick: true,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test")).join(name),
        }
    }

    /// `(name, unit, better)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared_in(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_accepts_the_driver_contract_and_rejects_nonsense() {
        let cli = parse_cli(&args(&[
            "--workload",
            "join",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workloads.len(), 1);
        assert_eq!(cli.workloads[0].name, "join");
        assert_eq!((cli.options.seed, cli.options.seconds, cli.passes), (9, 10.0, Passes::Layers));
        let all = parse_cli(&[]).unwrap();
        assert_eq!(all.workloads.len(), 4);
        assert_eq!((all.options.seed, all.passes), (DEFAULT_SEED, Passes::Both));
        let two = parse_cli(&args(&["--workload", "winsum", "--workload", "topk", "--trace", "0"]))
            .unwrap();
        assert_eq!((two.workloads.len(), two.passes), (2, Passes::EndToEnd));
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds"],
            &["--frobnicate"],
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_reports() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let declared = |list: &[metrics::Decl]| -> Vec<(String, String, String)> {
            list.iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
        };
        assert_eq!(declared_in(&doc, "end_to_end"), declared(&END_TO_END));
        assert_eq!(declared_in(&doc, "per_layer"), declared(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, SPECS.iter().map(|s| s.name).collect::<Vec<_>>());
        // Every bound is one `compare` can read, and none exceeds the cap.
        for bound in compare::bounds_from(&doc).unwrap() {
            assert!(bound.bound > 0.0 && bound.bound <= 0.25, "{bound:?}");
        }
    }

    /// Each oracle against the engine at a tiny scale: an honest round has no
    /// failed operation and verifies every window; a reference that is wrong
    /// in one window fails exactly that window.
    #[test]
    fn oracles_agree_with_the_engine_and_catch_a_wrong_result() {
        for name in ["winsum", "topk", "join"] {
            let spec = spec_by_name(name).unwrap().quick();
            let mut inputs = engine_inputs(&spec, 11);
            let round = run_round(&spec, &inputs, 1, EngineVariant::Sbt, Pacing::Closed, None);
            assert_eq!(round.failed, 0, "{name}: {:?}", round.failures);
            assert_eq!(round.events_ok, spec.events_per_window_total() * 3, "{name}");
            assert!(round.attempted > 3 && round.verdict.audit_records > 0, "{name}");

            inputs.expected[1] = match &inputs.expected[1] {
                Expected::Sum(s) => Expected::Sum(s + 1),
                Expected::TopK(m) => {
                    let mut m = m.clone();
                    m.values_mut().next().unwrap()[0] ^= 1;
                    Expected::TopK(m)
                }
                Expected::Join(rows) => Expected::Join(rows[1..].to_vec()),
                Expected::Filter(rows) => Expected::Filter(rows[1..].to_vec()),
            };
            let round = run_round(&spec, &inputs, 1, EngineVariant::Sbt, Pacing::Closed, None);
            assert_eq!(round.failed, 1, "{name}");
            assert_eq!(round.events_ok, spec.events_per_window_total() * 2, "{name}");
            assert!(round.failures[0].contains("window 1 differs"), "{:?}", round.failures);
        }
    }

    #[test]
    fn server_round_verifies_every_tenant_including_the_filter_oracle() {
        let spec = spec_by_name("tenants4_small_batch").unwrap().quick();
        assert_eq!(spec.kind, Kind::Tenants);
        let mut inputs = tenant_inputs(&spec, 11);
        let round = tenants::run_round(&spec, &inputs, 1, EngineVariant::Sbt, None).unwrap();
        assert_eq!(round.failed, 0, "{:?}", round.failures);
        assert_eq!(round.events_ok, spec.events_per_window_total() * 3);
        assert_eq!(round.trails.len(), 4);
        assert_eq!(round.tenant_delays_ms.iter().map(Vec::len).collect::<Vec<_>>(), vec![3; 4]);
        // Tenant 4's filter reference, shortened by a row, no longer matches.
        if let Expected::Filter(rows) = &mut inputs.expected[3][0] {
            assert!(!rows.is_empty(), "a 1 % filter keeps something at this scale");
            rows.pop();
        } else {
            panic!("tenant 4 filters");
        }
        let round = tenants::run_round(&spec, &inputs, 1, EngineVariant::Sbt, None).unwrap();
        assert_eq!(round.failed, 1, "{:?}", round.failures);
    }

    /// A `--quick`-scale run of all four workloads, both passes: every metric
    /// `BENCHMARK.json` names is printed, with its unit, and is finite. No
    /// assertion looks at a wall-clock value.
    #[test]
    fn quick_smoke_run_prints_every_declared_metric() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let declared: Vec<(String, String)> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|key| declared_in(&doc, key))
            .map(|(name, unit, _)| (name, unit))
            .collect();
        assert_eq!(declared.len(), END_TO_END.len() + PER_LAYER.len());
        for spec in SPECS {
            let options = test_options(spec.name);
            let (line, entry, correct) = run_workload(spec, Passes::Both, &options).unwrap();
            assert!(correct, "{}: {}", spec.name, entry.render());
            // The printed line round-trips and has exactly the contract's keys.
            let line = Json::parse(&line.render()).unwrap();
            let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = line.get("metrics").unwrap();
            assert_eq!(metrics.as_obj().unwrap().len(), declared.len(), "{}", spec.name);
            for (name, unit) in &declared {
                let metric =
                    metrics.get(name).unwrap_or_else(|| panic!("{}: no {name}", spec.name));
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{}: {name} = {value:?}", spec.name);
                assert_eq!(metric.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            }
            // Isolation holds on trusted IO everywhere: nothing is copied
            // across the boundary.
            let copied = metrics.get("tz.copied_bytes_per_event").unwrap();
            assert_eq!(copied.get("value").and_then(Json::as_f64), Some(0.0));
            // The traced pass left parent-linked spans behind.
            let trace = std::fs::read_to_string(options.out_dir.join("trace.json")).unwrap();
            let trace = Json::parse(&trace).unwrap();
            let linked = ["spans", "solo_spans"]
                .iter()
                .flat_map(|key| trace.get(key).and_then(Json::as_arr).unwrap())
                .filter(|s| s.get("parent").is_some_and(|p| p.as_f64().is_some()))
                .count();
            assert!(linked > 0, "{}: no span names its parent", spec.name);
        }
        assert_eq!(workers_for(1), 1);
        assert_eq!(workers_for(2), 1);
        assert_eq!(workers_for(4), 3);
        assert_eq!(workers_for(64), 3);
    }
}
