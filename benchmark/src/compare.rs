//! `benchmark compare A.json B.json`: per workload × end-to-end metric, is B
//! no worse than A by more than the bound `BENCHMARK.json` fixes?

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// change of that size could not be told from noise: not "unchanged".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric's declaration from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds_from(benchmark_json: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks \"{k}\""));
            Ok(Bound {
                name: field("name")?.as_str().ok_or("name is not a string")?.to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One side's reading of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Reading {
    fn from_json(metric: &Json) -> Option<Reading> {
        let value = metric.get("value")?.as_f64()?;
        Some(Reading {
            value,
            q1: metric.get("q1").and_then(Json::as_f64).unwrap_or(value),
            q3: metric.get("q3").and_then(Json::as_f64).unwrap_or(value),
        })
    }

    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// Share of `a` by which `b` is worse (negative when better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(a: Reading, b: Reading, bound: &Bound) -> Verdict {
    if worsening(a.value, b.value, bound.higher_is_better) > bound.bound {
        Verdict::Regressed
    } else if a.spread().max(b.spread()) > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Runs are comparable only when they offered the same load from the same
/// seed at the same scale.
fn comparable(a: &Json, b: &Json) -> Result<(), String> {
    for key in ["workers", "seed", "quick"] {
        let (va, vb) = (a.get(key), b.get(key));
        if va.is_none() || va != vb {
            return Err(format!(
                "runs are not comparable: {key} is {} in A and {} in B",
                va.map_or("missing".to_string(), Json::render),
                vb.map_or("missing".to_string(), Json::render),
            ));
        }
    }
    Ok(())
}

/// Compare two result documents. Returns the printed report and whether any
/// metric regressed (or any run recorded failed operations).
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<(String, bool), String> {
    comparable(a, b)?;
    let workloads_a = a.get("workloads").and_then(Json::as_obj).ok_or("A has no workloads")?;
    let mut report = String::new();
    let mut regressed = false;
    let mut compared = 0;
    for (name, wa) in workloads_a {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            continue;
        };
        for (side, w) in [("A", wa), ("B", wb)] {
            let failed = w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            if failed > 0.0 {
                regressed = true;
                report
                    .push_str(&format!("{name}: run {side} recorded {failed} failed operations\n"));
            }
        }
        for bound in bounds {
            let reading = |w: &Json| {
                w.get("end_to_end").and_then(|m| m.get(&bound.name)).and_then(Reading::from_json)
            };
            let (Some(ra), Some(rb)) = (reading(wa), reading(wb)) else {
                continue;
            };
            let verdict = judge(ra, rb, bound);
            regressed |= verdict == Verdict::Regressed;
            compared += 1;
            report.push_str(&format!(
                "{name:<22} {:<28} {:<10} A {:>12.4}  B {:>12.4}  worse by {:>+7.2}%  (bound {:.0}%, spread A {:.1}% B {:.1}%)\n",
                bound.name,
                verdict.label(),
                ra.value,
                rb.value,
                worsening(ra.value, rb.value, bound.higher_is_better) * 100.0,
                bound.bound * 100.0,
                ra.spread() * 100.0,
                rb.spread() * 100.0,
            ));
        }
    }
    if compared == 0 {
        return Err("the two runs share no workload with end-to-end metrics".to_string());
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool, bound: f64) -> Bound {
        Bound { name: "m".to_string(), higher_is_better: higher, bound }
    }

    fn tight(value: f64) -> Reading {
        Reading { value, q1: value * 0.995, q3: value * 1.005 }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, 10 % bound.
        assert_eq!(judge(tight(100.0), tight(105.0), &bound(false, 0.10)), Verdict::Ok);
        assert_eq!(judge(tight(100.0), tight(111.0), &bound(false, 0.10)), Verdict::Regressed);
        assert_eq!(judge(tight(100.0), tight(50.0), &bound(false, 0.10)), Verdict::Ok);
        // Higher is better: a drop is the worsening.
        assert_eq!(judge(tight(10.0), tight(9.2), &bound(true, 0.07)), Verdict::Regressed);
        assert_eq!(judge(tight(10.0), tight(12.0), &bound(true, 0.07)), Verdict::Ok);
        // Within the bound but either side noisier than the bound.
        let noisy = Reading { value: 100.0, q1: 90.0, q3: 110.0 };
        assert_eq!(judge(noisy, tight(101.0), &bound(false, 0.10)), Verdict::Unresolved);
        assert_eq!(judge(tight(100.0), noisy, &bound(false, 0.10)), Verdict::Unresolved);
        // A regression is a regression even when noisy.
        assert_eq!(judge(noisy, tight(130.0), &bound(false, 0.10)), Verdict::Regressed);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    fn run(workers: f64, seed: f64, throughput: f64, failed: f64) -> Json {
        let metric = Json::obj(vec![
            ("value", Json::Num(throughput)),
            ("unit", Json::str("Mev/s")),
            ("q1", Json::Num(throughput * 0.99)),
            ("q3", Json::Num(throughput * 1.01)),
            ("n", Json::Num(11.0)),
        ]);
        Json::obj(vec![
            ("workers", Json::Num(workers)),
            ("seed", Json::Num(seed)),
            ("quick", Json::Bool(false)),
            (
                "workloads",
                Json::obj(vec![(
                    "winsum",
                    Json::obj(vec![
                        ("failed", Json::Num(failed)),
                        ("end_to_end", Json::obj(vec![("throughput_mev_s", metric)])),
                    ]),
                )]),
            ),
        ])
    }

    fn declared() -> Vec<Bound> {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"throughput_mev_s","unit":"Mev/s","better":"higher","bound":0.07}]}"#,
        )
        .unwrap();
        bounds_from(&doc).unwrap()
    }

    #[test]
    fn documents_compare_end_to_end() {
        let bounds = declared();
        assert_eq!(
            bounds[0],
            Bound { name: "throughput_mev_s".into(), higher_is_better: true, bound: 0.07 }
        );
        let (report, regressed) =
            compare(&run(1.0, 42.0, 12.0, 0.0), &run(1.0, 42.0, 11.9, 0.0), &bounds).unwrap();
        assert!(!regressed && report.contains(" ok "), "{report}");
        let (report, regressed) =
            compare(&run(1.0, 42.0, 12.0, 0.0), &run(1.0, 42.0, 10.0, 0.0), &bounds).unwrap();
        assert!(regressed && report.contains("regressed"), "{report}");
        // Failed operations fail the comparison whatever the numbers say.
        let (_, regressed) =
            compare(&run(1.0, 42.0, 12.0, 0.0), &run(1.0, 42.0, 12.0, 3.0), &bounds).unwrap();
        assert!(regressed);
    }

    #[test]
    fn incomparable_runs_are_refused() {
        let bounds = declared();
        let base = run(1.0, 42.0, 12.0, 0.0);
        assert!(compare(&base, &run(3.0, 42.0, 12.0, 0.0), &bounds)
            .unwrap_err()
            .contains("workers"));
        assert!(compare(&base, &run(1.0, 7.0, 12.0, 0.0), &bounds).unwrap_err().contains("seed"));
        assert!(bounds_from(&Json::obj(vec![])).is_err());
    }
}
