//! `fcbench diff A.json B.json`: compares two sets of run records (the
//! JSON lines `fcbench run --json FILE` appends) workload by workload and
//! metric by metric, against the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::report::median;

/// The benchmark definition this binary was built with.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Runs needed on each side before a comparison means anything.
const MIN_RUNS: usize = 5;

/// A metric `BENCHMARK.json` declares.
pub struct Declared {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the base median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
}

/// The end-to-end metrics, then the per-layer ones.
pub fn declared() -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let spec = json::parse(BENCHMARK_JSON)?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        spec.get(key)
            .ok_or(format!("BENCHMARK.json lacks {key}"))?
            .as_arr()
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: m
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or("metric without name")?
                        .into(),
                    lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

type Samples = BTreeMap<(String, String), (String, Vec<f64>)>;

/// Reads a run-record file: `(workload, metric) → (unit, values)`. A run
/// with a wrong result or any failed operation makes the file unusable: no
/// operation of these workloads may fail, so a change that fails some
/// quickly cannot pass as faster.
fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    records(path, &text)
}

fn records(path: &str, text: &str) -> Result<Samples, String> {
    let mut out = Samples::new();
    for (ln, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", ln + 1))?;
        let workload = rec.get("workload").and_then(Value::as_str).unwrap_or("?").to_string();
        if rec.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("{path}:{}: run of {workload} was not correct", ln + 1));
        }
        if rec.get("failed") != Some(&Value::Num(0.0)) {
            return Err(format!("{path}:{}: run of {workload} had failed operations", ln + 1));
        }
        for (name, m) in rec.get("metrics").map(Value::as_obj).unwrap_or_default() {
            let value = m.get("value").and_then(Value::as_f64).ok_or("metric without value")?;
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
            out.entry((workload.clone(), name.clone())).or_insert((unit, Vec::new())).1.push(value);
        }
    }
    Ok(out)
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: fcbench diff A.json B.json   (≥ {MIN_RUNS} runs per side)");
        return ExitCode::from(2);
    };
    match compare(a, b) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fcbench diff: {e}");
            ExitCode::from(2)
        }
    }
}

/// Prints the comparison; `Ok(false)` when a bounded metric regressed,
/// is unresolved, or lacks runs.
fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (end_to_end, per_layer) = declared()?;
    let (base, new) = (load(a)?, load(b)?);
    let mut clean = true;
    println!(
        "{:<14} {:<38} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "Δ"
    );
    for ((workload, name), (unit, va)) in &base {
        let Some((_, vb)) = new.get(&(workload.clone(), name.clone())) else { continue };
        let spec = end_to_end.iter().chain(&per_layer).find(|d| d.name == *name);
        let bound = spec.and_then(|d| d.bound);
        let lower = spec.is_none_or(|d| d.lower_is_better);
        let side = |v: &[f64]| {
            if v.len() < 2 {
                return (median(v.to_vec()), [f64::NAN; 3], f64::INFINITY);
            }
            let q = quartiles(v);
            (q[1], q, (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE))
        };
        let ((ma, qa, sa), (mb, qb, sb)) = (side(va), side(vb));
        let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
        let worse = if lower { change } else { -change };
        let verdict = match bound {
            None => "-".to_string(),
            Some(_) if va.len() < MIN_RUNS || vb.len() < MIN_RUNS => {
                format!("too few runs ({} vs {}, need {MIN_RUNS})", va.len(), vb.len())
            }
            Some(bd) if sa > bd || sb > bd => {
                format!(
                    "unresolved (spread {:.1}% / {:.1}% > {:.0}%)",
                    sa * 1e2,
                    sb * 1e2,
                    bd * 1e2
                )
            }
            Some(bd) if worse > bd => format!("REGRESSION (bound {:.0}%)", bd * 1e2),
            Some(bd) if worse < -bd => "improved".to_string(),
            Some(_) => "ok".to_string(),
        };
        clean &= bound.is_none() || matches!(verdict.as_str(), "ok" | "improved");
        let cell = |m: f64, q: [f64; 3]| format!("{m:.4} [{:.4}, {:.4}] {unit}", q[0], q[2]);
        println!(
            "{workload:<14} {name:<38} {:>30} {:>30} {:>7.2}%  {verdict}",
            cell(ma, qa),
            cell(mb, qb),
            change * 1e2
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn runs_with_failed_operations_are_refused() {
        let run = |failed: u32| {
            format!(
                "{{\"workload\":\"w\",\"correct\":true,\"attempted\":8,\"failed\":{failed},\
                 \"metrics\":{{\"qps\":{{\"value\":9.5,\"unit\":\"queries/s\"}}}}}}"
            )
        };
        let ok = records("a", &run(0)).expect("a clean run loads");
        assert_eq!(ok[&("w".to_string(), "qps".to_string())].1, [9.5]);
        assert!(records("b", &run(1)).is_err());
    }
}
