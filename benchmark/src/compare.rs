//! Result sets: running every workload in a process of its own,
//! saving what they report, and comparing two sets against the bounds
//! `BENCHMARK.json` fixes.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::host;
use crate::json::{self, num, quote, Value};
use crate::spec::Spec;
use crate::workloads::{self, Ctx};

/// One workload's metric values, by name.
type Values = Vec<(String, f64)>;

/// What `all` measured: one entry per workload.
pub struct ResultSet {
    pub quick: bool,
    pub workloads: Vec<(String, Values)>,
    pub all_passed: bool,
    pub path: PathBuf,
}

/// `name → value` of a result object's `metrics`.
fn metric_values(result: &Value) -> Option<Values> {
    result
        .get("metrics")
        .and_then(json::as_obj)?
        .iter()
        .map(|(m, mv)| Some((m.clone(), mv.get("value")?.as_f64()?)))
        .collect()
}

fn read_set(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let malformed = || format!("{}: not a result set", path.display());
    let mut workloads = Vec::new();
    let mut all_passed = true;
    for (name, w) in v.get("workloads").and_then(json::as_obj).ok_or_else(malformed)? {
        let values = metric_values(w).ok_or_else(malformed)?;
        all_passed &= w.get("correct").and_then(json::as_bool) == Some(true);
        workloads.push((name.clone(), values));
    }
    Ok(ResultSet {
        quick: v.get("quick").and_then(json::as_bool).ok_or_else(malformed)?,
        workloads,
        all_passed,
        path: path.to_path_buf(),
    })
}

/// Run every workload, one process per workload so that peak memory,
/// the calibration and the thread pools of one never reach the next,
/// and write the result set under `benchmark/out/`.
pub fn run_all(ctx: &Ctx, trace: bool) -> Result<ResultSet, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut entries = Vec::new();
    let mut workloads = Vec::new();
    let mut all_passed = true;
    for name in workloads::REGISTRY.iter().map(|e| e.name) {
        println!("== {name}");
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if ctx.quick {
            cmd.arg("--quick");
        }
        let output = cmd.output().map_err(|e| format!("{name}: cannot start: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let Some((shown, last)) = stdout.trim_end().rsplit_once('\n') else {
            return Err(format!("{name}: exited with {} and no result", output.status));
        };
        println!("{shown}");
        let result = json::parse(last).map_err(|e| format!("{name}: result line: {e}"))?;
        let values = metric_values(&result).ok_or(format!("{name}: result line has no metrics"))?;
        if !output.status.success() {
            println!("{name}: FAILED ({})", output.status);
            all_passed = false;
        }
        entries.push(format!("{}:{}", quote(name), last));
        workloads.push((name.to_string(), values));
    }
    let label = format!(
        "{}{}-seed{}",
        if trace { "layers" } else { "results" },
        if ctx.quick { "-quick" } else { "" },
        ctx.seed
    );
    let path = host::out_dir().join(format!("{label}.json"));
    let text = format!(
        "{{\"quick\":{},\"traced\":{trace},\"seed\":{},\"seconds\":{},\"workloads\":{{{}}}}}\n",
        ctx.quick,
        ctx.seed,
        num(ctx.seconds),
        entries.join(",")
    );
    std::fs::create_dir_all(host::out_dir())
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("== result set: {}", path.display());
    Ok(ResultSet { quick: ctx.quick, workloads, all_passed, path })
}

/// One workload × end-to-end metric of a comparison.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub breach: bool,
}

/// Compare `b` against `a` on every workload × end-to-end metric.
/// `b` breaches a bound when it is worse than `a` by more than the
/// bound; with `symmetric`, also when it is better by more than that,
/// which is what two sets of the same code must not be.
pub fn compare(
    a: &ResultSet,
    b: &ResultSet,
    spec: &Spec,
    symmetric: bool,
) -> Result<Vec<Row>, String> {
    if a.quick || b.quick {
        return Err("a --quick result set measures smaller problems and is never compared".into());
    }
    let mut rows = Vec::new();
    for (workload, a_values) in &a.workloads {
        let b_values = &b
            .workloads
            .iter()
            .find(|(w, _)| w == workload)
            .ok_or(format!("{}: no workload '{workload}'", b.path.display()))?
            .1;
        for def in &spec.end_to_end {
            let find = |values: &Values, set: &ResultSet| {
                values.iter().find(|(m, _)| m == &def.name).map(|(_, v)| *v).ok_or(format!(
                    "{}: {workload} has no '{}' (a traced set holds per-layer metrics only)",
                    set.path.display(),
                    def.name
                ))
            };
            let (va, vb) = (find(a_values, a)?, find(b_values, b)?);
            let worse_by = if def.higher_is_better { (va - vb) / va } else { (vb - va) / va };
            let bound = def.bound.ok_or(format!("'{}' has no bound", def.name))?;
            let over = if symmetric { worse_by.abs() } else { worse_by };
            // NaN (a zero baseline) must not pass silently.
            let breach = over.is_nan() || over > bound;
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.clone(),
                a: va,
                b: vb,
                worse_by,
                bound,
                breach,
            });
        }
    }
    Ok(rows)
}

fn print_rows(rows: &[Row]) -> u8 {
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>10} {:>7}",
        "workload", "metric", "a", "b", "b worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<14} {:>14.6} {:>14.6} {:>9.2}% {:>6.0}%{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.breach { "  BREACH" } else { "" }
        );
    }
    let breaches = rows.iter().filter(|r| r.breach).count();
    println!("{breaches} of {} pairings outside their bound", rows.len());
    u8::from(breaches > 0)
}

pub fn compare_files(a: &Path, b: &Path, spec: &Spec) -> Result<u8, String> {
    let rows = compare(&read_set(a)?, &read_set(b)?, spec, false)?;
    Ok(print_rows(&rows))
}

/// The agreement check: the same code measured `sets` times back to
/// back, each time on another seed, must agree with the first set
/// within the benchmark's own bounds in both directions.
pub fn run_aa(ctx: &Ctx, sets: usize, spec: &Spec) -> Result<u8, String> {
    if sets < 2 {
        return Err("--sets: an agreement check needs at least 2 sets".to_string());
    }
    let mut runs = Vec::new();
    for i in 0..sets {
        println!("==== set {} of {sets}", i + 1);
        let set = run_all(&Ctx { seed: ctx.seed + i as u64, ..*ctx }, false)?;
        if !set.all_passed {
            return Err(format!("set {} failed; nothing to compare", i + 1));
        }
        runs.push(set);
    }
    let mut code = 0;
    for later in &runs[1..] {
        println!("==== {} against {}", later.path.display(), runs[0].path.display());
        code |= print_rows(&compare(&runs[0], later, spec, true)?);
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MetricDef;

    fn spec() -> Spec {
        let def = |name: &str, higher: bool, bound: f64| MetricDef {
            name: name.to_string(),
            unit: "u".to_string(),
            higher_is_better: higher,
            bound: Some(bound),
        };
        Spec {
            run_seconds: 1.0,
            workloads: vec![("w".to_string(), "why".to_string())],
            end_to_end: vec![def("solve_s", false, 0.10), def("jobs_per_s", true, 0.10)],
            per_layer: vec![],
        }
    }

    fn set(solve_s: f64, jobs_per_s: f64, quick: bool) -> ResultSet {
        let values = vec![("solve_s".to_string(), solve_s), ("jobs_per_s".to_string(), jobs_per_s)];
        ResultSet {
            quick,
            workloads: vec![("w".to_string(), values)],
            all_passed: true,
            path: PathBuf::from("set.json"),
        }
    }

    #[test]
    fn worse_is_direction_aware_and_a_breach_is_past_the_bound() {
        let rows =
            compare(&set(1.0, 100.0, false), &set(1.09, 89.0, false), &spec(), false).unwrap();
        assert!((rows[0].worse_by - 0.09).abs() < 1e-12 && !rows[0].breach);
        assert!((rows[1].worse_by - 0.11).abs() < 1e-12 && rows[1].breach, "fewer jobs/s is worse");
    }

    #[test]
    fn an_improvement_breaches_only_the_agreement_check() {
        let (a, b) = (set(1.0, 100.0, false), set(0.8, 125.0, false));
        assert!(compare(&a, &b, &spec(), false).unwrap().iter().all(|r| !r.breach));
        assert!(compare(&a, &b, &spec(), true).unwrap().iter().all(|r| r.breach));
    }

    #[test]
    fn quick_sets_and_missing_values_are_refused_and_nan_breaches() {
        assert!(compare(&set(1.0, 1.0, true), &set(1.0, 1.0, false), &spec(), false).is_err());
        let mut traced = set(1.0, 1.0, false);
        traced.workloads[0].1.clear();
        assert!(compare(&set(1.0, 1.0, false), &traced, &spec(), false).is_err());
        let rows = compare(&set(0.0, 1.0, false), &set(0.0, 1.0, false), &spec(), false).unwrap();
        assert!(rows[0].breach, "0/0 is not agreement");
    }

    #[test]
    fn a_result_set_round_trips_through_its_file() {
        let dir = host::out_dir().join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        let text = "{\"quick\":false,\"traced\":false,\"seed\":1,\"seconds\":15.0,\"workloads\":{\
            \"w\":{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
            \"solve_s\":{\"value\":0.30000000000000004,\"unit\":\"s\"}}}}}";
        std::fs::write(&path, text).unwrap();
        let set = read_set(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(!set.quick && set.all_passed);
        assert_eq!(set.workloads[0].1, vec![("solve_s".to_string(), 0.1 + 0.2)]);
    }
}
