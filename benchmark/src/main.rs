//! One benchmark for the whole stack.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one workload in this process; the last line of stdout is the
//!     result object the driver reads
//! benchmark all [--seed N] [--seconds S] [--trace] [--quick]
//!     every workload, one process each; writes a result set
//! benchmark aa [--sets 2] [--seed N] [--seconds S] [--quick]
//!     the whole suite `sets` times back to back, then `compare`
//! benchmark compare <a.json> <b.json>
//!     two result sets against the bounds in BENCHMARK.json
//! benchmark calibrate [analytic]
//!     seconds the once-per-process calibration takes; a run starts
//!     this in fresh processes to sample it more than once
//! ```

mod compare;
mod heap;
mod host;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use json::{num, quote};
use spec::{MetricDef, Spec};
use workloads::{Ctx, Layers, Measured, Ops};

/// `|sim.unattributed_frac|` above which the traced pass warns that
/// its replay does not account for the opaque call.
const ATTRIBUTION_TOLERANCE: f64 = 0.15;

/// What one workload run reports: the object on the last line.
pub struct Report {
    pub correct: bool,
    pub ops: Ops,
    /// `(name, value, unit)` in `BENCHMARK.json` order; no value where
    /// the workload bypasses the metric's layer.
    pub metrics: Vec<(String, Option<f64>, String)>,
}

impl Report {
    /// The result object. The driver wants a number for every listed
    /// metric on every workload, so a bypassed layer reads 0 here (and
    /// `bypassed` in the lines above it).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(name),
                    num(value.unwrap_or(0.0)),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.ops.attempted.max(1),
            self.ops.failed,
            metrics.join(",")
        )
    }

    /// A failing oracle or a failed operation makes the command fail.
    pub fn exit_code(&self) -> u8 {
        if self.correct && self.ops.failed == 0 {
            0
        } else {
            1
        }
    }

    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            match value {
                Some(v) => println!("{name} = {} {unit}", num(*v)),
                None => println!("{name} = bypassed"),
            }
        }
        println!("ops_attempted = {} count", self.ops.attempted);
        println!("ops_failed = {} count", self.ops.failed);
    }
}

/// Pair every metric `defs` lists with the value measured. `expected`
/// says which of them this workload measures: one of those without a
/// value, or a value for any other name, is a harness bug.
fn fill(
    defs: &[MetricDef],
    values: &[(String, f64)],
    expected: impl Fn(&str) -> bool,
) -> Result<Vec<(String, Option<f64>, String)>, String> {
    if let Some((stray, _)) = values.iter().find(|(n, _)| !defs.iter().any(|d| &d.name == n)) {
        return Err(format!("measured '{stray}', which BENCHMARK.json does not list"));
    }
    defs.iter()
        .map(|d| {
            let value = values.iter().find(|(n, _)| n == &d.name).map(|(_, v)| *v);
            match (value, expected(&d.name)) {
                (Some(_), false) => {
                    Err(format!("measured '{}' on a workload that bypasses it", d.name))
                }
                (None, true) => Err(format!("no value for '{}'", d.name)),
                _ => Ok((d.name.clone(), value, d.unit.clone())),
            }
        })
        .collect()
}

/// Processes the calibration is timed in: this one and fresh children.
/// It runs once per process, so one run can only sample it this way,
/// and a single ~0.1 s sample is what a burst of host noise hits.
const CALIBRATION_SAMPLES: usize = 5;

/// The end-to-end metrics of one run, every one a median or a total
/// over all the operations of the window, so that a change which slows
/// a share of them shows. `solve_s` is the operation on a ready engine;
/// a *job* is one unit of work from nothing, the set-up pass and the
/// operation after it, so work moved from the call into construction
/// leaves `job_p50_ms` and `jobs_per_s` where they were. Peak memory is
/// the median over the operations' peaks: how far two ranks' largest
/// blocks overlap is thread timing, and the odd operation in which they
/// overlap more must not set the number.
fn end_to_end(m: &Measured, calibrations: &[f64]) -> Vec<(String, f64)> {
    let median = |xs: &[f64]| stats::median(xs).expect("the window ran at least two operations");
    let job_s: Vec<f64> = m.setups.iter().zip(&m.reps).map(|(setup, op)| setup + op).collect();
    let job_p50_ms = if m.unit_latencies_ms.is_empty() {
        median(&job_s) * 1e3
    } else {
        median(&m.unit_latencies_ms)
    };
    vec![
        ("setup_s".to_string(), m.gen_s + median(calibrations) + median(&m.setups)),
        ("solve_s".to_string(), median(&m.reps)),
        ("jobs_per_s".to_string(), m.units_per_op * job_s.len() as f64 / job_s.iter().sum::<f64>()),
        ("job_p50_ms".to_string(), job_p50_ms),
        ("peak_heap_mib".to_string(), median(&m.op_peaks_mib)),
    ]
}

struct RunArgs {
    workload: String,
    ctx: Ctx,
    trace: bool,
}

/// One workload in this process.
fn run_one(args: &RunArgs, spec: &Spec) -> Result<Report, String> {
    let entry = workloads::find(&args.workload)?;
    let (name, threads) = (entry.name, entry.threads);
    if let Some(why) = host::refusal_here(threads) {
        return Err(format!("refusing to measure: {why}"));
    }
    let calibrate_s = workloads::force_calibration(entry.analytic_calibration)?;
    let facts = |state_bytes, window_seconds, reps| host::RunFacts {
        workload: name,
        why: spec.why(name),
        seed: args.ctx.seed,
        quick: args.ctx.quick,
        traced: args.trace,
        threads,
        analytic_calibration: entry.analytic_calibration,
        state_bytes,
        window_seconds,
        reps,
    };

    if !args.trace {
        let mut calibrations = vec![calibrate_s];
        let children = if args.ctx.quick { 1 } else { CALIBRATION_SAMPLES - 1 };
        for _ in 0..children {
            calibrations.push(host::calibrate_in_child(entry.analytic_calibration)?);
        }
        let m = (entry.measure)(&args.ctx)?;
        println!("host: {}", host::facts_json(&facts(m.state_bytes, m.window_s, m.reps.len())));
        if let Err(why) = &m.oracle {
            println!("oracle FAILED: {why}");
        }
        println!(
            "harness: reps={} rep_best_s={} rep_max_over_min={} warmup_s={} latency_samples={}",
            m.reps.len(),
            num(stats::best_of(&m.reps).unwrap_or(f64::NAN)),
            num(stats::max_over_min(&m.reps).unwrap_or(f64::NAN)),
            num(m.warmup_s),
            if m.unit_latencies_ms.is_empty() { m.reps.len() } else { m.unit_latencies_ms.len() },
        );
        // Every sample behind the estimates, so the noise stays visible.
        println!("reps_s: {:?}", m.reps);
        println!("setups_s: {:?}", m.setups);
        println!("calibrations_s: {calibrations:?}");
        println!("op_peaks_mib: {:?}", m.op_peaks_mib);
        let report = Report {
            correct: m.oracle.is_ok(),
            ops: m.ops,
            metrics: fill(&spec.end_to_end, &end_to_end(&m, &calibrations), |_| true)?,
        };
        report.print();
        return Ok(report);
    }

    let tracer = trace::Tracer::new();
    let mut layers: Layers = (entry.trace)(&args.ctx, &tracer)?;
    layers.set("calibrate.calibrate_s", calibrate_s);
    layers.set("harness.peak_rss_mib", host::peak_rss_mib());
    let spans = tracer.spans();
    let path = host::out_dir().join(format!("{name}.trace.jsonl"));
    trace::write_jsonl(&path, name, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("host: {}", host::facts_json(&facts(layers.state_bytes, args.ctx.seconds, 0)));
    println!("trace: {} spans -> {}", spans.len(), path.display());
    for (layer, seconds) in trace::self_seconds_by_layer(&spans) {
        println!("self time: {layer} {} s", num(seconds));
    }
    for w in &layers.warnings {
        println!("warning: {w}");
    }
    if let Some((_, frac)) = layers.values.iter().find(|(n, _)| n == "sim.unattributed_frac") {
        if frac.abs() > ATTRIBUTION_TOLERANCE {
            println!(
                "warning: the replayed layers account for {:.0} % of the untraced solve; \
                 more than {:.0} % is unattributed",
                (1.0 - frac) * 100.0,
                ATTRIBUTION_TOLERANCE * 100.0
            );
        }
    }
    let oracle = layers.oracle.clone().unwrap_or(Ok(()));
    if let Err(why) = &oracle {
        println!("oracle FAILED: {why}");
    }
    let report = Report {
        correct: oracle.is_ok(),
        ops: layers.ops,
        metrics: fill(&spec.per_layer, &layers.values, |metric| entry.measures(metric))?,
    };
    report.print();
    Ok(report)
}

/// `--name value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str).filter(|v| !v.starts_with("--"))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(text) => text.parse().map_err(|_| format!("{name}: cannot read '{text}'")),
            None => Ok(default),
        }
    }

    fn ctx(&self, spec: &Spec) -> Result<Ctx, String> {
        let seconds: f64 = self.parsed("--seconds", spec.run_seconds)?;
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!("--seconds: {seconds} is not a duration"));
        }
        let quick = self.has("--quick");
        // A smoke run is two repetitions however long they take.
        Ok(Ctx {
            seed: self.parsed("--seed", 1)?,
            seconds: if quick { 0.0 } else { seconds },
            quick,
        })
    }

    /// `--trace`, `--trace 1` and `--trace 0`.
    fn trace(&self) -> Result<bool, String> {
        match self.value("--trace") {
            Some("0") => Ok(false),
            Some("1") | None => Ok(self.has("--trace")),
            Some(other) => Err(format!("--trace: expected 0 or 1, got '{other}'")),
        }
    }
}

fn dispatch(argv: &[String]) -> Result<u8, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("all" | "aa" | "compare" | "calibrate")) => (c, &argv[1..]),
        _ => ("run", argv),
    };
    if command == "calibrate" {
        // What `host::calibrate_in_child` starts: one more sample of the
        // once-per-process calibration.
        println!("{}", num(workloads::force_calibration(rest == ["analytic"])?));
        return Ok(0);
    }
    let flags = Flags(rest.to_vec());
    let spec = Spec::load()?;
    match command {
        "run" => {
            let workload = flags.value("--workload").ok_or("--workload <name> is required")?;
            let args = RunArgs {
                workload: workload.to_string(),
                ctx: flags.ctx(&spec)?,
                trace: flags.trace()?,
            };
            let report = run_one(&args, &spec)?;
            // The driver reads the last line of stdout.
            println!("{}", report.to_json());
            Ok(report.exit_code())
        }
        "all" => {
            let set = compare::run_all(&flags.ctx(&spec)?, flags.trace()?)?;
            Ok(if set.all_passed { 0 } else { 1 })
        }
        "aa" => compare::run_aa(&flags.ctx(&spec)?, flags.parsed("--sets", 2)?, &spec),
        "compare" => match rest {
            [a, b] => compare::compare_files(a.as_ref(), b.as_ref(), &spec),
            _ => Err("compare takes two result sets: compare <a.json> <b.json>".to_string()),
        },
        _ => unreachable!("command was matched above"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => ExitCode::from(code),
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(correct: bool, failed: u64) -> Report {
        Report {
            correct,
            ops: Ops { attempted: 8, failed },
            metrics: vec![
                ("solve_s".to_string(), Some(0.1 + 0.2), "s".to_string()),
                ("serve.batches".to_string(), None, "count".to_string()),
            ],
        }
    }

    #[test]
    fn a_failing_oracle_or_operation_fails_the_command() {
        assert_eq!(report(true, 0).exit_code(), 0);
        assert_ne!(report(false, 0).exit_code(), 0);
        assert_ne!(report(true, 1).exit_code(), 0);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys_and_full_digits() {
        let v = json::parse(&report(true, 0).to_json()).unwrap();
        let keys: Vec<&str> = json::as_obj(&v).unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "in the map's order");
        let metric = |name: &str| v.get("metrics").unwrap().get(name).unwrap().clone();
        assert_eq!(metric("solve_s").get("value").unwrap().as_f64(), Some(0.1 + 0.2));
        assert_eq!(metric("solve_s").get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(metric("serve.batches").get("value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn a_workload_reports_exactly_the_metrics_it_is_expected_to() {
        let def = |name: &str| MetricDef {
            name: name.to_string(),
            unit: "s".to_string(),
            higher_is_better: false,
            bound: None,
        };
        let defs = [def("a"), def("b")];
        let b = [("b".to_string(), 2.0)];
        let got = fill(&defs, &b, |m| m == "b").unwrap();
        assert_eq!(got[0], ("a".to_string(), None, "s".to_string()), "bypassed, not zero");
        assert_eq!(got[1].1, Some(2.0));
        assert!(fill(&defs, &b, |_| true).is_err(), "an expected metric nobody set");
        assert!(fill(&defs, &b, |_| false).is_err(), "a value on a workload that bypasses it");
        assert!(fill(&defs, &[("c".to_string(), 1.0)], |_| false).is_err(), "an unlisted name");
    }

    #[test]
    fn medians_and_totals_over_every_operation_and_jobs_include_their_set_up() {
        let measured = |reps: Vec<f64>| Measured {
            state_bytes: 0,
            units_per_op: 10.0,
            gen_s: 0.5,
            warmup_s: 0.0,
            setups: vec![0.25; reps.len()],
            reps,
            unit_latencies_ms: Vec::new(),
            window_s: 0.0,
            ops: Ops::default(),
            op_peaks_mib: vec![3.0, 4.0, 3.5, 3.0, 3.0],
            oracle: Ok(()),
        };
        let value = |m: &Measured, name: &str| {
            end_to_end(m, &[0.125, 9.0, 0.125]).into_iter().find(|(n, _)| n == name).unwrap().1
        };
        let even = measured(vec![1.0; 5]);
        assert_eq!(value(&even, "solve_s"), 1.0);
        assert_eq!(value(&even, "jobs_per_s"), 10.0 / 1.25);
        assert_eq!(value(&even, "job_p50_ms"), 1250.0);
        assert_eq!(value(&even, "setup_s"), 0.5 + 0.125 + 0.25, "one slow calibration is ignored");
        assert_eq!(value(&even, "peak_heap_mib"), 3.0, "one operation's odd peak is ignored");
        // Three of five operations twice as slow: every timing moves.
        let bimodal = measured(vec![1.0, 2.0, 1.0, 2.0, 2.0]);
        assert_eq!(value(&bimodal, "solve_s"), 2.0);
        assert_eq!(value(&bimodal, "jobs_per_s"), 50.0 / 9.25);
        assert_eq!(value(&bimodal, "job_p50_ms"), 2250.0);
        // The server's jobs carry their own latencies.
        let mut served = measured(vec![1.0; 5]);
        served.unit_latencies_ms = vec![9.0, 11.0, 10.0];
        assert_eq!(value(&served, "job_p50_ms"), 10.0);
    }

    #[test]
    fn flags_read_the_drivers_form_and_the_bare_flag() {
        let f = |args: &[&str]| Flags(args.iter().map(|a| a.to_string()).collect());
        assert!(!f(&["--workload", "w", "--trace", "0"]).trace().unwrap());
        assert!(f(&["--trace", "1"]).trace().unwrap());
        assert!(f(&["--seed", "3", "--trace"]).trace().unwrap());
        assert!(f(&["--trace", "--quick"]).trace().unwrap());
        assert!(f(&["--trace", "2"]).trace().is_err());
        assert_eq!(f(&["--seed", "3"]).parsed("--seed", 1u64), Ok(3));
        assert!(f(&["--seed", "x"]).parsed("--seed", 1u64).is_err());
    }
}
