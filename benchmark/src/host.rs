//! Host facts stamped on every output, and the conditions under which
//! the harness refuses to measure at all.

use std::path::{Path, PathBuf};

use crate::json::{num, quote};

/// The benchmark package's own directory (`benchmark/`), fixed at
/// build time: the driver builds and runs in the same checkout.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Why this process must not be measured, if anything: a different
/// program (debug build, `QCS_*` overrides) or an oversubscribed host
/// would produce numbers that look comparable and are not.
pub fn refusal(
    debug_build: bool,
    thread_budget: usize,
    nproc: usize,
    env_keys: &[String],
) -> Option<String> {
    if debug_build {
        return Some("debug build: run with `cargo run --release`".to_string());
    }
    let overrides: Vec<&str> =
        env_keys.iter().map(String::as_str).filter(|k| k.starts_with("QCS_")).collect();
    if !overrides.is_empty() {
        return Some(format!(
            "{} set in the environment: the library would run a different program",
            overrides.join(", ")
        ));
    }
    if thread_budget > nproc {
        return Some(format!("workload needs {thread_budget} threads, host has {nproc}"));
    }
    None
}

/// [`refusal`] for this process.
pub fn refusal_here(thread_budget: usize) -> Option<String> {
    let keys: Vec<String> =
        std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()).collect();
    refusal(cfg!(debug_assertions), thread_budget, nproc(), &keys)
}

/// Time the once-per-process calibration in a fresh process, pinned
/// to its analytic constants or not as in this one: this binary's
/// `calibrate` subcommand. Waits for the child to end.
pub fn calibrate_in_child(analytic: bool) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("calibrate")
        .args(analytic.then_some("analytic"))
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("calibration child: cannot start: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(seconds) if out.status.success() => Ok(seconds),
        _ => Err(format!("calibration child: {} and '{}'", out.status, text.trim())),
    }
}

/// High-water resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn read_trim(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// `(level, type, size)` per cache of cpu0, from sysfs.
fn caches() -> Vec<(String, String, String)> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let (Some(level), Some(kind), Some(size)) = (
            read_trim(dir.join("level")),
            read_trim(dir.join("type")),
            read_trim(dir.join("size")),
        ) else {
            continue;
        };
        out.push((level, kind, size));
    }
    out
}

/// The commit of the enclosing git checkout, read from `.git` without
/// spawning git; the driver's checkout is not a repository.
fn commit() -> String {
    let git = bench_dir().join("../.git");
    let Some(head) = read_trim(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read_trim(git.join(reference)) {
        return hash;
    }
    read_trim(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// Facts of one workload run that the host block carries beside the
/// machine's.
pub struct RunFacts<'a> {
    pub workload: &'a str,
    pub why: &'a str,
    pub seed: u64,
    pub quick: bool,
    pub traced: bool,
    pub threads: usize,
    /// The workload pinned the calibration to its analytic constants.
    pub analytic_calibration: bool,
    pub state_bytes: u64,
    pub window_seconds: f64,
    pub reps: usize,
}

/// The host-facts block as one JSON object.
pub fn facts_json(run: &RunFacts) -> String {
    let caches: Vec<String> = caches()
        .iter()
        .map(|(level, kind, size)| {
            format!("{{\"level\":{level},\"type\":{},\"size\":{}}}", quote(kind), quote(size))
        })
        .collect();
    format!(
        "{{\"workload\":{},\"why\":{},\"seed\":{},\"quick\":{},\"traced\":{},\"threads\":{},\
         \"calibration\":{},\"state_bytes\":{},\"window_seconds\":{},\"reps\":{},\"commit\":{},\"rustc\":{},\
         \"profile\":{{\"release\":true,\"debug_assertions\":{},\"codegen_units\":1,\"lto\":\"thin\"}},\
         \"nproc\":{},\"cpu\":{},\"caches_cpu0\":[{}],\"l3_note\":\"L3 is shared host-wide\",\
         \"kernel_backend\":{}}}",
        quote(run.workload),
        quote(run.why),
        run.seed,
        run.quick,
        run.traced,
        run.threads,
        quote(if run.analytic_calibration { "analytic" } else { "measured" }),
        run.state_bytes,
        num(run.window_seconds),
        run.reps,
        quote(&commit()),
        quote(&rustc_version()),
        cfg!(debug_assertions),
        nproc(),
        quote(&cpu_model()),
        caches.join(","),
        quote(a64fx_qcs::core::kernels::simd::active().name),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(keys: &[&str]) -> Vec<String> {
        keys.iter().map(|k| k.to_string()).collect()
    }

    #[test]
    fn measures_a_release_build_on_a_clean_environment() {
        assert_eq!(refusal(false, 2, 2, &keys(&["PATH", "HOME", "CARGO_TARGET_DIR"])), None);
    }

    #[test]
    fn refuses_debug_builds_library_overrides_and_oversubscription() {
        assert!(refusal(true, 1, 2, &[]).unwrap().contains("debug build"));
        let why = refusal(false, 1, 2, &keys(&["PATH", "QCS_BACKEND", "QCS_SERVE_WINDOW_MS"]));
        let why = why.unwrap();
        assert!(why.contains("QCS_BACKEND") && why.contains("QCS_SERVE_WINDOW_MS"));
        assert!(refusal(false, 3, 2, &[]).unwrap().contains("needs 3 threads"));
    }

    #[test]
    fn peak_rss_reads_this_process() {
        assert!(peak_rss_mib() > 0.5);
    }
}
