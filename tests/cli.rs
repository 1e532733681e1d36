//! End-to-end tests of the `a64fx-qcs` command-line binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_a64fx-qcs"))
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "command {:?} failed:\nstdout: {}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

fn run_err(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(!out.status.success(), "command {args:?} should fail");
    String::from_utf8(out.stderr).expect("utf8 stderr")
}

#[test]
fn demo_ghz_reports_cat_state() {
    let out = run_ok(&["demo", "ghz", "4", "--probs", "2"]);
    assert!(out.contains("4 qubits, 4 gates"));
    assert!(out.contains("|0000⟩  0.500000"));
    assert!(out.contains("|1111⟩  0.500000"));
}

#[test]
fn demo_with_fused_strategy_and_model() {
    let out = run_ok(&["demo", "qft", "5", "--strategy", "fused:3", "--model"]);
    assert!(out.contains("A64FX model"), "{out}");
    assert!(out.contains("sweeps"));
}

#[test]
fn demo_with_planned_strategy() {
    let out = run_ok(&[
        "demo",
        "qft",
        "6",
        "--strategy",
        "planned:4:3",
        "--threads",
        "2",
        "--probs",
        "1",
    ]);
    assert!(out.contains("sweeps"), "{out}");
}

fn run_ok_env(args: &[&str], envs: &[(&str, &str)]) -> String {
    let mut cmd = bin();
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "command {:?} with env {:?} failed:\nstdout: {}\nstderr: {}",
        args,
        envs,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn auto_strategy_round_trips_through_cli() {
    let out = run_ok(&["demo", "ghz", "4", "--strategy", "auto", "--verbose", "--probs", "2"]);
    assert!(out.contains("strategy:  auto"), "{out}");
    assert!(out.contains("|0000⟩  0.500000"), "{out}");
    assert!(out.contains("|1111⟩  0.500000"), "{out}");
}

#[test]
fn a_leaked_environment_changes_nothing() {
    // Strategy, tracing, backend and transport faults come from flags
    // only: variables of those names, even a malformed one, are inert.
    let leaked = [
        ("QCS_STRATEGY", "auto"),
        ("QCS_TRACE", "1"),
        ("QCS_BACKEND", "scalar"),
        ("QCS_FAULT_SPEC", "bogus"),
    ];
    let args = ["demo", "qft", "8", "--ranks", "2", "--verbose"];
    let out = run_ok_env(&args, &leaked);
    assert!(out.contains("strategy:  naive"), "{out}");
    assert!(out.contains("telemetry: off") && !out.contains("spans"), "{out}");
    // The distributed run prints no timings, so it must match to the byte.
    assert_eq!(out, run_ok(&args));
    // A serial run names the kernel backend it swept with.
    let kernels = |out: &str| {
        let line = out.lines().find(|l| l.starts_with("executed ")).expect("a sweep line");
        line.split("host, ").nth(1).unwrap_or(line).to_string()
    };
    let serial = ["demo", "qft", "8", "--verbose"];
    assert_eq!(kernels(&run_ok_env(&serial, &leaked)), kernels(&run_ok(&serial)));

    // The cost table that prices fusion and `auto` is fixed: a process
    // lowers a circuit to the same program whatever `QCS_CALIBRATE`
    // says, and two unpinned processes agree with each other.
    let program = |out: &str| -> (String, Vec<String>) {
        let sweeps = out.lines().find(|l| l.starts_with("executed ")).expect("a sweep line");
        let sweeps = sweeps.split(" in ").next().unwrap().to_string();
        let probs = out.lines().filter(|l| l.contains('⟩')).map(str::to_string).collect();
        (sweeps, probs)
    };
    for strategy in ["fused:4", "auto"] {
        let args = ["demo", "random", "18", "--verbose", "--probs", "4", "--strategy", strategy];
        let run = |value: Option<&str>| {
            let mut cmd = bin();
            match value {
                Some(v) => cmd.env("QCS_CALIBRATE", v),
                None => cmd.env_remove("QCS_CALIBRATE"),
            };
            let out = cmd.args(args).output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{args:?} under {value:?} failed: {stderr}");
            program(&String::from_utf8(out.stdout).expect("utf8 output"))
        };
        let unset = run(None);
        assert_eq!(unset.1.len(), 4, "{unset:?}");
        assert_eq!(run(None), unset, "{strategy}: a second unpinned process");
        for value in ["analytic", "bogus"] {
            assert_eq!(run(Some(value)), unset, "{strategy} under QCS_CALIBRATE={value}");
        }
    }
}

#[test]
fn a_leaked_environment_leaves_the_server_at_its_defaults() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--verbose"])
        .env("QCS_SERVE_WINDOW_MS", "999")
        .env("QCS_SERVE_QUOTA", "bogus")
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut line = || lines.next().expect("a line").expect("utf8 output");
    let config = line();
    let serving = line();
    let addr = serving.strip_prefix("serving on http://").expect("the bound address");
    let (status, _) =
        a64fx_qcs::serve::client::http_request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    assert!(child.wait().unwrap().success());
    assert_eq!(
        config,
        "serve config: quota=64 max_pending=1024 max_qubits=24 window_ms=0 threads=1 \
         cache=1024 usage=off"
    );
}

#[test]
fn emit_then_run_roundtrip() {
    let qasm = run_ok(&["emit", "ghz", "3"]);
    assert!(qasm.contains("qreg q[3]"));
    assert!(qasm.contains("cx q[0],q[1]"));
    let dir = std::env::temp_dir().join("a64fx_qcs_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ghz3.qasm");
    std::fs::write(&path, &qasm).unwrap();
    let out = run_ok(&["run", path.to_str().unwrap(), "--probs", "2"]);
    assert!(out.contains("|000⟩  0.500000"));
    assert!(out.contains("|111⟩  0.500000"));
}

#[test]
fn distributed_run_reports_communication() {
    let out = run_ok(&["demo", "qft", "7", "--ranks", "4", "--probs", "1"]);
    assert!(out.contains("4 in-process ranks"));
    assert!(out.contains("communication:"));
}

#[test]
fn shots_are_deterministic_for_a_seed() {
    // Compare only the sample lines: the header includes wall time.
    let shots = |out: String| -> Vec<String> {
        out.lines().filter(|l| l.trim_start().starts_with('|')).map(str::to_string).collect()
    };
    let a = shots(run_ok(&["demo", "ghz", "3", "--shots", "50", "--seed", "9"]));
    let b = shots(run_ok(&["demo", "ghz", "3", "--shots", "50", "--seed", "9"]));
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

#[test]
fn bad_strategy_is_a_clean_error() {
    let err = run_err(&["demo", "ghz", "3", "--strategy", "warp9"]);
    assert!(err.contains("unknown strategy"));
}

#[test]
fn too_many_ranks_is_a_clean_error() {
    let err = run_err(&["demo", "ghz", "4", "--ranks", "4"]);
    assert!(err.contains("fewer than 3 local qubits"));
}

/// Exit code 1 and exactly one `error:` line: a typed error reached the
/// user, not a panic (exit code 101, a `panicked at` block).
fn run_one_line_error(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    let err = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert_eq!(out.status.code(), Some(1), "command {args:?}: {err}");
    assert!(err.starts_with("error: ") && err.trim_end().lines().count() == 1, "{err}");
    assert!(!err.contains("panicked"), "{err}");
    err
}

#[test]
fn what_ranks_cannot_run_is_a_one_line_error_from_the_lowering() {
    let dir = std::env::temp_dir().join("a64fx_qcs_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("measured_{}.qasm", std::process::id()));
    std::fs::write(&path, "qreg q[5];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n").unwrap();
    let qasm = path.to_str().unwrap();
    for plan in ["naive", "reorder", "overlap"] {
        let err = run_one_line_error(&["run", qasm, "--ranks", "2", "--dist-plan", plan]);
        assert!(err.contains("measure"), "{err}");
        let err = run_one_line_error(&["run", qasm, "--ranks", "2", "--faults", "default"]);
        assert!(err.contains("measure"), "{err}");
    }
    let err = run_one_line_error(&["demo", "qft", "5", "--ranks", "3"]);
    assert!(err.contains("not a power of two"), "{err}");
    let err = run_one_line_error(&["demo", "qft", "5", "--ranks", "64"]);
    assert!(err.contains("fewer than 3 local qubits"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unwritable_trace_is_an_error_with_and_without_ranks() {
    // The sink creates missing directories; a regular file in the way is
    // what it cannot get past.
    let file = std::env::temp_dir().join(format!("a64fx_qcs_cli_not_a_dir_{}", std::process::id()));
    std::fs::write(&file, b"x").unwrap();
    let trace = file.join("t.jsonl");
    let trace = trace.to_str().unwrap();
    for extra in [&[][..], &["--ranks", "2"], &["--ranks", "2", "--faults", "default"]] {
        let args = [&["demo", "qft", "6", "--trace-out", trace], extra].concat();
        let err = run_one_line_error(&args);
        assert!(err.contains("cannot write trace"), "{args:?}: {err}");
    }
    std::fs::remove_file(&file).unwrap();
}

#[test]
fn bad_qasm_reports_line() {
    let dir = std::env::temp_dir().join("a64fx_qcs_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.qasm");
    std::fs::write(&path, "qreg q[2];\nfrobnicate q[0];\n").unwrap();
    let err = run_err(&["run", path.to_str().unwrap()]);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn help_prints_usage() {
    let out = run_ok(&["--help"]);
    assert!(out.contains("usage:"));
    assert!(out.contains("families:"));
    assert!(out.contains("--trace"));
}

#[test]
fn verbose_prints_the_resolved_configuration() {
    let out = run_ok(&[
        "demo",
        "qft",
        "5",
        "--strategy",
        "fused:3",
        "--threads",
        "2",
        "--schedule",
        "dynamic:32",
        "--verbose",
    ]);
    assert!(out.contains("configuration:"), "{out}");
    assert!(out.contains("strategy:  fused:3"));
    assert!(out.contains("threads:   2"));
    assert!(out.contains("schedule:  dynamic:32"));
}

#[test]
fn trace_out_writes_jsonl_and_reports_span_counts() {
    let dir = std::env::temp_dir().join("a64fx_qcs_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace_cli.jsonl");
    let _ = std::fs::remove_file(&path);
    let out = run_ok(&["demo", "qft", "5", "--trace-out", path.to_str().unwrap()]);
    assert!(out.contains("trace:"), "{out}");
    assert!(out.contains("trace written to"), "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    assert!(lines.next().unwrap().contains("\"type\":\"run\""));
    assert!(lines.next().unwrap().contains("\"type\":\"span\""));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn traced_distributed_run_reports_per_rank_exchanges() {
    let out = run_ok(&["demo", "qft", "7", "--ranks", "2", "--trace"]);
    assert!(out.contains("rank 0:"), "{out}");
    assert!(out.contains("exchange spans"), "{out}");
}

#[test]
fn bad_schedule_is_a_clean_error() {
    let err = run_err(&["demo", "ghz", "3", "--schedule", "sometimes"]);
    assert!(err.contains("--schedule"), "{err}");
}

#[test]
fn zero_threads_is_a_clean_error() {
    let err = run_err(&["demo", "ghz", "3", "--threads", "0"]);
    assert!(err.contains("at least 1"), "{err}");
}

#[test]
fn batched_demo_reports_throughput_and_matches_single_run() {
    let out = run_ok(&["demo", "ghz", "4", "--batch", "4", "--probs", "2"]);
    assert!(out.contains("4 members"), "{out}");
    assert!(out.contains("circuits/s"), "{out}");
    // Member 0 feeds --probs exactly like a single run's state would.
    assert!(out.contains("|0000⟩  0.500000"), "{out}");
    assert!(out.contains("|1111⟩  0.500000"), "{out}");
}

#[test]
fn batched_demo_with_model_prints_the_amortization_column() {
    let out = run_ok(&["demo", "qft", "6", "--batch", "8", "--model"]);
    assert!(out.contains("circuits/s batched member-major"), "{out}");
    assert!(out.contains("gate-major"), "{out}");
    assert!(out.contains("one region per batch"), "{out}");
}

#[test]
fn trajectories_demo_reports_noise_events() {
    let out = run_ok(&[
        "demo",
        "ghz",
        "4",
        "--trajectories",
        "5",
        "--noise",
        "depolarizing:0.05",
        "--seed",
        "3",
    ]);
    assert!(out.contains("sampled 5 trajectories"), "{out}");
    assert!(out.contains("error events total"), "{out}");
}

#[test]
fn zero_batch_is_a_clean_error() {
    let err = run_err(&["demo", "ghz", "3", "--batch", "0"]);
    assert!(err.contains("at least 1 member"), "{err}");
}

#[test]
fn oversized_batch_is_a_clean_error() {
    let err = run_err(&["demo", "ghz", "3", "--batch", "5000"]);
    assert!(err.contains("exceeds the limit"), "{err}");
}

#[test]
fn batch_with_ranks_is_a_clean_error() {
    let err = run_err(&["demo", "qft", "8", "--batch", "2", "--ranks", "2"]);
    assert!(err.contains("--ranks"), "{err}");
}

#[test]
fn engine_flags_with_ranks_are_a_clean_error() {
    // The ranks would ignore them: a one-line error naming both flags.
    for (flag, value) in [
        ("--strategy", "fused:4"),
        ("--threads", "2"),
        ("--backend", "scalar"),
        ("--schedule", "dynamic"),
    ] {
        let err = run_one_line_error(&["demo", "random", "6", flag, value, "--ranks", "2"]);
        assert!(err.contains(flag) && err.contains("--ranks"), "{err}");
    }
    // Their defaults, spelled out, still run.
    let defaults =
        ["--strategy", "naive", "--threads", "1", "--backend", "simd", "--schedule", "static"];
    let out =
        run_ok(&[&["demo", "random", "6", "--ranks", "2", "--probs", "2"][..], &defaults].concat());
    assert!(out.contains("2 in-process ranks"), "{out}");
}

#[test]
fn trajectories_without_noise_is_a_clean_error() {
    let err = run_err(&["demo", "ghz", "3", "--trajectories", "4"]);
    assert!(err.contains("--noise"), "{err}");
}

#[test]
fn zero_trajectories_is_a_clean_error() {
    let err = run_err(&["demo", "ghz", "3", "--trajectories", "0", "--noise", "bitflip:0.1"]);
    assert!(err.contains("at least 1 trajectory"), "{err}");
}

#[test]
fn noise_without_trajectories_is_a_clean_error() {
    let err = run_err(&["demo", "ghz", "3", "--noise", "bitflip:0.1"]);
    assert!(err.contains("--trajectories"), "{err}");
}

#[test]
fn bad_noise_spec_is_a_clean_error() {
    let err = run_err(&["demo", "ghz", "3", "--trajectories", "2", "--noise", "cosmic:0.5"]);
    assert!(err.contains("unknown channel"), "{err}");
    let err = run_err(&["demo", "ghz", "3", "--trajectories", "2", "--noise", "bitflip:1.5"]);
    assert!(err.contains("outside [0, 1]"), "{err}");
}

#[test]
fn batch_with_integrity_is_a_clean_error() {
    // Per-run rollback state does not compose with batching;
    // the engine rejects the combination with an explanation.
    let err = run_err(&["demo", "ghz", "4", "--batch", "2", "--integrity", "check"]);
    assert!(err.contains("do not compose with"), "{err}");
}

#[test]
fn batched_trace_out_writes_all_member_traces() {
    let dir = std::env::temp_dir().join("a64fx_qcs_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("batch_trace_cli.jsonl");
    let _ = std::fs::remove_file(&path);
    let out = run_ok(&["demo", "qft", "4", "--batch", "3", "--trace-out", path.to_str().unwrap()]);
    assert!(out.contains("3 member traces"), "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    let runs = text.lines().filter(|l| l.contains("\"type\":\"run\"")).count();
    assert_eq!(runs, 3, "one run header per member:\n{text}");
    for m in 0..3 {
        assert!(text.contains(&format!("member={m}")), "member {m} label missing");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn vqe_runs_its_sweeps_under_the_configured_strategy() {
    let args = ["vqe", "4", "--optimizer", "gd", "--iters", "3", "--seed", "3"];
    let naive = run_ok(&args);
    assert!(naive.contains("batched member-major"), "{naive}");
    let fused = run_ok(&[&args[..], &["--strategy", "fused:3"]].concat());
    // Same optimizer trajectory to the printed digits, whichever
    // lowering the sweeps ran under.
    let energies = |out: &str| -> Vec<String> {
        out.lines().filter(|l| l.contains("iter ")).map(|l| l[..l.len() - 3].to_string()).collect()
    };
    assert_eq!(energies(&naive).len(), 3, "{naive}");
    assert_eq!(energies(&naive), energies(&fused));
}

#[test]
fn vqe_with_a_non_finite_step_size_is_a_clean_error() {
    let err = run_err(&["vqe", "4", "--optimizer", "gd", "--lr", "nan"]);
    assert!(err.contains("`lr` must be finite"), "{err}");
    assert_eq!(err.lines().filter(|l| l.starts_with("error:")).count(), 1, "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let err = run_err(&["vqe", "4", "--optimizer", "spsa", "--spsa-a", "inf"]);
    assert!(err.contains("`a` must be finite") && !err.contains("panicked"), "{err}");
}
