//! Facade-level telemetry integration: tracing must be an observer —
//! identical physics, faithful accounting, and a JSONL artifact that
//! reproduces the in-memory trace.

use a64fx_qcs::core::library;
use a64fx_qcs::core::prelude::*;
use a64fx_qcs::core::telemetry::drift::DriftReport;
use a64fx_qcs::core::telemetry::sink::read_jsonl;

const EPS: f64 = 1e-12;

fn run_with(config: SimConfig, circuit: &Circuit) -> (StateVector, RunReport) {
    let sim = config.build().unwrap();
    let mut s = StateVector::zero(circuit.n_qubits());
    let report = sim.run(circuit, &mut s).unwrap();
    (s, report)
}

#[test]
fn tracing_never_changes_the_state() {
    let circuit = library::random_circuit(9, 14, 21);
    for strategy in [
        Strategy::Naive,
        Strategy::Fused { max_k: 4 },
        Strategy::Blocked { block_qubits: 5 },
        Strategy::Planned { block_qubits: 5, max_k: 3 },
    ] {
        let base = SimConfig::new().strategy(strategy);
        let (plain, plain_report) = run_with(base.clone(), &circuit);
        let (traced, traced_report) = run_with(base.traced(), &circuit);
        assert!(
            traced.approx_eq(&plain, EPS),
            "{strategy:?}: tracing changed the state (max diff {})",
            traced.max_abs_diff(&plain)
        );
        assert!(plain_report.trace.is_none());
        let trace = traced_report.trace.expect("traced run returns a trace");
        assert_eq!(trace.spans.len(), traced_report.sweeps);
        assert!(trace.summary.bytes > 0);
    }
}

#[test]
fn trace_survives_the_jsonl_round_trip() {
    let circuit = library::qft(8);
    let dir = std::env::temp_dir().join("a64fx_qcs_telemetry_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("roundtrip_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let config = SimConfig::new()
        .strategy(Strategy::Fused { max_k: 3 })
        .telemetry(TelemetryConfig::on().with_output(&path).with_label("roundtrip"));
    let (_, report) = run_with(config, &circuit);
    let mem = report.trace.unwrap();

    let disk = read_jsonl(&path).unwrap();
    assert_eq!(disk.len(), 1);
    assert_eq!(disk[0].meta, mem.meta);
    assert_eq!(disk[0].spans, mem.spans);
    assert_eq!(disk[0].summary.bytes, mem.summary.bytes);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn drift_report_prices_every_span_against_the_model() {
    let circuit = library::qft(9);
    let (_, report) = run_with(SimConfig::new().traced(), &circuit);
    let trace = report.trace.unwrap();
    let drift = DriftReport::from_trace(&trace);
    // Every sweep is a compute span with a model prediction behind it.
    assert_eq!(drift.compute.count, trace.spans.len());
    assert!(drift.compute.model_ns > 0.0);
    assert!(drift.compute_ratio().is_some());
    let table = drift.to_table();
    assert!(table.contains("total:compute"), "{table}");
}

#[test]
fn threaded_tracing_is_also_physics_neutral() {
    let circuit = library::random_circuit(10, 10, 5);
    let base = SimConfig::new().threads(3).schedule(Schedule::Dynamic { chunk: 64 });
    let (plain, _) = run_with(base.clone(), &circuit);
    let (traced, report) = run_with(base.traced(), &circuit);
    assert!(traced.approx_eq(&plain, EPS));
    let trace = report.trace.unwrap();
    assert_eq!(trace.summary.busy_ns_per_thread.len(), 3);
    assert!(trace.summary.busy_ns_per_thread.iter().sum::<u64>() > 0);
}
