//! E4 — Circuit-level performance and the fusion ablation.
//!
//! Whole-circuit wall time for QFT, random circuits, and quantum volume
//! under the three execution strategies, sweeping the fusion width k.
//! Expected shape: fused < naive on deep circuits, with an optimum
//! around k = 3–5 (past it, the 2^k matrix FLOPs outgrow the bandwidth
//! savings); sweep counts explain the gap.

use qcs_bench::{checksum, fmt_secs, time_best, Table};
use qcs_core::circuit::Circuit;
use qcs_core::config::SimConfig;
use qcs_core::library;
use qcs_core::sim::Strategy;
use qcs_core::state::StateVector;
use qcs_core::telemetry::TelemetryConfig;

fn measure(c: &Circuit, strat: Strategy) -> (f64, usize) {
    let sim = SimConfig::new().strategy(strat).build().unwrap();
    let mut sweeps = 0;
    let secs = time_best(2, || {
        let mut s = StateVector::zero(c.n_qubits());
        let report = sim.run(c, &mut s).unwrap();
        sweeps = report.sweeps;
        std::hint::black_box(checksum(s.amplitudes()));
    });
    (secs, sweeps)
}

fn bench_circuit(name: &str, c: &Circuit) {
    println!();
    println!("E4: {name} — n = {}, {} gates, depth {}", c.n_qubits(), c.len(), c.depth());
    let mut table = Table::new(&["strategy", "sweeps", "time", "vs naive"]);
    let (naive_secs, naive_sweeps) = measure(c, Strategy::Naive);
    table.row(&[
        "naive (QuEST-like)".into(),
        naive_sweeps.to_string(),
        fmt_secs(naive_secs),
        "1.00×".into(),
    ]);
    for k in [2u32, 3, 4, 5] {
        let (secs, sweeps) = measure(c, Strategy::Fused { max_k: k });
        table.row(&[
            format!("fused k={k} (Aer-like)"),
            sweeps.to_string(),
            fmt_secs(secs),
            format!("{:.2}×", naive_secs / secs),
        ]);
    }
    let (secs, sweeps) = measure(c, Strategy::Blocked { block_qubits: 14 });
    table.row(&[
        "blocked (2^14 amps)".into(),
        sweeps.to_string(),
        fmt_secs(secs),
        format!("{:.2}×", naive_secs / secs),
    ]);
    table.print();
}

/// Paper-scale (memory-bound) comparison on the A64FX model only — the
/// host runs its measurements at cache-resident sizes, where a block's
/// FLOPs are not hidden behind memory; at 2^26 amplitudes they are.
fn model_at_scale(name: &str, c: &Circuit) {
    use a64fx_model::timing::ExecConfig;
    use a64fx_model::ChipParams;
    use qcs_core::perf::predict;
    use qcs_core::program::Program;

    let chip = ChipParams::a64fx();
    let cfg = ExecConfig::full_chip();
    println!();
    println!("E4 (modelled at n = {}): {name} — {} gates", c.n_qubits(), c.len());
    let mut table = Table::new(&["strategy", "sweeps", "model time", "vs naive", "HBM GiB"]);
    let naive = predict(&chip, &cfg, &Program::per_gate(c));
    table.row(&[
        "naive".into(),
        naive.sweeps.to_string(),
        fmt_secs(naive.seconds),
        "1.00×".into(),
        format!("{:.1}", naive.mem_bytes as f64 / (1u64 << 30) as f64),
    ]);
    for k in [2u32, 3, 4, 5] {
        let fused = predict(&chip, &cfg, &Program::greedy_fused(c, k));
        table.row(&[
            format!("fused k={k}"),
            fused.sweeps.to_string(),
            fmt_secs(fused.seconds),
            format!("{:.2}×", naive.seconds / fused.seconds),
            format!("{:.1}", fused.mem_bytes as f64 / (1u64 << 30) as f64),
        ]);
    }
    table.print();
}

/// Re-price one recorded trace at the HBM-bound (paper-scale) regime:
/// every span carries the traffic it moved (bytes, flops, amplitudes),
/// so its cost at full-chip roofs is derivable from the artifact alone —
/// no re-simulation, no circuit in hand.
fn hbm_bound_seconds(t: &qcs_core::telemetry::Trace) -> f64 {
    use a64fx_model::timing::{predict, ExecConfig, KernelProfile};
    use a64fx_model::traffic::KernelKind;
    use a64fx_model::ChipParams;
    use qcs_core::perf::estimate_instructions;
    use qcs_core::telemetry::SpanKind;

    let chip = ChipParams::a64fx();
    let cfg = ExecConfig::full_chip();
    t.spans
        .iter()
        .map(|s| {
            let kind = match s.kind {
                SpanKind::Kernel(k) => k,
                SpanKind::Block { k, .. } => KernelKind::FusedDense { k },
                SpanKind::Exchange(_) | SpanKind::Reduce { .. } | SpanKind::Measure => return 0.0,
            };
            let profile = KernelProfile {
                flops: s.flops,
                mem_bytes: s.bytes,
                l2_bytes: s.bytes,
                instructions: estimate_instructions(kind, s.amps, chip.simd_bits),
                gather_scatter: 0,
            };
            predict(&chip, &profile, &cfg).seconds
        })
        .sum()
}

/// The fusion ablation re-derived from telemetry alone. Each run
/// records per-sweep spans — priced against the A64FX model at record
/// time — into one JSONL file; the optimum k is then recovered by
/// *reading the file back*, so the claim is reproducible from the
/// artifact without re-running anything. The recorded `model` column
/// respects cache residency at the host's n (compute-shaped), while the
/// `@scale` column re-prices each span's recorded traffic at the HBM
/// roof — the paper's regime, where the k ≈ 4 optimum emerges.
fn traced_fusion_sweep(name: &str, c: &Circuit) {
    use a64fx_model::timing::ExecConfig;
    use a64fx_model::ChipParams;
    use qcs_core::telemetry::drift::DriftReport;
    use qcs_core::telemetry::sink::read_jsonl;

    let path = std::path::Path::new("results/trace_e4.jsonl");
    let _ = std::fs::remove_file(path);

    let mut runs: Vec<(String, Strategy)> = vec![("naive".into(), Strategy::Naive)];
    for k in [2u32, 3, 4, 5] {
        runs.push((format!("k={k}"), Strategy::Fused { max_k: k }));
    }
    for (label, strat) in &runs {
        let sim = SimConfig::new()
            .strategy(*strat)
            .model(ChipParams::a64fx(), ExecConfig::full_chip())
            .telemetry(
                TelemetryConfig::on().with_output(path).appending(true).with_label(label.clone()),
            )
            .build()
            .unwrap();
        let mut s = StateVector::zero(c.n_qubits());
        sim.run(c, &mut s).unwrap();
        std::hint::black_box(checksum(s.amplitudes()));
    }

    println!();
    println!("E4 (trace-derived): {name} — n = {}, from {}", c.n_qubits(), path.display());
    let traces = read_jsonl(path).expect("trace file written above");
    let mut table =
        Table::new(&["run", "spans", "measured", "model", "drift", "@scale", "HBM MiB"]);
    let mut best: Option<(String, f64)> = None;
    for t in &traces {
        let drift = DriftReport::from_trace(t);
        let at_scale = hbm_bound_seconds(t);
        table.row(&[
            t.meta.label.clone(),
            t.summary.spans.to_string(),
            fmt_secs(t.summary.wall_ns as f64 / 1e9),
            fmt_secs(t.summary.model_ns / 1e9),
            drift.compute_ratio().map_or("-".into(), |r| format!("{r:.2}×")),
            fmt_secs(at_scale),
            format!("{:.1}", t.summary.bytes as f64 / (1 << 20) as f64),
        ]);
        if t.meta.label.starts_with("k=") && best.as_ref().is_none_or(|(_, s)| at_scale < *s) {
            best = Some((t.meta.label.clone(), at_scale));
        }
    }
    table.print();
    if let Some((label, _)) = best {
        println!("trace-derived fusion optimum (min HBM-bound time over fused runs): {label}");
    }
}

fn main() {
    let n = 18u32;
    bench_circuit("QFT", &library::qft(n));
    bench_circuit("random circuit (depth 20)", &library::random_circuit(n, 20, 42));
    bench_circuit("quantum volume", &library::quantum_volume(16, 7));
    bench_circuit("rotation layers ×8 (fusion-friendly)", &library::rotation_layers(n, 8, 0.37));
    println!();
    println!("Host measurements above run at cache-resident sizes (this machine), where a");
    println!("block's arithmetic is not hidden behind memory. At paper scale the state is");
    println!("HBM-bound:");

    let big = 26u32;
    model_at_scale("random circuit (depth 20)", &library::random_circuit(big, 20, 42));
    model_at_scale("rotation layers ×8", &library::rotation_layers(big, 8, 0.37));

    traced_fusion_sweep("rotation layers ×8", &library::rotation_layers(n, 8, 0.37));

    println!();
    println!("Expected shape (memory-bound regime): fused time tracks the sweep count until");
    println!("k ≈ 3–5 where the 2^k matrix FLOPs reach the compute roof and gains flatten.");
}
