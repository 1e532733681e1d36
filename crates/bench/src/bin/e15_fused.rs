//! E15 — Specialized fused kernels + strategy auto-tuning.
//!
//! The seed's generic fused path lost to naive execution by 3–6×
//! (E11, now historical in EXPERIMENTS.md): every fused block ran
//! through the same scalar gather → dense `2^k × 2^k` mat-vec → scatter
//! loop regardless of structure, with per-block scratch allocations.
//! This experiment re-measures E11's families after the fix:
//!
//! 1. fused blocks are classified (diagonal / permutation / sparse /
//!    dense); diagonal ones stream, every other runs the one block
//!    kernel over its non-identity rows' nonzeros, `W` groups per
//!    vector step whatever the target stride;
//! 2. `Strategy::Auto` picks a strategy per circuit from the fixed
//!    analytic cost table every lowering is priced on (the host's
//!    measured table is printed beside it, and no engine reads it);
//! 3. one block per class at n = 22: the host's serial ns/amp beside
//!    the A64FX model's, two quantities printed side by side.
//!
//! Expected shape: `fused:4` / `planned:13:4` no longer lose to naive
//! at n = 18; diagonal-heavy families beat the old generic fused path
//! by ≥ 2×; `auto` lands within 15 % of the best fixed strategy per
//! family. Machine-readable output (with host metadata) goes to
//! `results/BENCH_fused_v2.json`.

use std::fmt::Write as _;

use a64fx_model::timing::ExecConfig;
use a64fx_model::ChipParams;
use qcs_bench::{checksum, fmt_secs, time_best, Table};
use qcs_core::calibrate::{self, Calibration};
use qcs_core::circuit::Circuit;
use qcs_core::config::SimConfig;
use qcs_core::fusion::{fuse, FusedClass};
use qcs_core::kernels::fused::{apply_fused, PreparedFused};
use qcs_core::kernels::{scalar, simd};
use qcs_core::library;
use qcs_core::perf::predict;
use qcs_core::program::Program;
use qcs_core::sim::Strategy;
use qcs_core::state::StateVector;
use qcs_core::testing::class_circuit;

struct Sample {
    family: String,
    n: u32,
    strategy: String,
    seconds: f64,
    sweeps: usize,
    speedup_vs_naive: f64,
}

/// Time every strategy in interleaved rounds (min per strategy): slow
/// phases of a shared host then hit all strategies alike instead of
/// whichever one was being timed when the interference arrived.
fn measure_all(c: &Circuit, strategies: &[Strategy], rounds: usize) -> Vec<(f64, usize)> {
    let sims: Vec<_> =
        strategies.iter().map(|&s| SimConfig::new().strategy(s).build().unwrap()).collect();
    let mut best = vec![(f64::MAX, 0usize); strategies.len()];
    for _ in 0..rounds {
        for (i, sim) in sims.iter().enumerate() {
            let mut sweeps = 0;
            let secs = time_best(1, || {
                let mut s = StateVector::zero(c.n_qubits());
                let r = sim.run(c, &mut s).unwrap();
                sweeps = r.sweeps;
                std::hint::black_box(checksum(s.amplitudes()));
            });
            if secs < best[i].0 {
                best[i] = (secs, sweeps);
            }
        }
    }
    best
}

/// A circuit dense on the lowest `span` qubits (E11's blocking showcase).
fn low_dense(n: u32, span: u32, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for l in 0..layers {
        for q in 0..span {
            c.ry(q, 0.1 + 0.01 * (l as f64 + q as f64));
        }
        for q in 0..span - 1 {
            c.cx(q, q + 1);
        }
    }
    c
}

/// The same structure on the highest qubits, out of every block's reach.
fn high_dense(n: u32, span: u32, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    let base = n - span;
    for l in 0..layers {
        for q in base..n {
            c.ry(q, 0.1 + 0.01 * (l as f64 + q as f64));
        }
        for q in base..n - 1 {
            c.cx(q, q + 1);
        }
    }
    c
}

/// A phase-only circuit: every fused block classifies as `diagonal`,
/// the class with the largest specialized-kernel headroom.
fn diag_heavy(n: u32, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for l in 0..layers {
        for q in 0..n {
            c.rz(q, 0.05 + 0.01 * (l as f64 + q as f64));
        }
        for q in 0..n - 1 {
            c.cp(q, q + 1, 0.3 + 0.02 * l as f64);
        }
    }
    c
}

fn families(n: u32) -> Vec<(&'static str, Circuit)> {
    vec![
        ("qft", library::qft(n)),
        ("qv", library::quantum_volume(n, 7)),
        ("random", library::random_circuit(n, 3 * n as usize, 11)),
        ("low_dense", low_dense(n, 8, 3)),
        ("high_dense", high_dense(n, 6, 4)),
        ("diag_heavy", diag_heavy(n, 3)),
    ]
}

/// Strategy sweep per family, with `auto` measured against the best
/// fixed strategy and its resolved choice recorded.
fn sweep(samples: &mut Vec<Sample>, auto_rows: &mut String) {
    let n = 18u32;
    for (family, c) in &families(n) {
        println!();
        println!("E15: {family} — n = {n}, {} gates", c.len());
        let mut table = Table::new(&["strategy", "host time", "sweeps", "vs naive"]);
        let strategies = [
            Strategy::Naive,
            Strategy::Fused { max_k: 4 },
            Strategy::Blocked { block_qubits: 13 },
            Strategy::Planned { block_qubits: 13, max_k: 4 },
            Strategy::Auto,
        ];
        let timed = measure_all(c, &strategies, 5);
        let naive_s = timed[0].0;
        let rows: Vec<(Strategy, f64, usize)> =
            strategies.iter().zip(&timed).map(|(&st, &(s, sw))| (st, s, sw)).collect();
        let best_fixed = rows
            .iter()
            .filter(|(st, ..)| *st != Strategy::Auto)
            .map(|&(_, s, _)| s)
            .fold(f64::MAX, f64::min);
        for (strat, secs, sweeps) in rows {
            table.row(&[
                strat.to_string(),
                fmt_secs(secs),
                sweeps.to_string(),
                format!("{:.2}×", naive_s / secs),
            ]);
            if strat == Strategy::Auto {
                let chosen = calibrate::choose(c);
                let ratio = secs / best_fixed;
                println!("auto chose {chosen} — {:.2}× the best fixed strategy's time", ratio);
                if !auto_rows.is_empty() {
                    auto_rows.push_str(",\n");
                }
                let _ = write!(
                    auto_rows,
                    "    {{\"family\": \"{family}\", \"chose\": \"{chosen}\", \
                     \"seconds\": {secs:.6e}, \"best_fixed_seconds\": {best_fixed:.6e}, \
                     \"vs_best_fixed\": {ratio:.3}}}"
                );
            }
            samples.push(Sample {
                family: family.to_string(),
                n,
                strategy: strat.to_string(),
                seconds: secs,
                sweeps,
                speedup_vs_naive: naive_s / secs,
            });
        }
        table.print();
    }
}

/// Old-vs-new fused execution: the seed's generic scalar k-qubit
/// gather/mat-vec/scatter per block, against the structure-aware block
/// kernel, on the same fusion plan.
fn specialization(n: u32) -> String {
    println!();
    println!("E15: generic vs specialized fused blocks — n = {n}, k = 4");
    let be = simd::active();
    let mut table = Table::new(&["family", "class mix", "generic (old)", "specialized", "speedup"]);
    let mut json = String::new();
    for (family, c) in &families(n) {
        let plan = fuse(c, 4);
        let mut mix: Vec<String> = Vec::new();
        for class in ["diagonal", "permutation", "sparse", "dense"] {
            let count = plan.iter().filter(|op| op.class.name() == class).count();
            if count > 0 {
                mix.push(format!("{count} {class}"));
            }
        }
        let mut state = StateVector::plus(n);
        let generic = time_best(2, || {
            let amps = state.amplitudes_mut();
            for op in &plan {
                scalar::apply_kq(amps, &op.qubits, &op.matrix);
            }
            std::hint::black_box(checksum(amps));
        });
        let specialized = time_best(2, || {
            let amps = state.amplitudes_mut();
            for op in &plan {
                apply_fused(be, amps, op);
            }
            std::hint::black_box(checksum(amps));
        });
        table.row(&[
            family.to_string(),
            mix.join(" + "),
            fmt_secs(generic),
            fmt_secs(specialized),
            format!("{:.2}×", generic / specialized),
        ]);
        if !json.is_empty() {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"family\": \"{family}\", \"generic_seconds\": {generic:.6e}, \
             \"specialized_seconds\": {specialized:.6e}, \"speedup\": {:.3}}}",
            generic / specialized
        );
    }
    table.print();
    json
}

/// One block per class on qubits `1..=k` of an `n`-qubit state (the
/// benchmark probes' placement, on the lane-exchange path): the host's
/// serial ns/amp on the active backend, best of 5, beside the A64FX
/// model's full-chip ns/amp for the same sweep. Two different
/// quantities, never merged.
fn per_class(n: u32) -> String {
    println!();
    println!("E15: one block per class, qubits 1..=k — n = {n}");
    let (be, chip, cfg) = (simd::active(), ChipParams::a64fx(), ExecConfig::full_chip());
    let amps = (1u64 << n) as f64;
    let mut table = Table::new(&["block", "host ns/amp", "A64FX model ns/amp"]);
    let mut json = String::new();
    let blocks = [
        (FusedClass::Diagonal, 2),
        (FusedClass::Diagonal, 4),
        (FusedClass::Permutation, 4),
        (FusedClass::Sparse, 4),
        (FusedClass::Dense, 2),
        (FusedClass::Dense, 3),
        (FusedClass::Dense, 4),
        (FusedClass::Dense, 5),
    ];
    let mut state = StateVector::plus(n);
    for (class, k) in blocks {
        let qubits: Vec<u32> = (1..=k).collect();
        let c = class_circuit(class, n, &qubits).expect("every listed class exists at its width");
        let plan = fuse(&c, k);
        let op = PreparedFused::new(&plan[0]);
        let host = time_best(5, || op.apply(be, None, Default::default(), state.amplitudes_mut()));
        let host = host / amps * 1e9;
        let model = predict(&chip, &cfg, &Program::greedy_fused(&c, k)).seconds / amps * 1e9;
        let name = format!("{} k={k}", class.name());
        table.row(&[name.clone(), format!("{host:.2}"), format!("{model:.3}")]);
        if !json.is_empty() {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"block\": \"{name}\", \"n\": {n}, \"host_ns_per_amp\": {host:.4}, \
             \"a64fx_model_ns_per_amp\": {model:.4}}}"
        );
    }
    table.print();
    json
}

fn write_json(
    samples: &[Sample],
    auto_rows: &str,
    spec_rows: &str,
    class_rows: &str,
    cal: &Calibration,
) {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut rows = String::new();
    for s in samples {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"family\": \"{}\", \"n\": {}, \"strategy\": \"{}\", \
             \"seconds\": {:.6e}, \"sweeps\": {}, \"speedup_vs_naive\": {:.3}}}",
            s.family, s.n, s.strategy, s.seconds, s.sweeps, s.speedup_vs_naive
        );
    }
    let json = format!(
        "{{\n  \"experiment\": \"e15_fused\",\n\
         \x20 \"machine\": {{\"arch\": \"{}\", \"cores\": {}, \"backend\": \"{}\", \
         \"calibration_measured\": {}, \"stream_ns_per_amp\": {:.4}, \
         \"fused_diag_ns_per_amp\": {:.4}, \"fused_perm_ns_per_amp\": {:.4}, \
         \"fused_dense_ns_per_amp\": {{\"k2\": {:.4}, \"k3\": {:.4}, \"k4\": {:.4}, \
         \"k5\": {:.4}}}}},\n\
         \x20 \"auto\": [\n{auto_rows}\n  ],\n\
         \x20 \"specialization\": [\n{spec_rows}\n  ],\n\
         \x20 \"per_class\": [\n{class_rows}\n  ],\n\
         \x20 \"samples\": [\n{rows}\n  ]\n}}\n",
        std::env::consts::ARCH,
        cores,
        cal.backend,
        cal.measured,
        cal.stream,
        cal.costs.fused_diag,
        cal.costs.fused_perm,
        cal.costs.fused_dense[0],
        cal.costs.fused_dense[1],
        cal.costs.fused_dense[2],
        cal.costs.fused_dense[3],
    );
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/BENCH_fused_v2.json", &json) {
        Ok(()) => println!("\nwrote results/BENCH_fused_v2.json"),
        Err(e) => eprintln!("\ncould not write results/BENCH_fused_v2.json: {e}"),
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("E15 — specialized fused kernels + auto-tuner (host has {cores} core(s))");
    let cal = Calibration::get();
    println!(
        "calibration: backend {}, measured {}, stream {:.2} ns/amp; fused blocks as multiples \
         of that roof: diag {:.2}×, perm {:.2}×, dense k=2..5 {:.2}× {:.2}× {:.2}× {:.2}×",
        cal.backend,
        cal.measured,
        cal.stream,
        cal.costs.fused_diag / cal.stream,
        cal.costs.fused_perm / cal.stream,
        cal.costs.fused_dense[0] / cal.stream,
        cal.costs.fused_dense[1] / cal.stream,
        cal.costs.fused_dense[2] / cal.stream,
        cal.costs.fused_dense[3] / cal.stream,
    );
    let mut samples = Vec::new();
    let mut auto_rows = String::new();
    sweep(&mut samples, &mut auto_rows);
    let spec_rows = specialization(18);
    let class_rows = per_class(22);
    write_json(&samples, &auto_rows, &spec_rows, &class_rows, cal);
}
