//! E18 — Variational loops: fused observable reductions and batched
//! parameter sweeps.
//!
//! Two questions:
//!
//! 1. **Reduction fusion.** A TFIM energy `⟨H⟩ = Σ cᵢ⟨Pᵢ⟩` evaluated
//!    term-by-term costs one full-state sweep per Pauli string. The
//!    compiled form shares one norms sweep across every diagonal term
//!    and one pair-product sweep per off-diagonal basis group, and runs
//!    each sweep through the SIMD reduction kernels. At n = 14 the
//!    TFIM's 2n−1 terms collapse to n+1 sweeps — the fused path should
//!    clear 2× on the host, and on the A64FX model once the baseline is
//!    priced, like the host baseline, on the scalar FP pipes.
//! 2. **Sweep batching.** One VQE gradient-descent iteration evaluates
//!    2p+1 parameter points. Serially that is 2p+1 engine builds, runs
//!    and cold reductions; the driver binds them into same-shaped
//!    circuits and streams them through one member-major batch, each
//!    point reduced by the worker that ran it. The measured speedup is
//!    what that schedule is worth on this host; the model column is
//!    `predict_batched`'s A64FX price of it against gate-major order.
//!
//! A convergence smoke closes the loop: a few GD iterations on the
//! TFIM must descend toward the exact dense ground energy.

use std::fmt::Write as _;

use qcs_bench::{fmt_secs, time_best, Table};
use qcs_core::config::SimConfig;
use qcs_core::expectation::Hamiltonian;
use qcs_core::perf::{predict_batched, predict_expectation};
use qcs_core::prelude::*;
use qcs_core::program::Program;
use qcs_core::variational::hardware_efficient_ansatz;

use a64fx_model::timing::ExecConfig;
use a64fx_model::ChipParams;

const REDUCTION_WIDTHS: [u32; 3] = [10, 12, 14];
const REPS: usize = 5;

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

struct ReductionRow {
    n: u32,
    terms: usize,
    sweeps: usize,
    per_term_secs: f64,
    fused_secs: f64,
    speedup: f64,
    model_per_term_secs: f64,
    model_fused_secs: f64,
    model_speedup: f64,
}

/// Fused (compiled, SIMD, sweep-sharing) vs per-term scalar reduction
/// of the TFIM energy on a prepared state.
fn bench_reduction(rows: &mut Vec<ReductionRow>) {
    let chip = ChipParams::a64fx();
    let cfg = ExecConfig::full_chip();
    println!();
    println!("E18: observable reduction — TFIM ⟨H⟩, fused vs per-term, best of {REPS}");
    let mut table =
        Table::new(&["n", "terms", "sweeps", "per-term", "fused", "speedup", "model speedup"]);
    for &n in &REDUCTION_WIDTHS {
        let h = Hamiltonian::ising_chain(n, 1.0, 0.7);
        let compiled = h.compile();
        let mut state = StateVector::zero(n);
        let ansatz = hardware_efficient_ansatz(n, 1);
        let theta: Vec<f64> = (0..ansatz.n_params()).map(|j| 0.1 + 0.05 * j as f64).collect();
        Simulator::new().run(&ansatz.bind(&theta), &mut state).unwrap();

        let per_term_secs = time_best(REPS, || {
            std::hint::black_box(h.expectation_scalar(&state));
        });
        let fused_secs = time_best(REPS, || {
            std::hint::black_box(compiled.expectation(&state));
        });
        // A64FX model, mirroring what the host comparison measures: the
        // per-term baseline is *scalar* code making one sweep per term
        // (priced on the chip's scalar FP pipes, simd_bits = 64); the
        // fused path is SVE code making one sweep per basis group.
        let terms = compiled.terms();
        let sweeps = compiled.sweeps();
        let mut scalar_chip = chip.clone();
        scalar_chip.simd_bits = 64;
        let (_, per_term_model) = predict_expectation(&scalar_chip, &cfg, n, terms, terms);
        let (_, fused_model) = predict_expectation(&chip, &cfg, n, terms, sweeps);
        let row = ReductionRow {
            n,
            terms,
            sweeps,
            per_term_secs,
            fused_secs,
            speedup: per_term_secs / fused_secs,
            model_per_term_secs: per_term_model.seconds,
            model_fused_secs: fused_model.seconds,
            model_speedup: per_term_model.seconds / fused_model.seconds,
        };
        table.row(&[
            n.to_string(),
            terms.to_string(),
            sweeps.to_string(),
            fmt_secs(row.per_term_secs),
            fmt_secs(row.fused_secs),
            format!("{:.2}x", row.speedup),
            format!("{:.2}x", row.model_speedup),
        ]);
        rows.push(row);
    }
    table.print();
}

struct SweepRow {
    n: u32,
    points: usize,
    serial_secs: f64,
    batched_secs: f64,
    speedup: f64,
    model_speedup: f64,
}

/// One VQE iteration's parameter sweep (2p+1 points), serial per-point
/// runs vs the driver's member-major batch.
fn bench_sweep(rows: &mut Vec<SweepRow>) {
    let chip = ChipParams::a64fx();
    let cfg = ExecConfig::full_chip();
    println!();
    println!(
        "E18: gradient sweep — 2p+1 parameter points per GD iteration, serial vs \
         member-major batch, {} thread(s), best of {REPS}",
        threads()
    );
    let mut table =
        Table::new(&["n", "points", "serial", "batched", "speedup", "model vs gate-major"]);
    for &n in &[8u32, 10, 12] {
        let h = Hamiltonian::ising_chain(n, 1.0, 0.7);
        let ansatz = hardware_efficient_ansatz(n, 1);
        let p = ansatz.n_params();
        let theta: Vec<f64> = (0..p).map(|j| 0.2 + 0.03 * j as f64).collect();
        let mut points: Vec<Vec<f64>> = Vec::with_capacity(2 * p + 1);
        for j in 0..p {
            let mut plus = theta.clone();
            plus[j] += std::f64::consts::FRAC_PI_2;
            points.push(plus);
            let mut minus = theta.clone();
            minus[j] -= std::f64::consts::FRAC_PI_2;
            points.push(minus);
        }
        points.push(theta.clone());

        let compiled = h.compile();
        let serial_secs = time_best(REPS, || {
            for point in &points {
                let sim = SimConfig::new().threads(threads()).build().unwrap();
                let mut s = StateVector::zero(n);
                sim.run(&ansatz.bind(point), &mut s).unwrap();
                std::hint::black_box(compiled.expectation(&s));
            }
        });
        let engine = BatchSimulator::from_config(SimConfig::new().threads(threads())).unwrap();
        let driver = VqeDriver::with_engine(ansatz.clone(), &h, engine);
        let batched_secs = time_best(REPS, || {
            std::hint::black_box(driver.energies(&points).unwrap());
        });
        let model =
            predict_batched(&chip, &cfg, &Program::per_gate(&ansatz.bind(&theta)), points.len());
        let row = SweepRow {
            n,
            points: points.len(),
            serial_secs,
            batched_secs,
            speedup: serial_secs / batched_secs,
            model_speedup: model.speedup,
        };
        table.row(&[
            n.to_string(),
            row.points.to_string(),
            fmt_secs(row.serial_secs),
            fmt_secs(row.batched_secs),
            format!("{:.2}x", row.speedup),
            format!("{:.2}x", row.model_speedup),
        ]);
        rows.push(row);
    }
    table.print();
}

/// GD on the TFIM: a handful of iterations must descend toward the
/// dense ground energy.
fn convergence_smoke() -> (f64, f64, f64) {
    let n = 6;
    let h = Hamiltonian::ising_chain(n, 1.0, 0.7);
    let ansatz = hardware_efficient_ansatz(n, 2);
    let p = ansatz.n_params();
    let driver = VqeDriver::new(ansatz, &h);
    let theta0: Vec<f64> = (0..p).map(|j| 0.25 + 0.11 * (j % 5) as f64).collect();
    let result = driver.minimize_gd(&theta0, 20, 0.1).unwrap();
    let ground = h.ground_energy(n);
    println!();
    println!(
        "E18: convergence smoke — n = {n}, 20 GD iterations: E {:.6} -> {:.6} \
         (exact ground {:.6})",
        result.energies[0], result.energy, ground
    );
    (result.energies[0], result.energy, ground)
}

fn write_json(reduction: &[ReductionRow], sweep: &[SweepRow], smoke: (f64, f64, f64)) {
    let mut red_body = String::new();
    for (i, r) in reduction.iter().enumerate() {
        let _ = write!(
            red_body,
            "    {{\"n\": {}, \"terms\": {}, \"sweeps\": {}, \"per_term_secs\": {:.9}, \
             \"fused_secs\": {:.9}, \"speedup\": {:.4}, \"model_per_term_secs\": {:.9}, \
             \"model_fused_secs\": {:.9}, \"model_speedup\": {:.4}}}{}",
            r.n,
            r.terms,
            r.sweeps,
            r.per_term_secs,
            r.fused_secs,
            r.speedup,
            r.model_per_term_secs,
            r.model_fused_secs,
            r.model_speedup,
            if i + 1 < reduction.len() { ",\n" } else { "" },
        );
    }
    let mut sweep_body = String::new();
    for (i, r) in sweep.iter().enumerate() {
        let _ = write!(
            sweep_body,
            "    {{\"n\": {}, \"points\": {}, \"serial_secs\": {:.9}, \
             \"batched_secs\": {:.9}, \"speedup\": {:.4}, \"model_speedup\": {:.4}}}{}",
            r.n,
            r.points,
            r.serial_secs,
            r.batched_secs,
            r.speedup,
            r.model_speedup,
            if i + 1 < sweep.len() { ",\n" } else { "" },
        );
    }
    let at14 = reduction.iter().find(|r| r.n == 14);
    let host_speedup = at14.map_or(0.0, |r| r.speedup);
    let model_speedup = at14.map_or(0.0, |r| r.model_speedup);
    let meets = host_speedup >= 2.0 && model_speedup >= 2.0;
    let (e_first, e_final, ground) = smoke;
    let json = format!(
        "{{\n  \"experiment\": \"e18_variational\",\n  \"headline\": {{\n\
         \x20   \"host_threads\": {},\n\
         \x20   \"fused_reduction_speedup_n14\": {host_speedup:.4},\n\
         \x20   \"model_reduction_speedup_n14\": {model_speedup:.4},\n\
         \x20   \"meets_2x_at_n14\": {meets},\n\
         \x20   \"vqe_smoke\": {{\"first_energy\": {e_first:.9}, \"final_energy\": {e_final:.9}, \
         \"exact_ground\": {ground:.9}}},\n\
         \x20   \"note\": \"fused = compiled sweep-sharing SIMD reduction; per-term = one \
         scalar sweep per Pauli string; the model prices the baseline on A64FX scalar FP \
         pipes (simd_bits=64) and the fused path on full SVE, matching the host pairing\"\n\
         \x20 }},\n  \"reduction\": [\n{red_body}\n  ],\n  \"sweep\": [\n{sweep_body}\n  ]\n}}\n",
        threads(),
    );
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/BENCH_variational.json", &json) {
        Ok(()) => println!("\nwrote results/BENCH_variational.json"),
        Err(e) => eprintln!("\ncould not write results/BENCH_variational.json: {e}"),
    }
}

fn main() {
    let mut reduction = Vec::new();
    bench_reduction(&mut reduction);
    let mut sweep = Vec::new();
    bench_sweep(&mut sweep);
    let smoke = convergence_smoke();

    println!();
    println!("Expected shape: the reduction gain is structural — the TFIM's 2n-1 terms");
    println!("reduce in n+1 shared-basis sweeps instead of 2n-1 per-term sweeps, and each");
    println!("fused sweep runs vectorized. Host and model agree on the ratio because both");
    println!("paths are bandwidth-bound: fewer full-state passes is fewer bytes, whatever");
    println!("the memory system. The sweep gain is the schedule's: the 2p+1 members of one");
    println!("iteration share one region, and each is run and reduced while cache-resident.");

    write_json(&reduction, &sweep, smoke);
}
