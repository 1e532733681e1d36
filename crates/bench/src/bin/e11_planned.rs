//! E11 — Planned execution: qubit remapping + parallel cache blocking.
//!
//! Sweeps the planned strategy (`core::plan`) against naive, fused, and
//! blocked execution across block widths, thread counts, and circuit
//! families, then measures the headline case the planner exists for: a
//! deep low-qubit-dense circuit on a state far larger than L2, where
//! blocking collapses N gate sweeps into one, and a high-qubit-dense
//! circuit where only the planner's axis relabeling can keep blocking.
//!
//! Expected shape: planned ≈ blocked on circuits whose gates already sit
//! below the block width; planned ≫ blocked when they don't (blocked
//! degenerates to naive there); both ≥ 2× naive on low-qubit-dense
//! circuits once the state exceeds cache. Results are also emitted
//! machine-readably to `results/BENCH_planned.json`; when the host has
//! too few cores for the threaded sweep the JSON carries the A64FX-model
//! prediction of the sweep-reduction speedup alongside the measured
//! serial ratio.

use std::fmt::Write as _;

use a64fx_model::timing::ExecConfig;
use a64fx_model::ChipParams;
use qcs_bench::{checksum, fmt_secs, time_best, Table};
use qcs_core::circuit::Circuit;
use qcs_core::config::SimConfig;
use qcs_core::library;
use qcs_core::perf::predict;
use qcs_core::program::{lower, Program};
use qcs_core::sim::Strategy;
use qcs_core::state::StateVector;

/// One measured cell of the sweep.
struct Sample {
    family: String,
    n: u32,
    threads: usize,
    strategy: String,
    seconds: f64,
    sweeps: usize,
}

fn measure(c: &Circuit, strategy: Strategy, threads: usize, reps: usize) -> (f64, usize) {
    let sim = SimConfig::new().strategy(strategy).threads(threads).build().unwrap();
    let mut sweeps = 0;
    let secs = time_best(reps, || {
        let mut s = StateVector::zero(c.n_qubits());
        let r = sim.run(c, &mut s).unwrap();
        sweeps = r.sweeps;
        std::hint::black_box(checksum(s.amplitudes()));
    });
    (secs, sweeps)
}

fn strategy_label(s: Strategy) -> String {
    // CLI syntax, shared with `--strategy` parsing and trace headers.
    s.to_string()
}

/// A circuit dense on the lowest `span` qubits of an `n`-qubit state —
/// the best case for cache blocking.
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

/// The same structure shifted onto the *highest* qubits: blocked
/// execution degenerates to naive here; only the planner keeps blocking.
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

fn sweep_families(samples: &mut Vec<Sample>, max_threads: usize) {
    let n = 18u32;
    let families: Vec<(&str, Circuit)> = vec![
        ("qft", library::qft(n)),
        ("qv", library::quantum_volume(n, 7)),
        ("random", library::random_circuit(n, 3 * n as usize, 11)),
        ("low_dense", low_dense(n, 8, 3)),
        ("high_dense", high_dense(n, 6, 4)),
    ];
    let thread_counts: Vec<usize> =
        [1usize, 2, 4, 8].into_iter().filter(|&t| t <= max_threads.max(1)).collect();

    for (family, c) in &families {
        println!();
        println!("E11: {family} — n = {n}, {} gates", c.len());
        let mut table = Table::new(&["strategy", "threads", "host time", "sweeps", "vs naive"]);
        for &threads in &thread_counts {
            let (naive_s, naive_sw) = measure(c, Strategy::Naive, threads, 2);
            let mut rows = vec![(Strategy::Naive, naive_s, naive_sw)];
            for strat in [
                Strategy::Fused { max_k: 4 },
                Strategy::Blocked { block_qubits: 13 },
                Strategy::Planned { block_qubits: 13, max_k: 4 },
                Strategy::Planned { block_qubits: 10, max_k: 3 },
            ] {
                let (s, sw) = measure(c, strat, threads, 2);
                rows.push((strat, s, sw));
            }
            for (strat, secs, sweeps) in rows {
                table.row(&[
                    strategy_label(strat),
                    threads.to_string(),
                    fmt_secs(secs),
                    sweeps.to_string(),
                    format!("{:.2}×", naive_s / secs),
                ]);
                samples.push(Sample {
                    family: family.to_string(),
                    n,
                    threads,
                    strategy: strategy_label(strat),
                    seconds: secs,
                    sweeps,
                });
            }
        }
        table.print();
    }
}

/// The acceptance case: ≥ 24-qubit low-qubit-dense circuit. Measured at
/// whatever thread count the host offers, modelled at full chip.
fn headline(samples: &mut Vec<Sample>, max_threads: usize) -> String {
    let n = 24u32;
    let c = low_dense(n, 8, 3);
    let threads = max_threads.clamp(1, 8);
    println!();
    println!("E11 headline: low-qubit-dense — n = {n}, {} gates, {} thread(s)", c.len(), threads);

    let chip = ChipParams::a64fx();
    let cfg = ExecConfig::full_chip();
    let naive_model = predict(&chip, &cfg, &Program::per_gate(&c));
    let planned = lower(&c, Strategy::Planned { block_qubits: 13, max_k: 4 }, None);
    let planned_model = predict(&chip, &cfg, &planned);

    let mut table = Table::new(&["strategy", "host time", "sweeps", "vs naive", "model (A64FX)"]);
    let (naive_s, naive_sw) = measure(&c, Strategy::Naive, threads, 1);
    let mut json_rows = String::new();
    for (strat, model_secs) in [
        (Strategy::Naive, Some(naive_model.seconds)),
        (Strategy::Fused { max_k: 4 }, None),
        (Strategy::Blocked { block_qubits: 13 }, None),
        (Strategy::Planned { block_qubits: 13, max_k: 4 }, Some(planned_model.seconds)),
    ] {
        let (secs, sweeps) = if strat == Strategy::Naive {
            (naive_s, naive_sw)
        } else {
            measure(&c, strat, threads, 1)
        };
        table.row(&[
            strategy_label(strat),
            fmt_secs(secs),
            sweeps.to_string(),
            format!("{:.2}×", naive_s / secs),
            model_secs.map_or("—".into(), fmt_secs),
        ]);
        if !json_rows.is_empty() {
            json_rows.push_str(",\n");
        }
        let _ = write!(
            json_rows,
            "    {{\"strategy\": \"{}\", \"seconds\": {:.6e}, \"sweeps\": {}, \"speedup_vs_naive\": {:.3}}}",
            strategy_label(strat),
            secs,
            sweeps,
            naive_s / secs
        );
        samples.push(Sample {
            family: "headline_low_dense".into(),
            n,
            threads,
            strategy: strategy_label(strat),
            seconds: secs,
            sweeps,
        });
    }
    table.print();
    println!(
        "model: naive {} ({} sweeps) vs planned {} ({} sweeps) ⇒ predicted {:.2}× from sweep reduction",
        fmt_secs(naive_model.seconds),
        naive_model.sweeps,
        fmt_secs(planned_model.seconds),
        planned_model.sweeps,
        naive_model.seconds / planned_model.seconds,
    );

    format!(
        "  \"headline\": {{\n\
         \x20   \"n\": {n},\n\
         \x20   \"threads\": {threads},\n\
         \x20   \"hardware_limited\": {},\n\
         \x20   \"model_naive_seconds\": {:.6e},\n\
         \x20   \"model_planned_seconds\": {:.6e},\n\
         \x20   \"model_speedup\": {:.3},\n\
         \x20   \"measured\": [\n{json_rows}\n    ]\n  }}",
        threads < 8,
        naive_model.seconds,
        planned_model.seconds,
        naive_model.seconds / planned_model.seconds,
    )
}

fn write_json(samples: &[Sample], headline_json: &str) {
    let mut rows = String::new();
    for s in samples {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"family\": \"{}\", \"n\": {}, \"threads\": {}, \"strategy\": \"{}\", \
             \"seconds\": {:.6e}, \"sweeps\": {}}}",
            s.family, s.n, s.threads, s.strategy, s.seconds, s.sweeps
        );
    }
    let json = format!(
        "{{\n  \"experiment\": \"e11_planned\",\n{headline_json},\n  \"samples\": [\n{rows}\n  ]\n}}\n"
    );
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/BENCH_planned.json", &json) {
        Ok(()) => println!("\nwrote results/BENCH_planned.json"),
        Err(e) => eprintln!("\ncould not write results/BENCH_planned.json: {e}"),
    }
}

fn main() {
    let max_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("E11 — planned execution (host has {max_threads} core(s))");
    let mut samples = Vec::new();
    sweep_families(&mut samples, max_threads);
    let headline_json = headline(&mut samples, max_threads);
    write_json(&samples, &headline_json);
}
