//! E7 — Simulation-strategy baseline comparison.
//!
//! QuEST-style gate-by-gate vs Aer-style fusion vs cache blocking, on
//! shallow and deep circuits, host-measured and A64FX-modelled side by
//! side.
//!
//! Expected shape: naive is competitive on shallow circuits (fusion's
//! matrix build cost isn't amortized); fusion wins clearly on deep
//! circuits; blocking wins when the run is all low-qubit gates and the
//! state exceeds L2.

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

fn bench(name: &str, c: &Circuit) {
    let chip = ChipParams::a64fx();
    let cfg = ExecConfig::full_chip();
    println!();
    println!("E7: {name} — n = {}, {} gates", c.n_qubits(), c.len());
    let mut table = Table::new(&["strategy", "host time", "model time (A64FX)", "sweeps"]);

    let strategies: Vec<(String, Strategy)> = vec![
        ("naive (QuEST-like)".into(), Strategy::Naive),
        ("fused k=4 (Aer-like)".into(), Strategy::Fused { max_k: 4 }),
        ("blocked 2^13".into(), Strategy::Blocked { block_qubits: 13 }),
    ];
    for (label, strat) in strategies {
        let sim = SimConfig::new().strategy(strat).build().unwrap();
        let mut sweeps = 0;
        let host = time_best(2, || {
            let mut s = StateVector::zero(c.n_qubits());
            let r = sim.run(c, &mut s).unwrap();
            sweeps = r.sweeps;
            std::hint::black_box(checksum(s.amplitudes()));
        });
        let model_secs = match strat {
            // The Aer-like comparator fuses unconditionally; the engine's
            // cost-aware lowering may decline merges on this host.
            Strategy::Fused { max_k } => {
                predict(&chip, &cfg, &Program::greedy_fused(c, max_k)).seconds
            }
            s => predict(&chip, &cfg, &lower(c, s, None)).seconds,
        };
        table.row(&[label, fmt_secs(host), fmt_secs(model_secs), sweeps.to_string()]);
    }
    table.print();
}

fn model_only(name: &str, c: &Circuit) {
    let chip = ChipParams::a64fx();
    let cfg = ExecConfig::full_chip();
    println!();
    println!("E7 (modelled, n = {}): {name} — {} gates", c.n_qubits(), c.len());
    let mut table = Table::new(&["strategy", "model time", "vs naive"]);
    let naive = predict(&chip, &cfg, &Program::per_gate(c));
    table.row(&["naive".into(), fmt_secs(naive.seconds), "1.00×".into()]);
    let fused = predict(&chip, &cfg, &Program::greedy_fused(c, 4));
    table.row(&[
        "fused k=4".into(),
        fmt_secs(fused.seconds),
        format!("{:.2}×", naive.seconds / fused.seconds),
    ]);
    table.print();
}

fn main() {
    let n = 18u32;
    bench("shallow: 1 Hadamard layer", &library::hadamard_layers(n, 1));
    bench("deep: 12 rotation layers", &library::rotation_layers(n, 12, 0.41));
    bench("deep + entangling: random depth 24", &library::random_circuit(n, 24, 13));
    bench("low-qubit run: 10 rotation layers on 12 qubits of 20", &{
        let mut c = Circuit::new(20);
        for l in 0..10 {
            for q in 0..12 {
                c.rx(q, 0.1 * (l + 1) as f64);
            }
        }
        c
    });

    println!();
    println!("At this host's cache-resident sizes the comparison is compute-shaped; the");
    println!("paper-scale (HBM-bound) regime from the model:");
    model_only("deep: 12 rotation layers", &library::rotation_layers(26, 12, 0.41));
    model_only("shallow: 1 Hadamard layer", &library::hadamard_layers(26, 1));
    println!();
    println!("Expected shape: in the HBM-bound regime fusion speedup ≈ sweep-count ratio");
    println!("(×3 when k=4 groups absorb ~3 gates each); the host's cache-resident runs");
    println!("invert this because fused 2^k×2^k arithmetic is the bottleneck there.");
}
