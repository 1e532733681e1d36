//! E5 — Multi-process scaling and communication analysis.
//!
//! Runs circuits distributed across 1..16 ranks (in-process MPI), counts
//! the bytes each algorithm phase actually exchanges, and prices them
//! with the Tofu-D α–β link model to obtain predicted communication time
//! and communication fraction at A64FX-node speeds.
//!
//! Expected shape: gates on global qubits cost one local-buffer exchange
//! per rank; the exchanged volume per rank *shrinks* with rank count
//! (buffers halve) while the rank count grows, and the communication
//! fraction rises with ranks — the classic distributed-state-vector
//! scaling story.

use a64fx_model::timing::ExecConfig;
use a64fx_model::{ChipParams, LinkModel};
use qcs_bench::{fmt_secs, Table};
use qcs_core::circuit::Circuit;
use qcs_core::library;
use qcs_core::perf::predict;
use qcs_core::program::Program;
use qcs_core::telemetry::{ExchangePhase, SpanKind, TelemetryConfig};
use qcs_dist::{run_distributed_planned, run_distributed_traced, DistPlanKind};

fn analyze(name: &str, circuit: &Circuit) {
    println!();
    println!("E5: {name} — n = {}, {} gates", circuit.n_qubits(), circuit.len());
    let chip = ChipParams::a64fx();
    let link = LinkModel::default();

    let mut table = Table::new(&[
        "ranks",
        "max bytes sent/rank",
        "msgs/rank",
        "comm time (Tofu-D)",
        "compute time (A64FX)",
        "comm fraction",
    ]);

    for ranks in [1usize, 2, 4, 8, 16] {
        // The tracer tags every exchange with its algorithm phase, so
        // the final gather (a harness artifact, not algorithm) is
        // excluded *exactly* rather than estimated by subtracting an
        // empty-circuit run.
        let (_, _, traces) = run_distributed_traced(circuit, ranks, &TelemetryConfig::on())
            .expect("distributed run");
        let (bytes, messages) = traces
            .iter()
            .map(|t| {
                let algo: Vec<_> = t
                    .spans
                    .iter()
                    .filter(|s| s.kind != SpanKind::Exchange(ExchangePhase::Collective))
                    .collect();
                (algo.iter().map(|s| s.bytes).sum::<u64>(), algo.len() as u64)
            })
            .max_by_key(|&(bytes, _)| bytes)
            .expect("at least one rank");
        let comm = link.exchange_time(messages, bytes);
        // Compute time: each rank sweeps its slice; the model scales the
        // single-node prediction by the slice fraction (per-node chip).
        let compute = predict(&chip, &ExecConfig::full_chip(), &Program::per_gate(circuit)).seconds
            / ranks as f64;
        let total = comm + compute;
        table.row(&[
            ranks.to_string(),
            format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64),
            messages.to_string(),
            fmt_secs(comm),
            fmt_secs(compute),
            format!("{:.0}%", 100.0 * comm / total.max(1e-30)),
        ]);
    }
    table.print();
}

/// E5b: the qubit-reorder plan — the per-gate engine (swap back after
/// every relocated gate) vs the exchange-minimizing reorder plan (leave
/// relocated qubits local, evict by farthest next use).
fn reorder_ablation(name: &str, circuit: &Circuit) {
    println!();
    println!("E5b: qubit-reorder plan — {name}, n = {}", circuit.n_qubits());
    let link = LinkModel::default();
    let mut table = Table::new(&[
        "ranks",
        "naive bytes/rank",
        "reorder bytes/rank",
        "saving",
        "reorder comm time",
    ]);
    for ranks in [2usize, 4, 8] {
        // Algorithm bytes: subtract the empty circuit's traffic (the
        // final gather) rank by rank.
        let algo = |kind: DistPlanKind| -> u64 {
            let run = |c: &Circuit| run_distributed_planned(c, ranks, kind).expect("run").1;
            let (with, base) = (run(circuit), run(&Circuit::new(circuit.n_qubits())));
            with.iter()
                .zip(&base)
                .map(|(a, b)| a.bytes_sent.saturating_sub(b.bytes_sent))
                .max()
                .unwrap_or(0)
        };
        let naive = algo(DistPlanKind::Naive);
        let reorder = algo(DistPlanKind::Reorder);
        table.row(&[
            ranks.to_string(),
            format!("{:.2} MiB", naive as f64 / (1 << 20) as f64),
            format!("{:.2} MiB", reorder as f64 / (1 << 20) as f64),
            if naive > 0 {
                format!("{:.1}%", 100.0 * (1.0 - reorder as f64 / naive as f64))
            } else {
                "-".into()
            },
            fmt_secs(link.exchange_time(1, reorder)),
        ]);
    }
    table.print();
}

fn main() {
    let n = 18u32;
    analyze("QFT", &library::qft(n));
    analyze("random circuit (depth 10)", &library::random_circuit(n, 10, 5));
    analyze("GHZ chain", &library::ghz(n));

    // Reorder ablation on a workload that hammers the top qubits.
    let mut hot_top = Circuit::new(14);
    for l in 0..8 {
        hot_top.rx(13, 0.1 * (l + 1) as f64);
        hot_top.ry(12, 0.2 * (l + 1) as f64);
        hot_top.rxx(12, 13, 0.05 * (l + 1) as f64);
    }
    reorder_ablation("top-qubit rotation block", &hot_top);
    reorder_ablation("QFT", &library::qft(14));

    println!();
    println!("Expected shape: communication fraction grows with rank count; QFT moves the");
    println!("most data (its CP/SWAP ladder touches the top qubits repeatedly), GHZ the least");
    println!("(a single CX chain crosses the global boundary once per global qubit).");
    println!("E5b: the reorder plan collapses repeated global-qubit touches into one");
    println!("relocation (≈97% saving on the hot-top block) and still halves QFT's traffic:");
    println!("its final SWAP ladder is absorbed into the permutation and the layout is");
    println!("un-permuted locally at gather time instead of being swapped back on the wire.");
}
