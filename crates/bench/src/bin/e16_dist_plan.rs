//! E16 — Distributed exchange plans: volume, model fidelity, overlap.
//!
//! Three claims, one table each:
//!
//! 1. **Volume** — the reorder plan's exchanged bytes are ≤ half the
//!    naive per-gate engine's on global-heavy families (each global
//!    qubit is relocated once and amortized, and logical swaps are
//!    absorbed into the permutation at zero cost).
//! 2. **Model fidelity** — the planner's [`qcs_core::perf::ExchangeProfile`] priced by
//!    the Tofu-D α–β link model predicts the *measured* wire volume
//!    within 25% (it is in fact exact: the profile counts the same
//!    sends the transport counts).
//! 3. **Overlap** — the overlap plan hides resident compute behind the
//!    chunked nonblocking swaps, so its modeled exposed communication
//!    is strictly below reorder's while moving the same bytes.
//!
//! Expected shape: QFT and the rotation ladder show ≥2× volume wins
//! (their global work is relocate-once); the random family wins less
//! (its global touches are scattered) but never loses — the planner's
//! bytes are bounded above by naive on every family.

use a64fx_model::timing::ExecConfig;
use a64fx_model::{ChipParams, LinkModel};
use qcs_bench::{fmt_secs, Record, Table};
use qcs_core::circuit::Circuit;
use qcs_core::library;
use qcs_core::perf::predict_distributed;
use qcs_core::program::Program;
use qcs_dist::{plan_circuit, run_distributed_planned, DistPlanKind};

const RANKS: usize = 4;

/// Global-heavy rotation ladder: every layer touches each global qubit
/// densely, interleaved with local work — the pattern the reorder plan
/// amortizes best (relocate once, sweep many times).
fn rotation_ladder(n: u32, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for l in 0..layers {
        for q in n - 2..n {
            c.rx(q, 0.3 + 0.1 * l as f64);
        }
        for q in 0..4.min(n) {
            c.ry(q, 0.2 + 0.05 * l as f64);
        }
    }
    c
}

fn families() -> Vec<(&'static str, Circuit)> {
    vec![
        ("qft-16", library::qft(16)),
        ("ladder-16", rotation_ladder(16, 8)),
        ("random-16", library::random_circuit(16, 32, 42)),
    ]
}

/// Measured wire bytes of the algorithm alone, summed over ranks (the
/// harness's final gather is subtracted via an empty-circuit run).
fn measured_bytes(circuit: &Circuit, kind: DistPlanKind) -> u64 {
    let (_, with) = run_distributed_planned(circuit, RANKS, kind).expect("distributed run");
    let empty = Circuit::new(circuit.n_qubits());
    let (_, base) = run_distributed_planned(&empty, RANKS, kind).expect("baseline run");
    with.iter().zip(&base).map(|(a, b)| a.bytes_sent.saturating_sub(b.bytes_sent)).sum()
}

struct FamilyRow {
    name: &'static str,
    naive_bytes: u64,
    reorder_bytes: u64,
    overlap_bytes: u64,
    predicted_reorder: u64,
    model_err: f64,
    reorder_exposed: f64,
    overlap_exposed: f64,
    hidden_frac: f64,
}

fn main() {
    println!("E16: distributed exchange plans — {RANKS} ranks, Tofu-D link model");
    let chip = ChipParams::a64fx();
    let exec = ExecConfig::full_chip();
    let link = LinkModel::default();

    let mut rows = Vec::new();
    let mut volume = Table::new(&["family", "naive", "reorder", "overlap", "reduction"]);
    let mut fidelity = Table::new(&["family", "measured", "predicted", "error"]);
    let mut overlap_t =
        Table::new(&["family", "reorder exposed", "overlap exposed", "hidden fraction"]);

    for (name, c) in families() {
        let naive_bytes = measured_bytes(&c, DistPlanKind::Naive);
        let reorder_bytes = measured_bytes(&c, DistPlanKind::Reorder);
        let overlap_bytes = measured_bytes(&c, DistPlanKind::Overlap);

        let reorder_plan = plan_circuit(&c, RANKS, DistPlanKind::Reorder).expect("plan");
        let overlap_plan = plan_circuit(&c, RANKS, DistPlanKind::Overlap).expect("plan");
        let predicted_reorder = reorder_plan.profile.bytes_per_rank * RANKS as u64;
        let model_err = if reorder_bytes == 0 {
            0.0
        } else {
            (predicted_reorder as f64 - reorder_bytes as f64).abs() / reorder_bytes as f64
        };

        let per_gate = Program::per_gate(&c);
        let pr = predict_distributed(&chip, &exec, &per_gate, RANKS, &link, &reorder_plan.profile);
        let po = predict_distributed(&chip, &exec, &per_gate, RANKS, &link, &overlap_plan.profile);

        volume.row(&[
            name.into(),
            format!("{} KiB", naive_bytes >> 10),
            format!("{} KiB", reorder_bytes >> 10),
            format!("{} KiB", overlap_bytes >> 10),
            format!("{:.2}x", naive_bytes as f64 / reorder_bytes.max(1) as f64),
        ]);
        fidelity.row(&[
            name.into(),
            format!("{reorder_bytes}"),
            format!("{predicted_reorder}"),
            format!("{:.2}%", 100.0 * model_err),
        ]);
        overlap_t.row(&[
            name.into(),
            fmt_secs(pr.exposed_comm_seconds),
            fmt_secs(po.exposed_comm_seconds),
            format!("{:.0}%", 100.0 * (1.0 - po.exposed_fraction())),
        ]);
        rows.push(FamilyRow {
            name,
            naive_bytes,
            reorder_bytes,
            overlap_bytes,
            predicted_reorder,
            model_err,
            reorder_exposed: pr.exposed_comm_seconds,
            overlap_exposed: po.exposed_comm_seconds,
            hidden_frac: 1.0 - po.exposed_fraction(),
        });
    }

    println!("\nE16a: exchanged bytes per plan (algorithm only, summed over ranks)");
    volume.print();
    println!("\nE16b: comm-model fidelity — measured vs profile-predicted reorder bytes");
    fidelity.print();
    println!("\nE16c: modeled exposed communication (Tofu-D α–β, overlap credited)");
    overlap_t.print();

    // The acceptance gates, enforced so CI smoke catches regressions.
    for r in &rows {
        assert!(
            r.reorder_bytes <= r.naive_bytes,
            "{}: reorder must never exchange more than naive",
            r.name
        );
        assert!(r.model_err <= 0.25, "{}: comm model off by {:.0}%", r.name, 100.0 * r.model_err);
        assert!(
            r.overlap_exposed <= r.reorder_exposed,
            "{}: overlap must not increase exposed communication",
            r.name
        );
        assert_eq!(
            r.overlap_bytes, r.reorder_bytes,
            "{}: overlap moves the same bytes, just asynchronously",
            r.name
        );
    }
    let big_wins =
        rows.iter().filter(|r| r.naive_bytes as f64 >= 2.0 * r.reorder_bytes as f64).count();
    assert!(big_wins >= 2, "at least two families must show the ≥2x reduction (got {big_wins})");

    println!();
    println!("Expected shape: QFT's global phase rotations are diagonal (free) and its final");
    println!("swap network is absorbed into the permutation, so reorder pays one half-buffer");
    println!("per global qubit where naive pays full buffers per gate. The ladder re-touches");
    println!("its global qubits every layer — the relocate-once win compounds with depth.");
    println!("Overlap never changes the byte count; it hides the wire behind the deferred");
    println!("comm-free sweeps, which the α–β model credits as hidden seconds.");

    let families = rows
        .iter()
        .map(|r| {
            vec![
                ("family", r.name.into()),
                ("naive_bytes", r.naive_bytes.into()),
                ("reorder_bytes", r.reorder_bytes.into()),
                ("overlap_bytes", r.overlap_bytes.into()),
                ("predicted_reorder_bytes", r.predicted_reorder.into()),
                ("model_error", r.model_err.into()),
                ("reorder_exposed_secs", r.reorder_exposed.into()),
                ("overlap_exposed_secs", r.overlap_exposed.into()),
                ("hidden_fraction", r.hidden_frac.into()),
            ]
        })
        .collect();
    Record::new("e16_dist_plan")
        .headline("ranks", RANKS)
        .headline("families_with_2x_reduction", big_wins)
        .headline("model_within_25_percent", true)
        .headline("overlap_exposed_below_reorder", true)
        .table("families", families)
        .write("dist_plan");
}
