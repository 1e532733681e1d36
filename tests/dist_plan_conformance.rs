//! Differential conformance for the distributed exchange planners: the
//! naive, reorder, and overlap plans must be *bit-identical* (tolerance
//! 0.0) to each other and to the serial engine across rank counts, and
//! must stay bit-identical when executed through the resilient envelope
//! under injected transport faults — planning changes where amplitudes
//! live and when they move, never their values.

use a64fx_qcs::core::library;
use a64fx_qcs::core::prelude::*;
use a64fx_qcs::dist::{
    plan_circuit, run_distributed_planned, run_resilient, DistPlanKind, ResilienceConfig,
};
use a64fx_qcs::mpi::FaultPlan;

fn serial(circuit: &Circuit) -> StateVector {
    let mut s = StateVector::zero(circuit.n_qubits());
    Simulator::new().run(circuit, &mut s).unwrap();
    s
}

/// QFT from a generic product state: every amplitude is a full complex
/// number by the time the controlled phases with a rank-constant qubit
/// multiply it, so a rank that rounded them differently from the serial
/// kernel (a fused multiply-add chain against a plain product) shows.
fn dressed_qft(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.ry(q, 0.37 + 0.61 * q as f64).rz(q, 1.1 - 0.23 * q as f64);
    }
    for g in library::qft(n).gates() {
        c.push(g.clone());
    }
    c
}

fn families() -> Vec<(&'static str, Circuit)> {
    vec![
        ("qft", library::qft(8)),
        ("dressed-qft", dressed_qft(8)),
        ("ghz", library::ghz(8)),
        ("random", library::random_circuit(8, 24, 42)),
        ("trotter", library::trotter_ising(8, 2, 1.0, 0.8, 0.1)),
        ("qaoa", library::qaoa_maxcut_ring(8, 2, &[0.6, 0.4], &[0.3, 0.2])),
    ]
}

#[test]
fn every_plan_is_bit_identical_to_serial_across_rank_counts() {
    for (name, c) in families() {
        let reference = serial(&c);
        for ranks in [2usize, 4, 8] {
            for kind in DistPlanKind::ALL {
                let (state, _) = run_distributed_planned(&c, ranks, kind).unwrap();
                assert!(
                    state.approx_eq(&reference, 0.0),
                    "{name} {kind} ranks={ranks}: max diff {}",
                    state.max_abs_diff(&reference)
                );
            }
        }
    }
}

#[test]
fn resilient_execution_under_faults_is_bit_identical_for_every_plan() {
    // The CI fault-matrix scenario (QCS_FAULT_SEED=42 analogue): drop +
    // dup + flip + delay at the default intensity, through each plan.
    let c = library::qft(8);
    let reference = serial(&c);
    for kind in DistPlanKind::ALL {
        let cfg = ResilienceConfig {
            fault_plan: Some(FaultPlan::default_intensity(42)),
            dist_plan: Some(kind),
            ..ResilienceConfig::default()
        };
        let run = run_resilient(&c, 4, &cfg).unwrap();
        assert!(
            run.state.approx_eq(&reference, 0.0),
            "{kind} under faults diverged: max diff {}",
            run.state.max_abs_diff(&reference)
        );
        let injected: u64 = run.stats.iter().map(|s| s.faults_injected).sum();
        assert!(injected > 0, "{kind}: the fault plan must actually fire");
    }
}

#[test]
fn resilient_rollback_replays_planned_pre_swaps_exactly() {
    // Forced rollbacks land mid-plan; the replay must reconstruct the
    // physical layout (pre-swaps included) and still finish bit-exact.
    let c = library::random_circuit(8, 20, 9);
    let reference = serial(&c);
    for kind in [DistPlanKind::Reorder, DistPlanKind::Overlap] {
        let cfg = ResilienceConfig {
            checkpoint_every: 5,
            inject_failures: vec![7, 13],
            dist_plan: Some(kind),
            ..ResilienceConfig::default()
        };
        let run = run_resilient(&c, 4, &cfg).unwrap();
        assert!(
            run.state.approx_eq(&reference, 0.0),
            "{kind} rollback replay diverged: max diff {}",
            run.state.max_abs_diff(&reference)
        );
        assert_eq!(run.total_recoveries(), 8, "{kind}: two rollbacks on each of four ranks");
    }
}

#[test]
fn planned_kinds_exchange_no_more_than_naive_on_every_family() {
    // The planner's raison d'être, checked as a hard invariant on real
    // circuit families (the ≥2× wins are asserted in the E16 bench).
    for (name, c) in families() {
        let naive = plan_circuit(&c, 4, DistPlanKind::Naive).unwrap().profile.bytes_per_rank;
        for kind in [DistPlanKind::Reorder, DistPlanKind::Overlap] {
            let planned = plan_circuit(&c, 4, kind).unwrap().profile.bytes_per_rank;
            assert!(planned <= naive, "{name} {kind}: planned {planned} bytes vs naive {naive}");
        }
    }
}
