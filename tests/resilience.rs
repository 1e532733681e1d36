//! End-to-end resilience: circuits run under injected transport faults
//! and forced rollbacks must finish bit-identical to clean runs, with
//! the recovery work visible in the statistics and traces.

use a64fx_qcs::core::library;
use a64fx_qcs::core::prelude::*;
use a64fx_qcs::core::telemetry::{ExchangePhase, SpanKind};
use a64fx_qcs::dist::{run_distributed, run_resilient, DistError, ResilienceConfig};
use a64fx_qcs::mpi::FaultPlan;

#[test]
fn default_intensity_faults_complete_bit_identical_with_visible_retries() {
    // The acceptance scenario: drop + delay + bit-flip at the default
    // intensity, a real circuit, and the requirement that the result is
    // *bit-identical* to the fault-free run while the trace of the
    // recovery work (retries, redeliveries) is observable.
    let circuit = library::qft(8);
    let (clean, _) = run_distributed(&circuit, 4).unwrap();
    let cfg = ResilienceConfig {
        fault_plan: Some(FaultPlan::default_intensity(42)),
        ..ResilienceConfig::default()
    };
    let run = run_resilient(&circuit, 4, &cfg).unwrap();
    assert!(
        clean.approx_eq(&run.state, 0.0),
        "faulted run diverged: max diff {}",
        clean.max_abs_diff(&run.state)
    );
    let injected: u64 = run.stats.iter().map(|s| s.faults_injected).sum();
    let retries: u64 = run.stats.iter().map(|s| s.retries).sum();
    assert!(injected > 0, "default intensity must inject faults on this much traffic");
    assert!(retries > 0, "dropped/corrupted frames must surface as retries");
    // Logical accounting: the faulted run moved the same logical bytes
    // and messages as a fault-free run of the same engine — retries are
    // physical, never logical.
    let clean_run = run_resilient(&circuit, 4, &ResilienceConfig::default()).unwrap();
    for (a, b) in run.stats.iter().zip(&clean_run.stats) {
        assert_eq!(a.bytes_sent, b.bytes_sent, "logical byte accounting must ignore retries");
        assert_eq!(a.messages_sent, b.messages_sent);
    }
}

#[test]
fn rollback_recovery_is_traced_and_exact() {
    let circuit = library::random_circuit(8, 10, 5);
    let (clean, _) = run_distributed(&circuit, 4).unwrap();
    let cfg = ResilienceConfig {
        checkpoint_every: 6,
        inject_failures: vec![4, 13],
        telemetry: TelemetryConfig::on(),
        ..ResilienceConfig::default()
    };
    let run = run_resilient(&circuit, 4, &cfg).unwrap();
    assert!(clean.approx_eq(&run.state, 0.0), "rolled-back run must be bit-identical");
    assert_eq!(run.total_recoveries(), 8, "two rollbacks on each of four ranks");
    for trace in &run.traces {
        let recoveries = trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Exchange(ExchangePhase::Recovery))
            .count();
        assert_eq!(recoveries, 2, "each rank records one Recovery span per rollback");
    }
}

#[test]
fn fault_free_resilient_path_matches_plain_engine_exactly() {
    // With every resilience feature off the wrapper must be a no-op.
    for ranks in [2usize, 4] {
        let circuit = library::trotter_ising(8, 3, 1.0, 0.6, 0.1);
        let (plain, plain_stats) = run_distributed(&circuit, ranks).unwrap();
        let run = run_resilient(&circuit, ranks, &ResilienceConfig::default()).unwrap();
        assert!(plain.approx_eq(&run.state, 0.0));
        for (a, b) in run.stats.iter().zip(&plain_stats) {
            assert_eq!(a.bytes_sent, b.bytes_sent);
            assert_eq!(a.retries, 0);
            assert_eq!(b.retries, 0);
        }
    }
}

#[test]
fn unsupported_width_is_a_typed_error_not_a_panic() {
    let mut wide = Circuit::new(6);
    wide.h(0);
    let narrow = Circuit::new(5);
    let err = a64fx_qcs::mpi::World::run(2, |comm| {
        let mut st = a64fx_qcs::dist::DistState::zero(wide.n_qubits(), comm).unwrap();
        st.apply_circuit(comm, &narrow).unwrap_err()
    });
    for e in err {
        assert_eq!(e, DistError::WidthMismatch { circuit: 5, state: 6 });
    }
}
