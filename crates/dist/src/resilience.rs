//! Resilient distributed execution: coordinated checkpoints, rollback
//! and replay, and integrity enforcement around the rank loop.
//!
//! [`run_resilient`] is [`run_distributed_planned`](crate::plan::run_distributed_planned)
//! with an envelope: the same lowering, the same world, the same
//! `DistState::run` — handed one circuit gate's ops at a time
//! ([`DistPlan::gate_ends`]) so that between gates the envelope can do
//! its work:
//!
//! * **Coordinated checkpoints** — every `checkpoint_every` gates each
//!   rank snapshots its local shard in memory (and, when
//!   `checkpoint_dir` is set, persists it as a checksummed `.qsh` shard
//!   via [`qcs_core::checkpoint`]). Checkpoint instants are a pure
//!   function of the gate index, so all ranks snapshot at the same
//!   circuit position without extra synchronisation.
//! * **Integrity guards** — when the [`IntegrityPolicy`] is due, ranks
//!   allreduce the squared norm and sweep their shards for NaN/Inf;
//!   `repair` renormalizes in place, `check` turns drift into a
//!   recoverable error.
//! * **Rollback and replay** — a recoverable failure (transport error,
//!   integrity violation, injected fault) rewinds the rank to its last
//!   snapshot and replays from there, burning one unit of the
//!   `max_replays` budget. Each recovery is recorded as an
//!   [`ExchangePhase::Recovery`] exchange span when tracing is on.
//!
//! The physical layout at a gate boundary is a pure function of the op
//! list's prefix, so restoring a shard's bytes restores the layout too,
//! and replaying a gate replays the swaps lowered ahead of it. The
//! envelope steps the *blocking* form of the list: an overlapped swap's
//! deferred gates straddle gate boundaries, so [`DistPlanKind::Overlap`]
//! runs as its reorder list — same bytes, unchunked messages.
//!
//! Recovery is coordinated because every *recoverable* error the
//! substrate produces is deterministic and symmetric: injected faults
//! fire at fixed gate indices on every rank, and integrity verdicts are
//! computed from an allreduced norm all ranks share. Ranks therefore
//! roll back at the same gate without electing a coordinator.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

use mpi_sim::collectives::ReduceOp;
use mpi_sim::{Comm, CommStats, FaultPlan};
use qcs_core::checkpoint::{Checkpointer, ShardMeta};
use qcs_core::circuit::Circuit;
use qcs_core::complex::C64;
use qcs_core::integrity::{self, IntegrityPolicy, Outcome};
use qcs_core::state::StateVector;
use qcs_core::telemetry::{ExchangePhase, TelemetryConfig, Trace};

use crate::engine::{DistState, RankOp};
use crate::error::DistError;
use crate::plan::{run_world, DistPlan, DistPlanKind};

/// Knobs for [`run_resilient`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Fault plan injected into the communication substrate. `None`
    /// runs the zero-overhead fast path.
    pub fault_plan: Option<FaultPlan>,
    /// Snapshot cadence in gates; `0` keeps only the initial snapshot.
    pub checkpoint_every: usize,
    /// When set, each rank also persists its snapshots as checksummed
    /// shard files under `<dir>/rank<r>/`.
    pub checkpoint_dir: Option<PathBuf>,
    /// How many rollback-and-replay attempts a rank may spend before
    /// giving up with [`DistError::RecoveryExhausted`].
    pub max_replays: u32,
    /// Norm-drift / NaN policy applied between gates.
    pub integrity: IntegrityPolicy,
    /// Gate indices at which every rank fails once with
    /// [`DistError::Injected`] — the deterministic hook the resilience
    /// tests and E13 use to exercise the rollback path end to end.
    pub inject_failures: Vec<usize>,
    /// Telemetry for recovery spans; disabled by default.
    pub telemetry: TelemetryConfig,
    /// Distributed scheduling policy. Checkpoints and recovery work
    /// identically under every kind, and all kinds produce
    /// bit-identical states; [`DistPlanKind::Overlap`] keeps its
    /// reduced exchange volume but not the chunked-nonblocking message
    /// pattern, which cannot cross a checkpointable gate boundary.
    pub dist_plan: DistPlanKind,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            fault_plan: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            max_replays: 3,
            integrity: IntegrityPolicy::default(),
            inject_failures: Vec::new(),
            telemetry: TelemetryConfig::default(),
            dist_plan: DistPlanKind::Naive,
        }
    }
}

/// Per-rank recovery accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Rollback-and-replay cycles performed.
    pub recoveries: u64,
    /// Snapshots taken (beyond the initial one).
    pub checkpoints: u64,
    /// Integrity repairs (renormalizations) applied.
    pub repairs: u64,
    /// Gates re-executed across all replays.
    pub gates_replayed: u64,
}

/// Everything a resilient run produces.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    /// The reassembled final state.
    pub state: StateVector,
    /// Per-rank communication statistics (logical message accounting;
    /// retries and corruption drops appear in the resilience counters).
    pub stats: Vec<CommStats>,
    /// Per-rank recovery accounting.
    pub recovery: Vec<RecoveryReport>,
    /// Per-rank traces when `telemetry.enabled`; empty otherwise.
    pub traces: Vec<Trace>,
}

impl ResilientRun {
    /// Total rollback-and-replay cycles across ranks.
    pub fn total_recoveries(&self) -> u64 {
        self.recovery.iter().map(|r| r.recoveries).sum()
    }

    /// Render this run in the unified [`Outcome`](qcs_core::outcome::Outcome)
    /// schema (kind `"resilient"`, one member per rank). Strategy,
    /// backend, and elapsed time come from the traces when telemetry
    /// was enabled; the recovery counters are summed across ranks.
    pub fn outcome(&self) -> qcs_core::outcome::Outcome {
        let (strategy, backend, threads, n_qubits) = match self.traces.first() {
            Some(t) => {
                (t.meta.strategy.clone(), t.meta.backend.clone(), t.meta.threads, t.meta.n_qubits)
            }
            None => (String::new(), String::new(), 1, self.state.n_qubits()),
        };
        qcs_core::outcome::Outcome {
            kind: "resilient".to_string(),
            label: String::new(),
            elapsed_seconds: self.traces.iter().map(|t| t.summary.wall_ns).max().unwrap_or(0)
                as f64
                * 1e-9,
            strategy,
            backend,
            threads,
            n_qubits,
            gates: 0,
            sweeps: 0,
            members: self.recovery.len() as u64,
            batch_id: 0,
            spans: self.traces.iter().map(|t| t.summary.spans as u64).sum(),
            bytes: self.traces.iter().map(|t| t.summary.bytes).sum(),
            recoveries: self.total_recoveries(),
            checkpoints: self.recovery.iter().map(|r| r.checkpoints).sum(),
            repairs: self.recovery.iter().map(|r| r.repairs).sum(),
            member_stats: self
                .traces
                .iter()
                .enumerate()
                .map(|(m, t)| qcs_core::outcome::MemberStats {
                    member: m as u32,
                    spans: t.summary.spans as u64,
                    bytes: t.summary.bytes,
                    wall_ns: t.summary.wall_ns,
                })
                .collect(),
        }
    }
}

/// Run `circuit` from |0…0⟩ over `n_ranks` with the recovery envelope
/// described in the [module docs](self).
pub fn run_resilient(
    circuit: &Circuit,
    n_ranks: usize,
    cfg: &ResilienceConfig,
) -> Result<ResilientRun, DistError> {
    let kind = match cfg.dist_plan {
        DistPlanKind::Overlap => DistPlanKind::Reorder,
        blocking => blocking,
    };
    let run = run_world(
        circuit,
        n_ranks,
        kind,
        cfg.fault_plan.clone(),
        cfg.telemetry.enabled.then_some(&cfg.telemetry),
        &format!("dist-resilient:{n_ranks}"),
        |st, comm, plan, ops| run_rank(st, comm, cfg, plan, ops),
    )?;
    Ok(ResilientRun {
        state: run.state,
        stats: run.stats,
        recovery: run.per_rank,
        traces: run.traces,
    })
}

/// One rank's envelope around the rank loop: gate by gate, with the
/// rollback target kept between them.
fn run_rank(
    st: &mut DistState,
    comm: &mut Comm,
    cfg: &ResilienceConfig,
    plan: &DistPlan,
    ops: &[Option<RankOp>],
) -> Result<RecoveryReport, DistError> {
    let ckpt = match &cfg.checkpoint_dir {
        Some(dir) => Some(
            Checkpointer::new(dir.join(format!("rank{}", comm.rank())), "shard", 2)
                .map_err(|e| DistError::Checkpoint(e.to_string()))?,
        ),
        None => None,
    };
    let mut report = RecoveryReport::default();
    // `snapshot` is the rollback target: (next gate index, shard copy).
    let mut snapshot: (usize, Vec<C64>) = (0, st.local_amps().to_vec());
    let mut replays_left = cfg.max_replays;
    let mut pending_failures: HashSet<usize> = cfg.inject_failures.iter().copied().collect();
    let mut i = 0usize;
    while i < plan.gate_ends.len() {
        let t0 = Instant::now();
        let first = i.checked_sub(1).map_or(0, |prev| plan.gate_ends[prev]);
        let gate_ops = &ops[first..plan.gate_ends[i]];
        match step_gate(st, comm, cfg, &mut pending_failures, &mut report, gate_ops, i) {
            Ok(()) => {
                if cfg.checkpoint_every != 0 && (i + 1).is_multiple_of(cfg.checkpoint_every) {
                    snapshot = (i + 1, st.local_amps().to_vec());
                    report.checkpoints += 1;
                    if let Some(c) = &ckpt {
                        let meta = ShardMeta {
                            n_qubits: plan.part.n_qubits(),
                            rank: comm.rank() as u32,
                            step: (i + 1) as u64,
                        };
                        c.save(st.local_amps(), &meta)
                            .map_err(|e| DistError::Checkpoint(e.to_string()))?;
                    }
                }
                i += 1;
            }
            Err(e) if e.recoverable() => {
                if replays_left == 0 {
                    return Err(DistError::RecoveryExhausted {
                        replays: cfg.max_replays,
                        gate_index: i,
                    });
                }
                replays_left -= 1;
                report.recoveries += 1;
                report.gates_replayed += (i - snapshot.0) as u64;
                st.local_amps_mut().copy_from_slice(&snapshot.1);
                // The recovery span carries the failing gate index and
                // the shard volume that was rolled back.
                st.record_exchange(
                    ExchangePhase::Recovery,
                    &[i as u32],
                    snapshot.1.len() as u64,
                    t0.elapsed(),
                );
                i = snapshot.0;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(report)
}

/// Run gate `i`'s ops (the swaps lowered ahead of it, then its sweep)
/// and, when due, the integrity guard. Fallible so the caller can route
/// everything recoverable through one rollback arm.
fn step_gate(
    st: &mut DistState,
    comm: &mut Comm,
    cfg: &ResilienceConfig,
    pending_failures: &mut HashSet<usize>,
    report: &mut RecoveryReport,
    gate_ops: &[Option<RankOp>],
    i: usize,
) -> Result<(), DistError> {
    if pending_failures.remove(&i) {
        return Err(DistError::Injected { gate_index: i });
    }
    st.run(comm, gate_ops)?;
    if cfg.integrity.due(i) {
        let local: f64 = st.local_amps().iter().map(|a| a.norm_sqr()).sum();
        let global = comm.allreduce_scalar(ReduceOp::Sum, local);
        match integrity::enforce_with_norm(&cfg.integrity, st.local_amps_mut(), global, i)? {
            Outcome::Clean => {}
            Outcome::Renormalized { .. } => report.repairs += 1,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::run_distributed;
    use qcs_core::integrity::IntegrityMode;
    use qcs_core::library;
    use qcs_core::telemetry::SpanKind;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("qcs_resilience_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn resilient_run_without_faults_matches_plain() {
        let c = library::qft(7);
        let (plain, _) = run_distributed(&c, 4).unwrap();
        let run = run_resilient(&c, 4, &ResilienceConfig::default()).unwrap();
        assert!(plain.approx_eq(&run.state, 0.0), "no faults: states must be bit-identical");
        assert_eq!(run.total_recoveries(), 0);
    }

    #[test]
    fn injected_failures_roll_back_and_replay_to_the_same_state() {
        let c = library::qft(7);
        let (plain, _) = run_distributed(&c, 4).unwrap();
        let cfg = ResilienceConfig {
            checkpoint_every: 5,
            inject_failures: vec![2, 11, 17],
            telemetry: TelemetryConfig::on(),
            ..ResilienceConfig::default()
        };
        let run = run_resilient(&c, 4, &cfg).unwrap();
        assert!(plain.approx_eq(&run.state, 0.0), "recovered run must be bit-identical");
        for rep in &run.recovery {
            assert_eq!(rep.recoveries, 3, "one rollback per injected failure");
            assert!(rep.gates_replayed > 0);
        }
        // Every rank recorded one Recovery span per rollback.
        assert_eq!(run.traces.len(), 4);
        for t in &run.traces {
            let recov: Vec<_> = t
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Exchange(ExchangePhase::Recovery))
                .collect();
            assert_eq!(recov.len(), 3);
            assert_eq!(recov[0].qubits, vec![2], "span carries the failing gate index");
        }
    }

    #[test]
    fn replay_budget_exhaustion_is_a_typed_error() {
        let c = library::ghz(6);
        let cfg = ResilienceConfig {
            max_replays: 1,
            inject_failures: vec![0, 1],
            ..ResilienceConfig::default()
        };
        let err = run_resilient(&c, 2, &cfg).unwrap_err();
        match err {
            DistError::RecoveryExhausted { replays: 1, .. } => {}
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        }
    }

    #[test]
    fn transport_faults_with_retry_produce_identical_states() {
        // Default-intensity drop/dup/flip/delay faults on every link:
        // the ARQ layer retries until delivery, so the run must complete
        // bit-identically to the fault-free run, with the recovery work
        // visible in the CommStats counters.
        let c = library::random_circuit(7, 8, 21);
        let (clean, _) = run_distributed(&c, 4).unwrap();
        let cfg = ResilienceConfig {
            fault_plan: Some(FaultPlan::default_intensity(7)),
            ..ResilienceConfig::default()
        };
        let run = run_resilient(&c, 4, &cfg).unwrap();
        assert!(clean.approx_eq(&run.state, 0.0), "faulted run must be bit-identical");
        let injected: u64 = run.stats.iter().map(|s| s.faults_injected).sum();
        assert!(injected > 0, "the plan must actually have fired");
        assert_eq!(run.total_recoveries(), 0, "transport-level faults heal below rollback");
    }

    #[test]
    fn integrity_check_passes_on_unitary_circuits() {
        let c = library::qft(6);
        let cfg = ResilienceConfig {
            integrity: IntegrityPolicy { mode: IntegrityMode::Check, ..Default::default() },
            ..ResilienceConfig::default()
        };
        let run = run_resilient(&c, 4, &cfg).unwrap();
        let (plain, _) = run_distributed(&c, 4).unwrap();
        assert!(plain.approx_eq(&run.state, 0.0));
        for rep in &run.recovery {
            assert_eq!(rep.repairs, 0);
        }
    }

    #[test]
    fn disk_checkpoints_are_written_per_rank() {
        let dir = tmpdir("shards");
        let c = library::ghz(6); // 6 gates
        let cfg = ResilienceConfig {
            checkpoint_every: 2,
            checkpoint_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        };
        let run = run_resilient(&c, 2, &cfg).unwrap();
        for rep in &run.recovery {
            assert_eq!(rep.checkpoints, 3);
        }
        for rank in 0..2 {
            let ck = Checkpointer::new(dir.join(format!("rank{rank}")), "shard", 2).unwrap();
            let (amps, meta) = ck.load_latest().unwrap().expect("latest shard");
            assert_eq!(meta.rank, rank as u32);
            assert_eq!(meta.step, 6);
            assert_eq!(meta.n_qubits, 6);
            assert_eq!(amps.len(), 1 << 5);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_and_injected_failures_compose() {
        // Both layers at once: lossy transport below, forced rollbacks
        // above — the answer still has to be exact.
        let c = library::qft(6);
        let (clean, _) = run_distributed(&c, 2).unwrap();
        let cfg = ResilienceConfig {
            fault_plan: Some(FaultPlan::default_intensity(11)),
            checkpoint_every: 4,
            inject_failures: vec![7],
            ..ResilienceConfig::default()
        };
        let run = run_resilient(&c, 2, &cfg).unwrap();
        assert!(clean.approx_eq(&run.state, 0.0));
        assert_eq!(run.total_recoveries(), 2, "one rollback per rank");
    }
}
