//! `qcs-dist`: distributed state-vector simulation over the `mpi-sim`
//! substrate.
//!
//! The state is sliced across `2^g` ranks by its top `g` index bits: rank
//! `r` owns the amplitudes whose global index starts with `r`. Qubits
//! below `n − g` are *local* (gates touch only rank-resident amplitudes);
//! the top `g` qubits are *global* — a dense gate on a global qubit pairs
//! each amplitude with one on a partner rank, costing a full local-buffer
//! exchange. That exchange is the communication pattern whose cost the
//! paper's multi-node analysis studies (experiment E5).
//!
//! * [`partition`] — the index split and ownership arithmetic.
//! * [`engine`] — [`DistState`]: gate application with
//!   the three communication regimes (none / pair exchange / global–local
//!   qubit swap), measurement, and gathering.
//! * [`error`] — [`DistError`]: typed failures replacing the engine's
//!   former panics, split into recoverable transients and hard errors.
//! * [`plan`] — [`DistPlan`]: exchange-minimizing qubit-reorder planning
//!   and comm/compute-overlapped execution (`QCS_DIST_PLAN` selects
//!   naive / reorder / overlap; all bit-identical).
//! * [`resilience`] — [`run_resilient`]: coordinated checkpoints,
//!   rollback-and-replay, and integrity guards over the engine.

pub mod engine;
pub mod error;
pub mod partition;
pub mod plan;
pub mod resilience;

pub use engine::{run_distributed, run_distributed_traced, DistState};
pub use error::DistError;
pub use partition::Partition;
pub use plan::{
    plan_circuit, run_distributed_planned, run_distributed_planned_traced, DistPlan, DistPlanKind,
    PlannedGate,
};
pub use resilience::{run_resilient, RecoveryReport, ResilienceConfig, ResilientRun};
