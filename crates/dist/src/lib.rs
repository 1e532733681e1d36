//! `qcs-dist`: distributed state-vector simulation over the `mpi-sim`
//! substrate.
//!
//! The state is sliced across `2^g` ranks by its top `g` index bits: rank
//! `r` owns the amplitudes whose global index starts with `r`. Qubits
//! below `n − g` are *local* (gates touch only rank-resident amplitudes);
//! the top `g` qubits are *global* — a dense gate on a global qubit pairs
//! each amplitude with one on a partner rank. Which gates cost an
//! exchange, and how many bytes it moves, is what the paper's multi-node
//! analysis studies (experiment E5) and what this crate decides in one
//! place: a run is *lowered* to a flat op list, then every rank executes
//! that list with one loop.
//!
//! * [`partition`] — the index split and ownership arithmetic.
//! * [`plan`] — [`plan_circuit`]: the lowering of (circuit, partition,
//!   [`DistPlanKind`]) to [`PlanOp`]s by three rules (comm-free /
//!   half-buffer swap / full-buffer pair exchange), its exchange
//!   accounting, each rank's kernels, and the `run_distributed*` harness.
//! * [`engine`] — [`DistState`]: a rank's shard, the exchange
//!   primitives, the rank loop, measurement and gathering.
//! * [`resilience`] — [`run_resilient`]: coordinated checkpoints,
//!   rollback-and-replay and integrity guards around the same loop.
//! * [`error`] — [`DistError`]: what the lowering rejects at the door
//!   and what a run can hit, split into recoverable transients and hard
//!   errors.

pub mod engine;
pub mod error;
pub mod partition;
pub mod plan;
pub mod resilience;

pub use engine::DistState;
pub use error::DistError;
pub use partition::Partition;
pub use plan::{
    plan_circuit, run_distributed, run_distributed_planned, run_distributed_planned_traced,
    run_distributed_traced, DistPlan, DistPlanKind, PlanOp,
};
pub use resilience::{run_resilient, RecoveryReport, ResilienceConfig, ResilientRun};
