//! The shape of a `planned:<b>:<k>` lowering, for callers that want it
//! without running the circuit.
//!
//! [`Strategy::Planned`] lowers in [`crate::program`] exactly as
//! [`Strategy::Blocked`] does — one block pass per maximal run of gates
//! that pin to a `2^b` block — and fuses each all-low stretch of a run
//! into ≤ `k`-qubit blocks inside the pass. It moves no qubit: a
//! relocation swap is a full state sweep here, not the exchange it
//! replaces across ranks (`qcs-dist`'s plans), so it never paid.

use crate::circuit::Circuit;
use crate::program::{lower, SweepOp};
use crate::sim::Strategy;

/// What a planned lowering sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    blocks: usize,
    gates_fallback: usize,
}

impl Plan {
    /// Cache-blocked passes.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Gates that move amplitudes between blocks, each in its own sweep.
    pub fn gates_fallback(&self) -> usize {
        self.gates_fallback
    }
}

/// Lower `circuit` under `planned:<block_qubits>:<max_k>` with the
/// process-wide calibration and count what it sweeps.
pub fn plan_circuit(circuit: &Circuit, block_qubits: u32, max_k: u32) -> Plan {
    let program = lower(circuit, Strategy::Planned { block_qubits, max_k }, None);
    let count = |f: fn(&SweepOp) -> bool| program.ops.iter().filter(|op| f(op)).count();
    Plan {
        blocks: count(|op| matches!(op, SweepOp::BlockPass(_))),
        gates_fallback: count(|op| matches!(op, SweepOp::Gate(_))),
    }
}
