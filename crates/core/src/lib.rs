//! `qcs-core`: a state-vector quantum circuit simulator built for
//! performance analysis on the (modelled) Fujitsu A64FX processor.
//!
//! This is the primary contribution of the reproduced paper: a full
//! Schrödinger-style simulator that stores all `2^n` complex amplitudes
//! and applies gates as sparse linear operators over them, with the
//! kernel-level structure that the paper's performance analysis studies:
//!
//! * [`state`] — the aligned amplitude array ([`StateVector`]).
//! * [`gates`] — the gate set and its matrices.
//! * [`kernels`] — the hot loops: scalar (autovectorized), SVE-counted,
//!   parallel (OpenMP-style), and specialized (diagonal / permutation /
//!   controlled) variants of gate application.
//! * [`fusion`] — gate fusion into dense k-qubit unitaries (the Qiskit
//!   Aer-style optimization the paper compares against gate-by-gate
//!   application).
//! * [`circuit`] — the circuit IR and builder.
//! * [`library`] — benchmark circuit generators (QFT, GHZ, random,
//!   quantum volume, Trotterized Ising, QAOA, Grover).
//! * [`measure`] / [`expectation`] — sampling and observables.
//! * [`program`] — the one lowering from (circuit, strategy) to a flat
//!   [`Program`](program::Program) of sweep ops: what the engines
//!   interpret, the model prices and the tracer records.
//! * [`sim`] — the execution engine: one interpreter over a program,
//!   with threading, timing, and the resilience guard.
//! * [`perf`] — per-gate traffic/time prediction hooks into
//!   `a64fx-model`.
//! * [`calibrate`] — the fixed per-kernel cost table every lowering is
//!   priced on, and [`Strategy`](sim::Strategy)`::Auto`'s resolver on
//!   it (plus the host micro-benchmark the benchmark times).
//! * [`batch`] — member-major batched multi-circuit execution: one
//!   [`BatchSimulator`](batch::BatchSimulator) call runs B independent
//!   states (or noisy trajectories) bit-identically to B single runs,
//!   each member's whole program on one worker while it is cache-resident.
//! * [`variational`] — parameterized circuits, parameter-shift
//!   gradients, and VQE optimizer loops that evaluate each iteration's
//!   parameter sweep as one batch, reduced in the worker.
//! * [`testing`] — seeded random-circuit generators shared by the
//!   differential-conformance test suites.
//!
//! # Quick start
//!
//! ```
//! use qcs_core::prelude::*;
//!
//! // Build a 3-qubit GHZ circuit.
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2);
//!
//! // Run it.
//! let mut state = StateVector::zero(3);
//! Simulator::new().run(&c, &mut state).unwrap();
//!
//! // |000⟩ and |111⟩ each with probability 1/2.
//! let p = state.probabilities();
//! assert!((p[0] - 0.5).abs() < 1e-12);
//! assert!((p[7] - 0.5).abs() < 1e-12);
//! ```

pub mod align;
pub mod analysis;
pub mod batch;
pub mod calibrate;
pub mod checkpoint;
pub mod circuit;
pub mod complex;
pub mod config;
pub mod expectation;
pub mod fusion;
pub mod gates;
pub mod integrity;
pub mod io;
pub mod json;
pub mod kernels;
pub mod library;
pub mod measure;
pub mod noise;
pub mod outcome;
pub mod perf;
pub mod plan;
pub mod program;
pub mod qasm;
pub mod sim;
pub mod state;
pub mod telemetry;
pub mod testing;
pub mod variational;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::batch::{
        BatchReport, BatchSimulator, MeasuredBatch, TrajectoryBatch, MAX_BATCH,
    };
    pub use crate::circuit::{Circuit, Gate};
    pub use crate::complex::C64;
    pub use crate::config::{CheckpointConfig, PoolSpec, SimConfig};
    pub use crate::expectation::{CompiledObservable, Hamiltonian, Observable, Pauli, PauliString};
    pub use crate::gates::{Mat2, Mat4};
    pub use crate::integrity::{IntegrityMode, IntegrityPolicy};
    pub use crate::kernels::simd::BackendChoice;
    pub use crate::measure::MeasurementResult;
    pub use crate::noise::NoiseChannel;
    pub use crate::outcome::{MemberStats, Outcome};
    pub use crate::sim::{GuardReport, MeasuredReport, RunReport, SimError, Simulator, Strategy};
    pub use crate::state::StateVector;
    pub use crate::telemetry::TelemetryConfig;
    pub use crate::variational::{
        hardware_efficient_ansatz, ParamCircuit, ParamOp, VqeDriver, VqeResult,
    };
    pub use omp_par::Schedule;
}

pub use complex::C64;
pub use state::StateVector;

#[cfg(test)]
mod proptests;
