//! Typed errors for the distributed engine.
//!
//! The original engine panicked on every "can't happen" branch —
//! acceptable for a single-process prototype, fatal for a resilient
//! runner that wants to roll back and retry. [`DistError`] captures the
//! failure modes the distributed layer can actually hit so callers (the
//! resilient executor, the CLI, tests) can distinguish *recoverable*
//! transients (transport failures, injected faults, integrity drift)
//! from hard programming or configuration errors.
//!
//! What depends only on the circuit and the geometry
//! ([`DistError::UnsupportedGate`], [`DistError::Partition`]) is
//! rejected once, by the lowering, before any rank thread starts;
//! recovery relies on the run-time errors being **deterministic and
//! symmetric**, so every rank reaches the same verdict at the same gate
//! and the world rolls back in lockstep without deadlocking a partner
//! mid-exchange.

use mpi_sim::CommError;
use qcs_core::integrity::IntegrityViolation;

/// Everything that can go wrong in the distributed engine.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A gate the lowering cannot place on ranks: a measurement or a
    /// classically-controlled gate (the ranks run unitary circuits).
    UnsupportedGate {
        /// Gate name as reported by [`qcs_core::circuit::Gate::name`].
        gate: String,
        /// Why the lowering rejected it.
        reason: String,
    },
    /// The rank count is not a power of two, or leaves a rank fewer
    /// than 3 local qubits.
    Partition {
        /// Qubits in the circuit.
        n_qubits: u32,
        /// Ranks asked for.
        n_ranks: usize,
    },
    /// Circuit width does not match the distributed state width.
    WidthMismatch {
        /// Qubits in the circuit.
        circuit: u32,
        /// Qubits in the state.
        state: u32,
    },
    /// The transport gave up on a message (retries exhausted, receive
    /// timeout). Recoverable by rollback when a checkpoint exists.
    Exchange(CommError),
    /// An integrity sweep found non-finite amplitudes or norm drift
    /// beyond tolerance. Recoverable by rollback.
    Integrity(IntegrityViolation),
    /// Checkpoint persistence failed (I/O or corrupt shard).
    Checkpoint(String),
    /// A deterministic fault injected via
    /// [`ResilienceConfig::inject_failures`](crate::resilience::ResilienceConfig::inject_failures).
    /// Always recoverable — it exists to exercise the rollback path.
    Injected {
        /// Gate index at which the failure fired.
        gate_index: usize,
    },
    /// The replay budget ran out while errors kept recurring.
    RecoveryExhausted {
        /// Replays that were attempted.
        replays: u32,
        /// Gate index of the final, unrecovered failure.
        gate_index: usize,
    },
    /// The configured trace sink could not be written.
    TraceIo(String),
    /// An invariant the engine relies on was violated — a bug, not an
    /// environmental condition.
    Internal(String),
}

impl DistError {
    /// Shorthand for invariant violations.
    pub(crate) fn internal(msg: impl Into<String>) -> DistError {
        DistError::Internal(msg.into())
    }

    /// Whether a rollback-and-replay attempt is sensible for this error.
    ///
    /// Transport failures, integrity violations, and injected faults are
    /// transient: re-running from the last coordinated checkpoint can
    /// succeed. Classification and configuration errors recur
    /// deterministically, so replaying them only burns the budget.
    pub fn recoverable(&self) -> bool {
        matches!(
            self,
            DistError::Exchange(_) | DistError::Integrity(_) | DistError::Injected { .. }
        )
    }
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::UnsupportedGate { gate, reason } => {
                write!(f, "unsupported gate `{gate}`: {reason}")
            }
            DistError::Partition { n_ranks, .. } if !n_ranks.is_power_of_two() => {
                write!(f, "rank count {n_ranks} is not a power of two")
            }
            DistError::Partition { n_qubits, n_ranks } => write!(
                f,
                "{n_ranks} ranks on {n_qubits} qubits leaves fewer than 3 local qubits; \
                 use a wider circuit or fewer ranks"
            ),
            DistError::WidthMismatch { circuit, state } => {
                write!(f, "circuit acts on {circuit} qubits but the state holds {state}")
            }
            DistError::Exchange(e) => write!(f, "exchange failed: {e}"),
            DistError::Integrity(v) => write!(f, "integrity violation: {v}"),
            DistError::Checkpoint(msg) => write!(f, "checkpoint failed: {msg}"),
            DistError::Injected { gate_index } => {
                write!(f, "injected failure at gate {gate_index}")
            }
            DistError::RecoveryExhausted { replays, gate_index } => {
                write!(f, "recovery exhausted after {replays} replays (failing gate {gate_index})")
            }
            DistError::TraceIo(why) => write!(f, "cannot write trace: {why}"),
            DistError::Internal(msg) => write!(f, "internal engine error: {msg}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<CommError> for DistError {
    fn from(e: CommError) -> DistError {
        DistError::Exchange(e)
    }
}

impl From<IntegrityViolation> for DistError {
    fn from(v: IntegrityViolation) -> DistError {
        DistError::Integrity(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transients_are_recoverable_and_hard_errors_are_not() {
        assert!(DistError::Injected { gate_index: 3 }.recoverable());
        assert!(DistError::from(CommError::Timeout { src: 0, tag: 7 }).recoverable());
        assert!(!DistError::WidthMismatch { circuit: 4, state: 8 }.recoverable());
        assert!(!DistError::internal("x").recoverable());
        assert!(!DistError::RecoveryExhausted { replays: 3, gate_index: 1 }.recoverable());
        assert!(!DistError::Checkpoint("disk full".into()).recoverable());
    }

    #[test]
    fn display_is_informative() {
        let e = DistError::UnsupportedGate { gate: "ccx".into(), reason: "no free qubit".into() };
        assert_eq!(e.to_string(), "unsupported gate `ccx`: no free qubit");
        let e = DistError::RecoveryExhausted { replays: 2, gate_index: 9 };
        assert!(e.to_string().contains("2 replays"));
        assert!(e.to_string().contains("gate 9"));
    }
}
