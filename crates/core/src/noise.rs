//! Stochastic noise via quantum trajectories.
//!
//! A pure state-vector simulator cannot hold a density matrix, but it
//! can sample *trajectories*: after each gate, apply a randomly drawn
//! Kraus operator. Averaging observables over trajectories converges to
//! the open-system result, at `2^n` memory instead of `4^n` — the
//! standard noisy-simulation mode of state-vector engines.
//!
//! Channels:
//! * [`NoiseChannel::BitFlip`] / [`NoiseChannel::PhaseFlip`] /
//!   [`NoiseChannel::Depolarizing`] — Pauli channels (unitary Kraus ops,
//!   no renormalization needed);
//! * [`NoiseChannel::AmplitudeDamping`] — T1 decay, with the proper
//!   state-dependent branch probabilities and renormalization.

use rand::Rng;

use omp_par::Schedule;

use crate::circuit::{Circuit, Gate};
use crate::complex::{C64, ONE};
use crate::kernels::dispatch::{apply_gate_with, GateKernel};
use crate::kernels::simd::{self, KernelBackend};
use crate::state::StateVector;

/// A single-qubit noise channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseChannel {
    /// X with probability `p`.
    BitFlip { p: f64 },
    /// Z with probability `p`.
    PhaseFlip { p: f64 },
    /// X, Y, or Z each with probability `p/3`.
    Depolarizing { p: f64 },
    /// T1 relaxation: |1⟩ decays to |0⟩ with probability `gamma`.
    AmplitudeDamping { gamma: f64 },
}

impl NoiseChannel {
    fn validate(&self) {
        let p = match *self {
            NoiseChannel::BitFlip { p }
            | NoiseChannel::PhaseFlip { p }
            | NoiseChannel::Depolarizing { p } => p,
            NoiseChannel::AmplitudeDamping { gamma } => gamma,
        };
        assert!((0.0..=1.0).contains(&p), "channel probability {p} outside [0, 1]");
    }
}

/// Which error (if any) a channel application realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorEvent {
    None,
    PauliX,
    PauliY,
    PauliZ,
    Decay,
}

/// Apply one channel to qubit `q` on backend `be`, drawing the branch
/// from `rng`. Returns the realized error.
pub fn apply_channel<R: Rng>(
    be: &KernelBackend,
    state: &mut StateVector,
    q: u32,
    channel: NoiseChannel,
    rng: &mut R,
) -> ErrorEvent {
    channel.validate();
    assert!(q < state.n_qubits());
    match channel {
        NoiseChannel::BitFlip { p } => {
            if rng.gen_range(0.0..1.0) < p {
                apply_gate_with(be, state.amplitudes_mut(), &Gate::X(q));
                ErrorEvent::PauliX
            } else {
                ErrorEvent::None
            }
        }
        NoiseChannel::PhaseFlip { p } => {
            if rng.gen_range(0.0..1.0) < p {
                apply_gate_with(be, state.amplitudes_mut(), &Gate::Z(q));
                ErrorEvent::PauliZ
            } else {
                ErrorEvent::None
            }
        }
        NoiseChannel::Depolarizing { p } => {
            let u: f64 = rng.gen_range(0.0..1.0);
            if u < p {
                let (pauli, event) = match (u / p * 3.0) as usize {
                    0 => (Gate::X(q), ErrorEvent::PauliX),
                    1 => (Gate::Y(q), ErrorEvent::PauliY),
                    _ => (Gate::Z(q), ErrorEvent::PauliZ),
                };
                apply_gate_with(be, state.amplitudes_mut(), &pauli);
                event
            } else {
                ErrorEvent::None
            }
        }
        NoiseChannel::AmplitudeDamping { gamma } => {
            // Kraus: K0 = diag(1, √(1−γ)), K1 = |0⟩⟨1|·√γ.
            // Branch probabilities depend on the state: P(decay) = γ·P(1).
            let p1 = state.prob_qubit_one(q);
            let p_decay = gamma * p1;
            if rng.gen_range(0.0..1.0) < p_decay {
                // Apply K1 and renormalize: amplitude of |…1…⟩ moves to
                // |…0…⟩.
                let bit = 1usize << q;
                let n = state.len();
                let amps = state.amplitudes_mut();
                for i in 0..n {
                    if i & bit == 0 {
                        amps[i] = amps[i | bit];
                        amps[i | bit] = C64::default();
                    }
                }
                state.normalize();
                ErrorEvent::Decay
            } else {
                // K0 branch: damp the |1⟩ amplitudes and renormalize.
                // K0 is diagonal but not unitary, so no `Gate` names it:
                // hand the dispatcher its kernel shape directly.
                let k0 = GateKernel::Diag1(q, ONE, C64::real((1.0 - gamma).sqrt()));
                k0.apply(be, None, Schedule::default(), state.amplitudes_mut());
                state.normalize();
                ErrorEvent::None
            }
        }
    }
}

/// Run one noisy trajectory on backend `be`: after every gate, apply
/// `channel` to each qubit the gate touched. Returns the number of
/// realized errors.
pub fn run_trajectory<R: Rng>(
    be: &KernelBackend,
    circuit: &Circuit,
    state: &mut StateVector,
    channel: NoiseChannel,
    rng: &mut R,
) -> usize {
    assert_eq!(circuit.n_qubits(), state.n_qubits());
    let mut errors = 0;
    for g in circuit.gates() {
        apply_gate_with(be, state.amplitudes_mut(), g);
        for q in g.qubits() {
            if apply_channel(be, state, q, channel, rng) != ErrorEvent::None {
                errors += 1;
            }
        }
    }
    errors
}

/// Average an observable over `trajectories` noisy runs from |0…0⟩, on
/// the default backend.
pub fn average_expectation<R: Rng>(
    circuit: &Circuit,
    observable: &crate::expectation::PauliString,
    channel: NoiseChannel,
    trajectories: usize,
    rng: &mut R,
) -> f64 {
    let mut acc = 0.0;
    for _ in 0..trajectories {
        let mut s = StateVector::zero(circuit.n_qubits());
        run_trajectory(simd::active(), circuit, &mut s, channel, rng);
        acc += observable.expectation(&s);
    }
    acc / trajectories as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expectation::PauliString;
    use crate::library;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The channel and trajectory under test, on the default backend.
    fn apply(s: &mut StateVector, q: u32, ch: NoiseChannel, rng: &mut StdRng) -> ErrorEvent {
        apply_channel(simd::active(), s, q, ch, rng)
    }

    fn trajectory(c: &Circuit, s: &mut StateVector, ch: NoiseChannel, rng: &mut StdRng) -> usize {
        run_trajectory(simd::active(), c, s, ch, rng)
    }

    #[test]
    fn zero_probability_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let circuit = library::ghz(5);
        let mut noisy = StateVector::zero(5);
        trajectory(&circuit, &mut noisy, NoiseChannel::Depolarizing { p: 0.0 }, &mut rng);
        let mut clean = StateVector::zero(5);
        crate::sim::Simulator::new().run(&circuit, &mut clean).unwrap();
        assert!(noisy.approx_eq(&clean, 1e-12));
    }

    #[test]
    fn certain_bitflip_flips() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = StateVector::zero(2);
        let e = apply(&mut s, 0, NoiseChannel::BitFlip { p: 1.0 }, &mut rng);
        assert_eq!(e, ErrorEvent::PauliX);
        assert!((s.probability(0b01) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_flip_preserves_probabilities() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = StateVector::plus(3);
        let before = s.probabilities();
        apply(&mut s, 1, NoiseChannel::PhaseFlip { p: 1.0 }, &mut rng);
        let after = s.probabilities();
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-12);
        }
        // But it is not the identity: ⟨X₁⟩ flips sign on |+⟩.
        assert!((PauliString::x(1).expectation(&s) + 1.0).abs() < 1e-10);
    }

    #[test]
    fn norm_preserved_by_every_channel() {
        let mut rng = StdRng::seed_from_u64(4);
        for channel in [
            NoiseChannel::BitFlip { p: 0.5 },
            NoiseChannel::PhaseFlip { p: 0.5 },
            NoiseChannel::Depolarizing { p: 0.7 },
            NoiseChannel::AmplitudeDamping { gamma: 0.3 },
        ] {
            let mut s = StateVector::random(5, &mut rng);
            for q in 0..5 {
                apply(&mut s, q, channel, &mut rng);
            }
            assert!((s.norm_sqr() - 1.0).abs() < 1e-9, "{channel:?}");
        }
    }

    #[test]
    fn full_damping_resets_to_zero_state() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = StateVector::basis(3, 0b111);
        for q in 0..3 {
            let e = apply(&mut s, q, NoiseChannel::AmplitudeDamping { gamma: 1.0 }, &mut rng);
            assert_eq!(e, ErrorEvent::Decay);
        }
        assert!((s.probability(0) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn damping_on_ground_state_is_identity() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut s = StateVector::zero(3);
        let e = apply(&mut s, 0, NoiseChannel::AmplitudeDamping { gamma: 0.9 }, &mut rng);
        assert_eq!(e, ErrorEvent::None);
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_decays_ghz_coherence() {
        // The GHZ X-parity ⟨X⊗…⊗X⟩ is +1 noiseless and decays toward 0
        // under depolarizing noise.
        let n = 4u32;
        let circuit = library::ghz(n);
        let all_x = PauliString::new((0..n).map(|q| (q, crate::expectation::Pauli::X)).collect());
        let mut rng = StdRng::seed_from_u64(7);
        let clean = average_expectation(
            &circuit,
            &all_x,
            NoiseChannel::Depolarizing { p: 0.0 },
            1,
            &mut rng,
        );
        assert!((clean - 1.0).abs() < 1e-9);
        let noisy = average_expectation(
            &circuit,
            &all_x,
            NoiseChannel::Depolarizing { p: 0.2 },
            300,
            &mut rng,
        );
        assert!(noisy.abs() < 0.7, "coherence should decay: {noisy}");
        assert!(noisy > -0.5, "but not overshoot wildly: {noisy}");
    }

    #[test]
    fn error_rate_matches_channel_probability() {
        // 100 single-qubit gates at p = 0.25: expect ~25 errors.
        let mut c = Circuit::new(1);
        for _ in 0..100 {
            c.h(0);
        }
        let mut rng = StdRng::seed_from_u64(8);
        let mut total = 0usize;
        let reps = 30;
        for _ in 0..reps {
            let mut s = StateVector::zero(1);
            total += trajectory(&c, &mut s, NoiseChannel::BitFlip { p: 0.25 }, &mut rng);
        }
        let rate = total as f64 / (100.0 * reps as f64);
        assert!((rate - 0.25).abs() < 0.05, "observed error rate {rate}");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_probability_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = StateVector::zero(1);
        apply(&mut s, 0, NoiseChannel::BitFlip { p: 1.5 }, &mut rng);
    }
}
