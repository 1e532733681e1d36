//! The state vector: `2^n` complex amplitudes.

use rand::Rng;

use crate::align::AlignedAmps;
use crate::complex::C64;

/// Maximum qubit count accepted (2^34 amplitudes = 256 GiB — beyond any
/// single host here, but the guard keeps index arithmetic safely in u64).
pub const MAX_QUBITS: u32 = 34;

/// A pure quantum state of `n` qubits in the computational basis.
///
/// Amplitude `amps[i]` is the coefficient of basis state `|i⟩`, with qubit
/// `q` mapped to bit `q` of the index (qubit 0 is the least significant
/// bit — the convention of QuEST and Qiskit statevectors).
#[derive(Debug, Clone)]
pub struct StateVector {
    n_qubits: u32,
    amps: AlignedAmps,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero(n_qubits: u32) -> StateVector {
        assert!((1..=MAX_QUBITS).contains(&n_qubits), "qubit count {n_qubits} out of range");
        let mut amps = AlignedAmps::zeroed(1usize << n_qubits);
        amps[0] = C64::real(1.0);
        StateVector { n_qubits, amps }
    }

    /// The state held by `amps`, `2^n_qubits` of them, already written.
    pub(crate) fn from_aligned(n_qubits: u32, amps: AlignedAmps) -> StateVector {
        assert!((1..=MAX_QUBITS).contains(&n_qubits) && amps.len() == 1 << n_qubits);
        StateVector { n_qubits, amps }
    }

    /// Back to `|0…0⟩` in place — a reused buffer's fresh start.
    pub fn reset(&mut self) {
        self.amps.as_mut_slice().fill(C64::default());
        self.amps[0] = C64::real(1.0);
    }

    /// A specific computational basis state `|index⟩`.
    pub fn basis(n_qubits: u32, index: usize) -> StateVector {
        let mut s = StateVector::zero(n_qubits);
        assert!(index < s.len(), "basis index {index} out of range");
        s.amps[0] = C64::default();
        s.amps[index] = C64::real(1.0);
        s
    }

    /// The uniform superposition `H^{⊗n}|0…0⟩`.
    pub fn plus(n_qubits: u32) -> StateVector {
        let mut s = StateVector::zero(n_qubits);
        let a = C64::real(1.0 / (s.len() as f64).sqrt());
        s.amps.as_mut_slice().fill(a);
        s
    }

    /// Build from explicit amplitudes. The vector must have power-of-two
    /// length and unit norm (within `1e-10`).
    pub fn from_amplitudes(amps: &[C64]) -> StateVector {
        let len = amps.len();
        assert!(len.is_power_of_two() && len >= 2, "length {len} is not a power of two ≥ 2");
        let n_qubits = len.trailing_zeros();
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-10, "amplitudes have norm² = {norm}, expected 1");
        let mut s = StateVector::zero(n_qubits);
        s.amps.as_mut_slice().copy_from_slice(amps);
        s
    }

    /// A Haar-ish random state: i.i.d. complex Gaussian amplitudes,
    /// normalized. Good enough for benchmarking and equivalence testing.
    pub fn random<R: Rng>(n_qubits: u32, rng: &mut R) -> StateVector {
        let mut s = StateVector::zero(n_qubits);
        for a in s.amps.as_mut_slice() {
            // Box–Muller pairs give Gaussian parts.
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let r = (-2.0 * u1.ln()).sqrt();
            *a = C64::new(r * u2.cos(), r * u2.sin());
        }
        s.normalize();
        s
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Number of amplitudes (`2^n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.amps.len()
    }

    /// Never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Shared amplitude view.
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Exclusive amplitude view (kernels work through this).
    #[inline]
    pub fn amplitudes_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// ⟨ψ|ψ⟩ — should be 1 for a valid state.
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Rescale to unit norm.
    pub fn normalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        assert!(n > 0.0, "cannot normalize the zero vector");
        let inv = 1.0 / n;
        for a in self.amps.as_mut_slice() {
            *a = a.scale(inv);
        }
    }

    /// Inner product ⟨self|other⟩.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.n_qubits, other.n_qubits, "inner product of mismatched sizes");
        let mut acc = C64::default();
        for (a, b) in self.amps.iter().zip(other.amps.iter()) {
            acc = acc.fma(a.conj(), *b);
        }
        acc
    }

    /// Fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Probability of measuring basis state `i`.
    #[inline]
    pub fn probability(&self, i: usize) -> f64 {
        self.amps[i].norm_sqr()
    }

    /// All basis-state probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Probability that qubit `q` reads 1.
    pub fn prob_qubit_one(&self, q: u32) -> f64 {
        assert!(q < self.n_qubits);
        let bit = 1usize << q;
        self.amps.iter().enumerate().filter(|(i, _)| i & bit != 0).map(|(_, a)| a.norm_sqr()).sum()
    }

    /// Largest absolute amplitude difference against another state.
    pub fn max_abs_diff(&self, other: &StateVector) -> f64 {
        assert_eq!(self.n_qubits, other.n_qubits);
        self.amps.iter().zip(other.amps.iter()).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max)
    }

    /// Are the two states element-wise equal within `eps`?
    pub fn approx_eq(&self, other: &StateVector, eps: f64) -> bool {
        self.n_qubits == other.n_qubits && self.max_abs_diff(other) <= eps
    }

    /// Equality up to a global phase: `min_φ ‖ψ − e^{iφ}χ‖∞ ≤ eps`,
    /// computed via the phase of the inner product.
    pub fn approx_eq_up_to_phase(&self, other: &StateVector, eps: f64) -> bool {
        if self.n_qubits != other.n_qubits {
            return false;
        }
        let ip = self.inner(other);
        if ip.abs() < eps {
            // Orthogonal (or near-zero overlap): only equal if both ~zero,
            // which unit states are not.
            return false;
        }
        // ⟨ψ|χ⟩ = e^{iθ} for χ = e^{iθ}ψ, so the aligning factor applied
        // to χ is e^{-iθ}.
        let phase = C64::exp_i(-ip.arg());
        self.amps.iter().zip(other.amps.iter()).all(|(a, b)| (*a - phase * *b).abs() <= eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-12;

    #[test]
    fn zero_state() {
        let s = StateVector::zero(3);
        assert_eq!(s.len(), 8);
        assert_eq!(s.n_qubits(), 3);
        assert!((s.probability(0) - 1.0).abs() < EPS);
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn basis_state() {
        let s = StateVector::basis(3, 5);
        assert!((s.probability(5) - 1.0).abs() < EPS);
        assert!(s.probability(0) < EPS);
        // |101⟩: qubits 0 and 2 are 1.
        assert!((s.prob_qubit_one(0) - 1.0).abs() < EPS);
        assert!(s.prob_qubit_one(1) < EPS);
        assert!((s.prob_qubit_one(2) - 1.0).abs() < EPS);
    }

    #[test]
    fn plus_state_uniform() {
        let s = StateVector::plus(4);
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
        for i in 0..16 {
            assert!((s.probability(i) - 1.0 / 16.0).abs() < EPS);
        }
        for q in 0..4 {
            assert!((s.prob_qubit_one(q) - 0.5).abs() < EPS);
        }
    }

    #[test]
    fn from_amplitudes_roundtrip() {
        let r = 0.5f64;
        let amps = vec![C64::new(r, 0.0), C64::new(0.0, r), C64::new(-r, 0.0), C64::new(0.0, -r)];
        let s = StateVector::from_amplitudes(&amps);
        assert_eq!(s.amplitudes(), &amps[..]);
    }

    #[test]
    #[should_panic(expected = "norm")]
    fn from_amplitudes_rejects_unnormalized() {
        let _ = StateVector::from_amplitudes(&[C64::real(1.0), C64::real(1.0)]);
    }

    #[test]
    fn random_state_is_normalized_and_seeded() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = StateVector::random(6, &mut rng);
        assert!((a.norm_sqr() - 1.0).abs() < 1e-10);
        let mut rng2 = StdRng::seed_from_u64(7);
        let b = StateVector::random(6, &mut rng2);
        assert!(a.approx_eq(&b, 0.0), "same seed must reproduce the state");
    }

    #[test]
    fn inner_product_and_fidelity() {
        let z = StateVector::basis(2, 0);
        let o = StateVector::basis(2, 3);
        assert!(z.inner(&z).approx_eq(C64::real(1.0), EPS));
        assert!(z.inner(&o).approx_eq(C64::default(), EPS));
        assert!((z.fidelity(&z) - 1.0).abs() < EPS);
        assert!(z.fidelity(&o) < EPS);

        let p = StateVector::plus(2);
        assert!((z.fidelity(&p) - 0.25).abs() < EPS);
    }

    #[test]
    fn normalize_rescales() {
        let mut s = StateVector::zero(2);
        for a in s.amplitudes_mut() {
            *a = C64::new(2.0, 0.0);
        }
        s.normalize();
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
        assert!((s.probability(0) - 0.25).abs() < EPS);
    }

    #[test]
    fn phase_equivalence() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = StateVector::random(4, &mut rng);
        let mut b = a.clone();
        let phase = C64::exp_i(1.234);
        for amp in b.amplitudes_mut() {
            *amp = phase * *amp;
        }
        assert!(!a.approx_eq(&b, 1e-9), "differ literally");
        assert!(a.approx_eq_up_to_phase(&b, 1e-9), "equal up to phase");
        let c = StateVector::basis(4, 1);
        assert!(!a.approx_eq_up_to_phase(&c, 1e-9));
    }

    #[test]
    fn max_abs_diff_reports_largest() {
        let a = StateVector::basis(2, 0);
        let mut b = a.clone();
        b.amplitudes_mut()[2] = C64::new(0.0, 0.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_many_qubits_rejected() {
        let _ = StateVector::zero(64);
    }
}
