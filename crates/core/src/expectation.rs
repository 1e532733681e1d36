//! Pauli-string observables ⟨ψ|P|ψ⟩.
//!
//! Computed without copying or modifying the state: `P|ψ⟩` is evaluated
//! lazily per amplitude (each Pauli string is a signed/phased permutation
//! with one partner index per basis state), then contracted with ⟨ψ|.
//!
//! Single strings and [`Hamiltonian`] sums dispatch through the SIMD
//! reduction kernels in [`crate::kernels::reduce`]; a [`Hamiltonian`]
//! can additionally be lowered once to a [`CompiledObservable`], which
//! groups terms by flip mask so every term sharing a Pauli basis is
//! evaluated in one read-only state sweep — the fast path the
//! variational driver re-evaluates each optimizer iteration.

use crate::complex::{C64, I};
use crate::kernels::{reduce, simd};
use crate::state::StateVector;

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pauli {
    X,
    Y,
    Z,
}

/// A tensor product of Pauli operators on distinct qubits, e.g. `X₀Z₂Y₅`.
#[derive(Debug, Clone, PartialEq)]
pub struct PauliString {
    /// (qubit, operator) pairs; identity on all other qubits.
    ops: Vec<(u32, Pauli)>,
}

impl PauliString {
    /// Build from (qubit, op) pairs. Panics on duplicate qubits.
    pub fn new(ops: Vec<(u32, Pauli)>) -> PauliString {
        let mut qs: Vec<u32> = ops.iter().map(|&(q, _)| q).collect();
        qs.sort_unstable();
        qs.windows(2).for_each(|w| assert_ne!(w[0], w[1], "duplicate qubit in Pauli string"));
        PauliString { ops }
    }

    /// The identity string.
    pub fn identity() -> PauliString {
        PauliString { ops: Vec::new() }
    }

    /// Single-qubit Z.
    pub fn z(q: u32) -> PauliString {
        PauliString::new(vec![(q, Pauli::Z)])
    }

    /// Single-qubit X.
    pub fn x(q: u32) -> PauliString {
        PauliString::new(vec![(q, Pauli::X)])
    }

    /// Two-qubit ZZ correlation.
    pub fn zz(a: u32, b: u32) -> PauliString {
        PauliString::new(vec![(a, Pauli::Z), (b, Pauli::Z)])
    }

    /// The operators of this string.
    pub fn ops(&self) -> &[(u32, Pauli)] {
        &self.ops
    }

    /// Lower to bit masks: `(flip, z, y)` where `flip` collects X|Y
    /// qubits (the basis-partner XOR), `z` the Z qubits, and `y ⊆ flip`
    /// the Y qubits (phase bookkeeping).
    pub fn masks(&self) -> (usize, usize, usize) {
        let mut flip_mask = 0usize;
        let mut z_mask = 0usize;
        let mut y_mask = 0usize;
        for &(q, p) in &self.ops {
            match p {
                Pauli::X => flip_mask |= 1 << q,
                Pauli::Y => {
                    flip_mask |= 1 << q;
                    y_mask |= 1 << q;
                }
                Pauli::Z => z_mask |= 1 << q,
            }
        }
        (flip_mask, z_mask, y_mask)
    }

    /// ⟨ψ|P|ψ⟩ — always real for Hermitian P; returned as `f64`.
    ///
    /// Dispatches to the active SIMD backend's reduction kernels; use
    /// [`PauliString::expectation_scalar`] for the sequential reference
    /// ordering.
    pub fn expectation(&self, state: &StateVector) -> f64 {
        self.expectation_with(simd::active(), state)
    }

    /// ⟨ψ|P|ψ⟩ on an explicit backend: the reduction an engine that
    /// swept on `be` reports.
    pub fn expectation_with(&self, be: &simd::KernelBackend, state: &StateVector) -> f64 {
        for &(q, _) in &self.ops {
            assert!(q < state.n_qubits(), "Pauli on qubit {q} beyond the state");
        }
        let (flip, z, y) = self.masks();
        reduce::expect_pauli_string(be, state.amplitudes(), flip, z, y)
    }

    /// ⟨ψ|P|ψ⟩ by the sequential per-amplitude loop — the scalar
    /// reference the SIMD reduction kernels are verified against, and
    /// the baseline the reduction benchmarks report speedups over.
    pub fn expectation_scalar(&self, state: &StateVector) -> f64 {
        for &(q, _) in &self.ops {
            assert!(q < state.n_qubits(), "Pauli on qubit {q} beyond the state");
        }
        let (flip_mask, z_mask, y_mask) = self.masks();
        let n_y = y_mask.count_ones();
        // Global i^{n_y} factor from Y = i·(flip with sign on |1⟩→|0⟩)…
        // handled per-amplitude below: Y|0⟩ = i|1⟩, Y|1⟩ = -i|0⟩.
        let amps = state.amplitudes();
        let mut acc = C64::default();
        for (i, a) in amps.iter().enumerate() {
            let j = i ^ flip_mask;
            // (P|ψ⟩)_i = phase(i) ψ_j where the phase collects Z signs on
            // bits of i and Y phases on the *source* bits of j.
            let z_sign = if ((i & z_mask).count_ones() & 1) == 1 { -1.0 } else { 1.0 };
            // For each Y qubit: source bit b = bit of j at q.
            // Y|b⟩ = i(-1)^b |1-b⟩ ⇒ phase i·(-1)^b.
            let y_ones_in_j = (j & y_mask).count_ones();
            let mut phase = C64::real(z_sign);
            // i^{n_y} × (-1)^{# y-qubits set in j}.
            let mut i_pow = C64::real(1.0);
            for _ in 0..(n_y % 4) {
                i_pow *= I;
            }
            phase *= i_pow;
            if y_ones_in_j & 1 == 1 {
                phase = -phase;
            }
            acc = acc.fma(a.conj(), phase * amps[j]);
        }
        debug_assert!(acc.im.abs() < 1e-9, "Hermitian expectation must be real, got {acc}");
        acc.re
    }
}

/// A Hermitian observable as a real-weighted sum of Pauli strings:
/// `H = Σ_k c_k P_k` — the form every VQE/QAOA cost function takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Hamiltonian {
    terms: Vec<(f64, PauliString)>,
}

impl Hamiltonian {
    /// Build from (coefficient, string) terms.
    pub fn new(terms: Vec<(f64, PauliString)>) -> Hamiltonian {
        Hamiltonian { terms }
    }

    /// The empty (zero) observable.
    pub fn zero() -> Hamiltonian {
        Hamiltonian { terms: Vec::new() }
    }

    /// Add a term in place.
    pub fn add_term(&mut self, coeff: f64, string: PauliString) -> &mut Self {
        self.terms.push((coeff, string));
        self
    }

    /// The terms.
    pub fn terms(&self) -> &[(f64, PauliString)] {
        &self.terms
    }

    /// ⟨ψ|H|ψ⟩ through the SIMD reduction kernels, term by term. For
    /// repeated evaluation (optimizer loops), lower once with
    /// [`CompiledObservable::compile`] to share sweeps across terms.
    pub fn expectation(&self, state: &StateVector) -> f64 {
        self.terms.iter().map(|(c, p)| c * p.expectation(state)).sum()
    }

    /// ⟨ψ|H|ψ⟩ by the sequential per-term scalar loops — the reference
    /// and benchmark baseline for the fused reduction path.
    pub fn expectation_scalar(&self, state: &StateVector) -> f64 {
        self.terms.iter().map(|(c, p)| c * p.expectation_scalar(state)).sum()
    }

    /// The 1-D transverse-field Ising Hamiltonian on an open chain:
    /// `H = -J Σ Z_i Z_{i+1} - h Σ X_i` — the observable matching
    /// [`crate::library::trotter_ising`]'s evolution.
    pub fn ising_chain(n: u32, j_coupling: f64, field: f64) -> Hamiltonian {
        let mut h = Hamiltonian::zero();
        for q in 0..n.saturating_sub(1) {
            h.add_term(-j_coupling, PauliString::zz(q, q + 1));
        }
        for q in 0..n {
            h.add_term(-field, PauliString::x(q));
        }
        h
    }

    /// Dense matrix representation on `n` qubits (row-major, `2^n × 2^n`)
    /// — practical up to ~10 qubits, for exact diagonalization in tests
    /// and VQE references.
    pub fn to_dense(&self, n: u32) -> Vec<C64> {
        assert!(n <= 10, "dense Hamiltonians above 10 qubits are impractical");
        let dim = 1usize << n;
        let mut out = vec![C64::default(); dim * dim];
        // Column c of H = H |c⟩ = Σ_k c_k P_k |c⟩; each P_k maps a basis
        // state to a single phased basis state.
        for (coeff, string) in &self.terms {
            let (flip, zmask, ymask) = string.masks();
            for c in 0..dim {
                let r = c ^ flip;
                // P|c⟩ = phase |r⟩: Z gives (−1)^{z-bits of c}; each Y
                // contributes i(−1)^{bit c}.
                let mut phase = if ((c & zmask).count_ones() & 1) == 1 {
                    C64::real(-1.0)
                } else {
                    C64::real(1.0)
                };
                let ny = ymask.count_ones();
                let mut ipow = C64::real(1.0);
                for _ in 0..(ny % 4) {
                    ipow *= crate::complex::I;
                }
                phase *= ipow;
                if ((c & ymask).count_ones() & 1) == 1 {
                    phase = -phase;
                }
                out[r * dim + c] = out[r * dim + c].fma(C64::real(*coeff), phase);
            }
        }
        out
    }

    /// The exact ground-state energy by dense diagonalization (≤ 10
    /// qubits).
    pub fn ground_energy(&self, n: u32) -> f64 {
        let dense = self.to_dense(n);
        let evs = crate::analysis::hermitian_eigenvalues(&dense, 1usize << n);
        evs.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// The MaxCut cost observable on the `n`-cycle:
    /// `C = Σ_edges (1 − Z_i Z_j)/2`, i.e. constant `|E|/2` plus ZZ terms.
    /// Returns (constant, operator-part) so callers can report the cut
    /// value as `constant + ⟨op⟩`.
    pub fn maxcut_ring(n: u32) -> (f64, Hamiltonian) {
        let mut h = Hamiltonian::zero();
        for q in 0..n {
            h.add_term(-0.5, PauliString::zz(q, (q + 1) % n));
        }
        (n as f64 / 2.0, h)
    }

    /// Lower to the sweep-sharing evaluation form.
    pub fn compile(&self) -> CompiledObservable {
        CompiledObservable::compile(self)
    }
}

/// The weighted Pauli sum `Σ cᵢ·Pᵢ` — the observable form every
/// variational cost function takes. Alias of [`Hamiltonian`].
pub type Observable = Hamiltonian;

/// One off-diagonal basis group of a [`CompiledObservable`]: every term
/// whose X|Y mask equals `flip` shares one pair-product state sweep.
#[derive(Debug, Clone)]
struct FlipGroup {
    flip: usize,
    coeffs: Vec<f64>,
    /// Per-term `K = (−i)^{n_y}` global phase.
    phases: Vec<C64>,
    /// Per-term sign mask `m = z | y`.
    masks: Vec<usize>,
}

/// A [`Hamiltonian`] lowered to mask form and grouped by Pauli basis:
/// all diagonal (Z-only) terms share one norms sweep, and each distinct
/// flip mask's terms share one pair-product sweep — so evaluating the
/// whole observable costs one read-only pass over the state per basis
/// group instead of one per term.
#[derive(Debug, Clone)]
pub struct CompiledObservable {
    /// Diagonal terms: coefficients and Z sign masks.
    diag_coeffs: Vec<f64>,
    diag_masks: Vec<usize>,
    groups: Vec<FlipGroup>,
    /// Highest qubit index any term touches (state-width guard).
    max_qubit: Option<u32>,
}

impl CompiledObservable {
    /// Group `h`'s terms by flip mask. Term order within a group follows
    /// the Hamiltonian's term order, so the evaluation is deterministic.
    pub fn compile(h: &Hamiltonian) -> CompiledObservable {
        let mut out = CompiledObservable {
            diag_coeffs: Vec::new(),
            diag_masks: Vec::new(),
            groups: Vec::new(),
            max_qubit: None,
        };
        for (c, p) in h.terms() {
            let (flip, z, y) = p.masks();
            if let Some(&(q, _)) = p.ops().iter().max_by_key(|&&(q, _)| q) {
                out.max_qubit = Some(out.max_qubit.map_or(q, |m| m.max(q)));
            }
            if flip == 0 {
                out.diag_coeffs.push(*c);
                out.diag_masks.push(z);
                continue;
            }
            let k_phase = reduce::minus_i_pow(y.count_ones());
            let m = z | y;
            match out.groups.iter_mut().find(|g| g.flip == flip) {
                Some(g) => {
                    g.coeffs.push(*c);
                    g.phases.push(k_phase);
                    g.masks.push(m);
                }
                None => out.groups.push(FlipGroup {
                    flip,
                    coeffs: vec![*c],
                    phases: vec![k_phase],
                    masks: vec![m],
                }),
            }
        }
        out
    }

    /// Total number of Pauli terms.
    pub fn terms(&self) -> usize {
        self.diag_coeffs.len() + self.groups.iter().map(|g| g.coeffs.len()).sum::<usize>()
    }

    /// Number of read-only state sweeps one evaluation costs: one for
    /// the shared diagonal group plus one per distinct flip mask.
    pub fn sweeps(&self) -> usize {
        usize::from(!self.diag_coeffs.is_empty()) + self.groups.len()
    }

    /// ⟨ψ|H|ψ⟩ on the active SIMD backend.
    pub fn expectation(&self, state: &StateVector) -> f64 {
        self.expectation_with(simd::active(), state)
    }

    /// ⟨ψ|H|ψ⟩ on an explicit backend.
    pub fn expectation_with(&self, be: &simd::KernelBackend, state: &StateVector) -> f64 {
        if let Some(q) = self.max_qubit {
            assert!(q < state.n_qubits(), "observable on qubit {q} beyond the state");
        }
        let amps = state.amplitudes();
        let mut total = 0.0;
        match self.diag_masks.as_slice() {
            [] => {}
            // A lone diagonal term skips the norms scratch entirely.
            [m] => total += self.diag_coeffs[0] * reduce::expect_z_mask(be, amps, *m),
            masks => {
                let mut accs = vec![0.0; masks.len()];
                reduce::accumulate_diag_group(be, amps, masks, &mut accs);
                for (acc, c) in accs.iter().zip(&self.diag_coeffs) {
                    total += c * acc;
                }
            }
        }
        for g in &self.groups {
            let mut accs = vec![C64::default(); g.masks.len()];
            reduce::accumulate_flip_group(be, amps, g.flip, &g.masks, &mut accs);
            for ((acc, k), c) in accs.iter().zip(&g.phases).zip(&g.coeffs) {
                total += c * 2.0 * (*k * *acc).re;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::standard;
    use crate::kernels::scalar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-10;

    fn rand_state(n: u32, seed: u64) -> StateVector {
        let mut rng = StdRng::seed_from_u64(seed);
        StateVector::random(n, &mut rng)
    }

    /// Reference: build the dense Pauli operator and contract explicitly.
    #[allow(clippy::needless_range_loop)]
    fn reference_expectation(p: &PauliString, state: &StateVector) -> f64 {
        let n = state.n_qubits();
        let dim = 1usize << n;
        let mut psi: Vec<C64> = state.amplitudes().to_vec();
        // Apply each Pauli as a 1q gate to P|ψ⟩.
        for &(q, op) in p.ops() {
            let m = match op {
                Pauli::X => standard::x(),
                Pauli::Y => standard::y(),
                Pauli::Z => standard::z(),
            };
            scalar::apply_1q(&mut psi, q, &m);
        }
        let mut acc = C64::default();
        for i in 0..dim {
            acc = acc.fma(state.amplitudes()[i].conj(), psi[i]);
        }
        assert!(acc.im.abs() < 1e-9);
        acc.re
    }

    #[test]
    fn z_on_basis_states() {
        let s = StateVector::basis(3, 0b000);
        assert!((PauliString::z(0).expectation(&s) - 1.0).abs() < EPS);
        let s = StateVector::basis(3, 0b001);
        assert!((PauliString::z(0).expectation(&s) + 1.0).abs() < EPS);
        assert!((PauliString::z(1).expectation(&s) - 1.0).abs() < EPS);
    }

    #[test]
    fn x_on_plus_state() {
        let s = StateVector::plus(2);
        assert!((PauliString::x(0).expectation(&s) - 1.0).abs() < EPS);
        assert!((PauliString::x(1).expectation(&s) - 1.0).abs() < EPS);
        assert!(PauliString::z(0).expectation(&s).abs() < EPS);
    }

    #[test]
    fn zz_on_bell_state() {
        let mut s = StateVector::zero(2);
        scalar::apply_1q(s.amplitudes_mut(), 0, &standard::h());
        scalar::apply_controlled_1q(s.amplitudes_mut(), 0, 1, &standard::x());
        assert!((PauliString::zz(0, 1).expectation(&s) - 1.0).abs() < EPS);
        // XX is also +1 for (|00⟩+|11⟩)/√2.
        let xx = PauliString::new(vec![(0, Pauli::X), (1, Pauli::X)]);
        assert!((xx.expectation(&s) - 1.0).abs() < EPS);
        // YY is −1.
        let yy = PauliString::new(vec![(0, Pauli::Y), (1, Pauli::Y)]);
        assert!((yy.expectation(&s) + 1.0).abs() < EPS);
    }

    #[test]
    fn identity_expectation_is_norm() {
        let s = rand_state(4, 3);
        assert!((PauliString::identity().expectation(&s) - 1.0).abs() < EPS);
    }

    #[test]
    fn matches_reference_on_random_states_and_strings() {
        let strings = [
            PauliString::new(vec![(0, Pauli::Y)]),
            PauliString::new(vec![(2, Pauli::Y), (3, Pauli::Y)]),
            PauliString::new(vec![(0, Pauli::X), (1, Pauli::Y), (2, Pauli::Z)]),
            PauliString::new(vec![(1, Pauli::Z), (4, Pauli::X)]),
            PauliString::new(vec![(0, Pauli::Y), (1, Pauli::Y), (2, Pauli::Y)]),
        ];
        for (i, p) in strings.iter().enumerate() {
            let s = rand_state(5, 100 + i as u64);
            let fast = p.expectation(&s);
            let slow = reference_expectation(p, &s);
            assert!((fast - slow).abs() < EPS, "string #{i}: {fast} vs {slow}");
        }
    }

    #[test]
    fn expectation_bounded_by_one() {
        for seed in 0..5 {
            let s = rand_state(4, seed);
            let p = PauliString::new(vec![(0, Pauli::X), (2, Pauli::Z)]);
            let e = p.expectation(&s);
            assert!(e.abs() <= 1.0 + EPS, "Pauli expectation out of range: {e}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_qubit_rejected() {
        let _ = PauliString::new(vec![(1, Pauli::X), (1, Pauli::Z)]);
    }

    #[test]
    fn hamiltonian_linearity() {
        let s = rand_state(4, 7);
        let p1 = PauliString::z(0);
        let p2 = PauliString::zz(1, 2);
        let h = Hamiltonian::new(vec![(2.0, p1.clone()), (-0.5, p2.clone())]);
        let direct = 2.0 * p1.expectation(&s) - 0.5 * p2.expectation(&s);
        assert!((h.expectation(&s) - direct).abs() < EPS);
    }

    #[test]
    fn ising_ground_state_energy_of_ferromagnet() {
        // J > 0, h = 0: |0…0⟩ is a ground state with E = -J(n-1).
        let n = 5u32;
        let h = Hamiltonian::ising_chain(n, 1.0, 0.0);
        let e = h.expectation(&StateVector::basis(n, 0));
        assert!((e - (-(n as f64 - 1.0))).abs() < EPS);
        // The antialigned state |0101…⟩ has E = +J(n-1).
        let e = h.expectation(&StateVector::basis(n, 0b01010));
        assert!((e - (n as f64 - 1.0)).abs() < EPS);
    }

    #[test]
    fn transverse_field_term_on_plus_state() {
        // |+…+⟩: ⟨X⟩ = 1 everywhere, ⟨ZZ⟩ = 0 ⇒ E = -h·n.
        let n = 4u32;
        let ham = Hamiltonian::ising_chain(n, 1.0, 0.7);
        let e = ham.expectation(&StateVector::plus(n));
        assert!((e - (-0.7 * n as f64)).abs() < EPS);
    }

    #[test]
    fn maxcut_of_alternating_assignment_is_full() {
        // On an even ring, |0101…⟩ cuts every edge.
        let n = 6u32;
        let (constant, op) = Hamiltonian::maxcut_ring(n);
        let cut = constant + op.expectation(&StateVector::basis(n, 0b010101));
        assert!((cut - n as f64).abs() < EPS);
        // The all-zeros assignment cuts nothing.
        let cut = constant + op.expectation(&StateVector::basis(n, 0));
        assert!(cut.abs() < EPS);
    }

    #[test]
    fn zero_hamiltonian_expectation_is_zero() {
        let s = rand_state(3, 9);
        assert_eq!(Hamiltonian::zero().expectation(&s), 0.0);
    }

    #[test]
    fn simd_expectation_matches_scalar_reference() {
        let strings = [
            PauliString::identity(),
            PauliString::z(2),
            PauliString::new(vec![(0, Pauli::Y), (3, Pauli::X)]),
            PauliString::new(vec![(0, Pauli::X), (1, Pauli::Y), (2, Pauli::Z), (4, Pauli::Y)]),
        ];
        for (i, p) in strings.iter().enumerate() {
            let s = rand_state(6, 300 + i as u64);
            let fast = p.expectation(&s);
            let slow = p.expectation_scalar(&s);
            assert!((fast - slow).abs() < 1e-12, "string #{i}: {fast} vs {slow}");
        }
    }

    #[test]
    fn compiled_observable_matches_per_term_path() {
        let h = Hamiltonian::new(vec![
            (0.7, PauliString::identity()),
            (-1.3, PauliString::z(0)),
            (0.4, PauliString::zz(1, 3)),
            (0.9, PauliString::x(2)),
            (-0.2, PauliString::new(vec![(2, Pauli::X), (4, Pauli::Z)])),
            (0.55, PauliString::new(vec![(0, Pauli::Y), (1, Pauli::Y)])),
            (1.1, PauliString::new(vec![(0, Pauli::X), (1, Pauli::X)])),
        ]);
        let compiled = h.compile();
        assert_eq!(compiled.terms(), 7);
        // Basis groups: diagonal {I, Z0, Z1Z3}, flip {2}, flip {2}∪{4}…
        // X2 and X2Z4 share flip mask 0b100; Y0Y1 and X0X1 share 0b11.
        assert_eq!(compiled.sweeps(), 3);
        for seed in 0..4 {
            let s = rand_state(5, 40 + seed);
            let fused = compiled.expectation(&s);
            let per_term = h.expectation_scalar(&s);
            assert!((fused - per_term).abs() < 1e-12, "seed {seed}: {fused} vs {per_term}");
        }
    }

    #[test]
    fn compiled_tfim_matches_scalar_on_wide_state() {
        // Wide enough that the grouped sweep chunks (CHUNK = 1024) are
        // exercised across multiple chunks per group.
        let n = 12u32;
        let h = Hamiltonian::ising_chain(n, 1.1, 0.6);
        let compiled = h.compile();
        // Diagonal ZZ terms share one sweep; each X_q is its own flip group.
        assert_eq!(compiled.sweeps(), 1 + n as usize);
        let s = rand_state(n, 77);
        let fused = compiled.expectation(&s);
        let per_term = h.expectation_scalar(&s);
        assert!((fused - per_term).abs() < 1e-11, "{fused} vs {per_term}");
    }

    #[test]
    #[should_panic(expected = "beyond the state")]
    fn compiled_observable_width_guard() {
        let h = Hamiltonian::new(vec![(1.0, PauliString::z(5))]);
        let _ = h.compile().expectation(&StateVector::zero(3));
    }

    #[test]
    fn dense_matrix_matches_expectations() {
        // ⟨ψ|H|ψ⟩ via the dense matrix must equal the Pauli-wise path.
        let n = 4u32;
        let h = Hamiltonian::ising_chain(n, 1.3, 0.7);
        let dense = h.to_dense(n);
        let dim = 1usize << n;
        let s = rand_state(n, 21);
        let amps = s.amplitudes();
        let mut e = C64::default();
        for r in 0..dim {
            for c in 0..dim {
                e = e.fma(amps[r].conj(), dense[r * dim + c] * amps[c]);
            }
        }
        assert!(e.im.abs() < 1e-10);
        assert!((e.re - h.expectation(&s)).abs() < 1e-9);
    }

    #[test]
    fn dense_matrix_is_hermitian() {
        let h = Hamiltonian::new(vec![
            (0.5, PauliString::new(vec![(0, Pauli::Y), (2, Pauli::X)])),
            (-1.2, PauliString::zz(1, 3)),
            (0.3, PauliString::x(2)),
        ]);
        let dense = h.to_dense(4);
        let dim = 16;
        for r in 0..dim {
            for c in 0..dim {
                assert!(dense[r * dim + c].approx_eq(dense[c * dim + r].conj(), 1e-12));
            }
        }
    }

    #[test]
    fn ferromagnet_ground_energy_exact() {
        // J > 0, h = 0: ground energy is −J(n−1), doubly degenerate.
        let n = 4u32;
        let h = Hamiltonian::ising_chain(n, 1.0, 0.0);
        assert!((h.ground_energy(n) - (-(n as f64 - 1.0))).abs() < 1e-8);
    }

    #[test]
    fn transverse_field_lowers_ground_energy() {
        // The TFIM ground energy is strictly below both classical limits.
        let n = 4u32;
        let e = Hamiltonian::ising_chain(n, 1.0, 1.0).ground_energy(n);
        assert!(e < -(n as f64 - 1.0), "field adds binding: {e}");
        // Known exact value for the open 4-site chain at J = h = 1 is
        // ≈ −4.7587 (from exact diagonalization).
        assert!((e - (-4.7587)).abs() < 1e-3, "{e}");
    }
}
