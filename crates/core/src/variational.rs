//! Variational loops over the batch engine.
//!
//! A [`ParamCircuit`] is a circuit template whose rotation angles are
//! free parameters; [`ParamCircuit::bind`] instantiates it at a
//! concrete parameter vector. A [`VqeDriver`] ties a template to a
//! compiled observable ([`CompiledObservable`]) and evaluates whole
//! *parameter sweeps* — every shift point of one optimizer iteration —
//! as a single member-major batch through
//! [`BatchSimulator::sweep_map`](crate::batch::BatchSimulator::sweep_map):
//! a worker runs one point's whole circuit on its scratch state while
//! that state is cache-resident, reduces the observable over it there
//! (QEA keeps a state slice on-chip through the readout for the same
//! reason) and moves on to the next point. Energies are
//! bit-identical to evaluating each point on a serial `Simulator` of the
//! engine's strategy and backend, which is the conformance property
//! `tests/gradient_conformance.rs` pins.
//!
//! Gradients use the **parameter-shift rule**: every parameterized op
//! here is a rotation `exp(-iθP/2)` with `P² = I`, so the derivative is
//! exact at finite shifts:
//!
//! ```text
//! ∂E/∂θ_j = [E(θ + π/2·e_j) − E(θ − π/2·e_j)] / 2
//! ```
//!
//! Two optimizers ride on top: plain gradient descent (all `2p` shift
//! points of one iteration batched together) and seeded SPSA (two
//! stochastic probes per iteration, batched with the current point).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::{BatchSimulator, MAX_BATCH};
use crate::circuit::{Circuit, Gate};
use crate::expectation::{CompiledObservable, Observable};
use crate::io::{fnv1a, fnv1a_update};
use crate::sim::SimError;
use crate::state::StateVector;

/// One op of a parameterized circuit: either a fixed gate or a rotation
/// whose angle is parameter `p` of the bound vector.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamOp {
    /// A gate with no free parameter.
    Fixed(Box<Gate>),
    /// `Rx(q, θ[p])`.
    Rx(u32, usize),
    /// `Ry(q, θ[p])`.
    Ry(u32, usize),
    /// `Rz(q, θ[p])`.
    Rz(u32, usize),
    /// `Rzz(a, b, θ[p])`.
    Rzz(u32, u32, usize),
    /// `Rxx(a, b, θ[p])`.
    Rxx(u32, u32, usize),
}

impl ParamOp {
    /// The parameter slot this op reads, if any.
    pub fn param(&self) -> Option<usize> {
        match *self {
            ParamOp::Fixed(_) => None,
            ParamOp::Rx(_, p)
            | ParamOp::Ry(_, p)
            | ParamOp::Rz(_, p)
            | ParamOp::Rzz(_, _, p)
            | ParamOp::Rxx(_, _, p) => Some(p),
        }
    }

    /// Instantiate at a concrete parameter vector.
    fn bind(&self, theta: &[f64]) -> Gate {
        match *self {
            ParamOp::Fixed(ref g) => (**g).clone(),
            ParamOp::Rx(q, p) => Gate::Rx(q, theta[p]),
            ParamOp::Ry(q, p) => Gate::Ry(q, theta[p]),
            ParamOp::Rz(q, p) => Gate::Rz(q, theta[p]),
            ParamOp::Rzz(a, b, p) => Gate::Rzz(a, b, theta[p]),
            ParamOp::Rxx(a, b, p) => Gate::Rxx(a, b, theta[p]),
        }
    }
}

/// A circuit template over free rotation angles.
///
/// Builder methods mirror [`Circuit`]'s fluent style; each
/// parameterized call allocates the next parameter slot (slot order =
/// op order), and `*_param` variants re-use an existing slot so one
/// angle can drive several rotations.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamCircuit {
    n_qubits: u32,
    ops: Vec<ParamOp>,
    n_params: usize,
}

impl ParamCircuit {
    pub fn new(n_qubits: u32) -> ParamCircuit {
        ParamCircuit { n_qubits, ops: Vec::new(), n_params: 0 }
    }

    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Free parameters (= length [`bind`](ParamCircuit::bind) expects).
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Ops in the template (= gates in every bound circuit).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn ops(&self) -> &[ParamOp] {
        &self.ops
    }

    /// Append a fixed (non-parameterized, unitary) gate.
    pub fn fixed(&mut self, g: Gate) -> &mut Self {
        assert!(g.is_unitary(), "parameterized circuits are unitary; cannot hold {}", g.name());
        for &q in &g.qubits() {
            assert!(q < self.n_qubits, "gate on qubit {q} beyond the {}-qubit template", {
                self.n_qubits
            });
        }
        self.ops.push(ParamOp::Fixed(Box::new(g)));
        self
    }

    fn alloc(&mut self) -> usize {
        self.n_params += 1;
        self.n_params - 1
    }

    fn check_param(&self, p: usize) {
        assert!(p < self.n_params, "parameter slot {p} not allocated yet ({} exist)", {
            self.n_params
        });
    }

    pub fn rx(&mut self, q: u32) -> &mut Self {
        let p = self.alloc();
        self.rx_param(q, p)
    }

    pub fn ry(&mut self, q: u32) -> &mut Self {
        let p = self.alloc();
        self.ry_param(q, p)
    }

    pub fn rz(&mut self, q: u32) -> &mut Self {
        let p = self.alloc();
        self.rz_param(q, p)
    }

    pub fn rzz(&mut self, a: u32, b: u32) -> &mut Self {
        let p = self.alloc();
        self.rzz_param(a, b, p)
    }

    pub fn rxx(&mut self, a: u32, b: u32) -> &mut Self {
        let p = self.alloc();
        self.rxx_param(a, b, p)
    }

    pub fn rx_param(&mut self, q: u32, p: usize) -> &mut Self {
        self.check_param(p);
        assert!(q < self.n_qubits);
        self.ops.push(ParamOp::Rx(q, p));
        self
    }

    pub fn ry_param(&mut self, q: u32, p: usize) -> &mut Self {
        self.check_param(p);
        assert!(q < self.n_qubits);
        self.ops.push(ParamOp::Ry(q, p));
        self
    }

    pub fn rz_param(&mut self, q: u32, p: usize) -> &mut Self {
        self.check_param(p);
        assert!(q < self.n_qubits);
        self.ops.push(ParamOp::Rz(q, p));
        self
    }

    pub fn rzz_param(&mut self, a: u32, b: u32, p: usize) -> &mut Self {
        self.check_param(p);
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        self.ops.push(ParamOp::Rzz(a, b, p));
        self
    }

    pub fn rxx_param(&mut self, a: u32, b: u32, p: usize) -> &mut Self {
        self.check_param(p);
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        self.ops.push(ParamOp::Rxx(a, b, p));
        self
    }

    /// Structural FNV-1a fingerprint of the template itself: width, then
    /// per op a tag byte (fixed gate vs parameterized rotation) followed
    /// by the gate's own fingerprint, or the rotation's kind, qubits and
    /// slot index. No angle stands in for a slot, so a rotation on slot
    /// `k` never hashes like a fixed rotation by `k.0`.
    pub fn fingerprint(&self) -> u64 {
        let slot = |h: u64, kind: &[u8], qs: &[u32], p: usize| {
            let h = fnv1a_update(fnv1a_update(h, &[1]), kind);
            let h = qs.iter().fold(h, |h, q| fnv1a_update(h, &q.to_le_bytes()));
            fnv1a_update(h, &(p as u64).to_le_bytes())
        };
        self.ops.iter().fold(fnv1a(&self.n_qubits.to_le_bytes()), |h, op| match *op {
            ParamOp::Fixed(ref g) => g.fingerprint_into(fnv1a_update(h, &[0])),
            ParamOp::Rx(q, p) => slot(h, b"rx\0", &[q], p),
            ParamOp::Ry(q, p) => slot(h, b"ry\0", &[q], p),
            ParamOp::Rz(q, p) => slot(h, b"rz\0", &[q], p),
            ParamOp::Rzz(a, b, p) => slot(h, b"rzz\0", &[a, b], p),
            ParamOp::Rxx(a, b, p) => slot(h, b"rxx\0", &[a, b], p),
        })
    }

    /// Instantiate the template at `theta` (length must equal
    /// [`n_params`](ParamCircuit::n_params)).
    pub fn bind(&self, theta: &[f64]) -> Circuit {
        assert_eq!(
            theta.len(),
            self.n_params,
            "template has {} parameters, got {}",
            self.n_params,
            theta.len()
        );
        let mut c = Circuit::new(self.n_qubits);
        for op in &self.ops {
            c.push(op.bind(theta));
        }
        c
    }

    /// `bind(theta)` with slot `j` shifted by `delta` — the building
    /// block of parameter-shift sweeps.
    pub fn bind_shifted(&self, theta: &[f64], j: usize, delta: f64) -> Circuit {
        let mut shifted = theta.to_vec();
        shifted[j] += delta;
        self.bind(&shifted)
    }
}

/// A hardware-efficient ansatz: `layers` repetitions of a per-qubit
/// `Ry` rotation layer followed by a ring of `CZ` entanglers, closed by
/// one final `Ry` layer. `(layers + 1) · n` parameters.
pub fn hardware_efficient_ansatz(n: u32, layers: u32) -> ParamCircuit {
    assert!(n >= 2, "hardware-efficient ansatz needs at least 2 qubits");
    let mut pc = ParamCircuit::new(n);
    for _ in 0..layers {
        for q in 0..n {
            pc.ry(q);
        }
        for q in 0..n {
            pc.fixed(Gate::Cz(q, (q + 1) % n));
        }
    }
    for q in 0..n {
        pc.ry(q);
    }
    pc
}

/// Result of one optimizer run.
#[derive(Debug, Clone)]
pub struct VqeResult {
    /// Final parameter vector.
    pub theta: Vec<f64>,
    /// Final energy `⟨ψ(θ)|H|ψ(θ)⟩`.
    pub energy: f64,
    /// Energy after each iteration (length = iterations).
    pub energies: Vec<f64>,
    /// Total circuit evaluations (batched or not) consumed.
    pub evals: usize,
}

/// The variational driver: a parameterized ansatz, a compiled
/// observable, and a batch engine to evaluate parameter sweeps on.
#[derive(Debug, Clone)]
pub struct VqeDriver {
    ansatz: ParamCircuit,
    observable: CompiledObservable,
    engine: BatchSimulator,
}

impl VqeDriver {
    /// Driver with a serial single-member engine; use
    /// [`with_engine`](VqeDriver::with_engine) to attach a threaded /
    /// configured [`BatchSimulator`].
    pub fn new(ansatz: ParamCircuit, observable: &Observable) -> VqeDriver {
        VqeDriver::with_engine(ansatz, observable, BatchSimulator::new())
    }

    pub fn with_engine(
        ansatz: ParamCircuit,
        observable: &Observable,
        engine: BatchSimulator,
    ) -> VqeDriver {
        let compiled = observable.compile();
        VqeDriver { ansatz, observable: compiled, engine }
    }

    pub fn ansatz(&self) -> &ParamCircuit {
        &self.ansatz
    }

    pub fn observable(&self) -> &CompiledObservable {
        &self.observable
    }

    /// `⟨ψ(θ)|H|ψ(θ)⟩` for one parameter point.
    pub fn energy(&self, theta: &[f64]) -> Result<f64, SimError> {
        Ok(self.energies(std::slice::from_ref(&theta.to_vec()))?[0])
    }

    /// Evaluate every parameter point of a sweep as one batched call
    /// (points are chunked at [`MAX_BATCH`]): each chunk is bound into
    /// same-shaped circuits and streamed through
    /// [`BatchSimulator::sweep_map`] — the worker that ran a point
    /// reduces the compiled observable over its state, on the engine's
    /// backend, while the state is still in cache, so no point's state
    /// outlives its evaluation. Energies are bit-identical to evaluating
    /// each point on a serial [`Simulator`](crate::sim::Simulator) of
    /// the engine's strategy and backend.
    ///
    /// Every point is validated before any circuit is bound: a wrong
    /// length or a non-finite angle is [`SimError::InvalidConfig`]
    /// naming the point.
    pub fn energies(&self, points: &[Vec<f64>]) -> Result<Vec<f64>, SimError> {
        for (i, point) in points.iter().enumerate() {
            self.check_point(i, point)?;
        }
        let be = self.engine.backend();
        let mut out = Vec::with_capacity(points.len());
        for chunk in points.chunks(MAX_BATCH) {
            let circuits: Vec<Circuit> = chunk.iter().map(|p| self.ansatz.bind(p)).collect();
            let reduce = |_, state: &StateVector| self.observable.expectation_with(be, state);
            out.extend(self.engine.sweep_map(&circuits, reduce)?.0);
        }
        Ok(out)
    }

    /// The door every entry point shares: point `index` must hold one
    /// finite angle per parameter slot.
    fn check_point(&self, index: usize, point: &[f64]) -> Result<(), SimError> {
        let p = self.ansatz.n_params();
        if point.len() != p {
            return Err(SimError::InvalidConfig(format!(
                "point {index}: the ansatz has {p} parameters, got {}",
                point.len()
            )));
        }
        match point.iter().position(|v| !v.is_finite()) {
            Some(j) => Err(SimError::InvalidConfig(format!(
                "point {index}: parameter {j} is not finite ({})",
                point[j]
            ))),
            None => Ok(()),
        }
    }

    /// `θ ± delta·e_j` for every slot `j`, plus before minus: the `2p`
    /// members of one shift sweep.
    fn shift_points(theta: &[f64], delta: f64) -> Vec<Vec<f64>> {
        let mut points = Vec::with_capacity(2 * theta.len() + 1);
        for j in 0..theta.len() {
            for d in [delta, -delta] {
                let mut shifted = theta.to_vec();
                shifted[j] += d;
                points.push(shifted);
            }
        }
        points
    }

    /// `[E(θ + delta·e_j) − E(θ − delta·e_j)] / denominator` per slot,
    /// all `2p` points as one batched sweep.
    fn central_differences(
        &self,
        theta: &[f64],
        delta: f64,
        denominator: f64,
    ) -> Result<Vec<f64>, SimError> {
        self.check_point(0, theta)?;
        let e = self.energies(&Self::shift_points(theta, delta))?;
        Ok(e.chunks(2).map(|pair| (pair[0] - pair[1]) / denominator).collect())
    }

    /// Exact gradient via the parameter-shift rule: all `2p` shift
    /// points evaluated as one batched sweep.
    pub fn gradient(&self, theta: &[f64]) -> Result<Vec<f64>, SimError> {
        self.central_differences(theta, std::f64::consts::FRAC_PI_2, 2.0)
    }

    /// Central finite-difference gradient — the *reference* the
    /// parameter-shift rule is checked against, not the production
    /// path (truncation error `O(eps²)` vs the shift rule's exactness).
    pub fn gradient_fd(&self, theta: &[f64], eps: f64) -> Result<Vec<f64>, SimError> {
        finite("eps", eps)?;
        self.central_differences(theta, eps, 2.0 * eps)
    }

    /// Gradient descent: each iteration evaluates the `2p` shift points
    /// *and* the current point as one `2p + 1`-member batch, then steps
    /// `θ ← θ − lr·∇E`.
    pub fn minimize_gd(
        &self,
        theta0: &[f64],
        iters: usize,
        lr: f64,
    ) -> Result<VqeResult, SimError> {
        self.check_point(0, theta0)?;
        finite("lr", lr)?;
        let p = self.ansatz.n_params();
        let mut theta = theta0.to_vec();
        let mut energies = Vec::with_capacity(iters);
        let mut evals = 0usize;
        for _ in 0..iters {
            let mut points = Self::shift_points(&theta, std::f64::consts::FRAC_PI_2);
            points.push(theta.clone());
            let e = self.energies(&points)?;
            evals += points.len();
            for j in 0..p {
                theta[j] -= lr * (e[2 * j] - e[2 * j + 1]) / 2.0;
            }
            energies.push(e[2 * p]);
        }
        let energy = self.energy(&theta)?;
        evals += 1;
        Ok(VqeResult { theta, energy, energies, evals })
    }

    /// Seeded SPSA (simultaneous-perturbation stochastic
    /// approximation): each iteration draws one Rademacher direction
    /// `Δ ∈ {−1,+1}^p` from `StdRng::seed_from_u64(seed)` and
    /// evaluates `θ ± c_k·Δ` plus the current point as one 3-member
    /// batch; the standard gain schedules `a_k = a/(k+1+A)^0.602`,
    /// `c_k = c/(k+1)^0.101` with `A = 0.1·iters` apply. Deterministic
    /// for a fixed seed.
    pub fn minimize_spsa(
        &self,
        theta0: &[f64],
        iters: usize,
        a: f64,
        c: f64,
        seed: u64,
    ) -> Result<VqeResult, SimError> {
        self.check_point(0, theta0)?;
        finite("a", a)?;
        finite("c", c)?;
        let p = self.ansatz.n_params();
        let mut rng = StdRng::seed_from_u64(seed);
        let big_a = 0.1 * iters as f64;
        let mut theta = theta0.to_vec();
        let mut energies = Vec::with_capacity(iters);
        let mut evals = 0usize;
        for k in 0..iters {
            let ak = a / (k as f64 + 1.0 + big_a).powf(0.602);
            let ck = c / (k as f64 + 1.0).powf(0.101);
            let delta: Vec<f64> =
                (0..p).map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 }).collect();
            let plus: Vec<f64> = theta.iter().zip(&delta).map(|(t, d)| t + ck * d).collect();
            let minus: Vec<f64> = theta.iter().zip(&delta).map(|(t, d)| t - ck * d).collect();
            let e = self.energies(&[plus, minus, theta.clone()])?;
            evals += 3;
            let scale = (e[0] - e[1]) / (2.0 * ck);
            for j in 0..p {
                theta[j] -= ak * scale * delta[j];
            }
            energies.push(e[2]);
        }
        let energy = self.energy(&theta)?;
        evals += 1;
        Ok(VqeResult { theta, energy, energies, evals })
    }
}

/// A step size or gain that is not a finite number is rejected before
/// any circuit is bound.
fn finite(name: &str, value: f64) -> Result<(), SimError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(SimError::InvalidConfig(format!("`{name}` must be finite, got {value}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expectation::Hamiltonian;
    use crate::sim::Simulator;

    const EPS: f64 = 1e-12;

    fn tfim(n: u32) -> Hamiltonian {
        Hamiltonian::ising_chain(n, 1.0, 0.7)
    }

    #[test]
    fn bind_instantiates_slots_in_order() {
        let mut pc = ParamCircuit::new(3);
        pc.fixed(Gate::H(0)).ry(0).rzz(0, 1).rx(2);
        assert_eq!(pc.n_params(), 3);
        assert_eq!(pc.len(), 4);
        let c = pc.bind(&[0.1, 0.2, 0.3]);
        assert_eq!(
            c.gates(),
            &[Gate::H(0), Gate::Ry(0, 0.1), Gate::Rzz(0, 1, 0.2), Gate::Rx(2, 0.3)]
        );
    }

    #[test]
    fn shared_slot_drives_several_rotations() {
        let mut pc = ParamCircuit::new(2);
        pc.ry(0);
        pc.ry_param(1, 0);
        assert_eq!(pc.n_params(), 1);
        let c = pc.bind(&[0.4]);
        assert_eq!(c.gates(), &[Gate::Ry(0, 0.4), Gate::Ry(1, 0.4)]);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn unallocated_slot_rejected() {
        ParamCircuit::new(2).ry_param(0, 0);
    }

    #[test]
    #[should_panic(expected = "unitary")]
    fn nonunitary_fixed_gate_rejected() {
        ParamCircuit::new(2).fixed(Gate::Measure { q: 0, creg: 0 });
    }

    #[test]
    fn ansatz_shape() {
        let pc = hardware_efficient_ansatz(4, 2);
        assert_eq!(pc.n_params(), 3 * 4);
        // 2 × (4 Ry + 4 CZ) + 4 final Ry.
        assert_eq!(pc.len(), 2 * 8 + 4);
    }

    #[test]
    fn batched_energies_match_serial_per_point() {
        let pc = hardware_efficient_ansatz(4, 1);
        let h = tfim(4);
        let driver = VqeDriver::new(pc.clone(), &h);
        let points: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..pc.n_params()).map(|j| 0.1 * (i * 7 + j) as f64).collect())
            .collect();
        let batched = driver.energies(&points).unwrap();
        let compiled = h.compile();
        for (i, point) in points.iter().enumerate() {
            let mut s = StateVector::zero(4);
            Simulator::new().run(&pc.bind(point), &mut s).unwrap();
            let serial = compiled.expectation(&s);
            assert!(
                (batched[i] - serial).abs() < EPS,
                "point {i}: batched {} vs serial {serial}",
                batched[i]
            );
        }
    }

    #[test]
    fn parameter_shift_matches_finite_difference() {
        let pc = hardware_efficient_ansatz(3, 1);
        let h = tfim(3);
        let driver = VqeDriver::new(pc.clone(), &h);
        let theta: Vec<f64> = (0..pc.n_params()).map(|j| 0.3 + 0.17 * j as f64).collect();
        let exact = driver.gradient(&theta).unwrap();
        let fd = driver.gradient_fd(&theta, 1e-5).unwrap();
        for (j, (a, b)) in exact.iter().zip(&fd).enumerate() {
            assert!((a - b).abs() < 1e-7, "slot {j}: shift {a} vs fd {b}");
        }
    }

    #[test]
    fn gradient_descent_lowers_tfim_energy() {
        let pc = hardware_efficient_ansatz(4, 2);
        let h = tfim(4);
        let driver = VqeDriver::new(pc.clone(), &h);
        let theta0: Vec<f64> = (0..pc.n_params()).map(|j| 0.2 + 0.05 * j as f64).collect();
        let e0 = driver.energy(&theta0).unwrap();
        let res = driver.minimize_gd(&theta0, 25, 0.1).unwrap();
        assert!(res.energy < e0, "GD failed to descend: {} !< {e0}", res.energy);
        let ground = h.ground_energy(4);
        assert!(res.energy >= ground - 1e-9, "below ground energy?");
        assert_eq!(res.energies.len(), 25);
        assert_eq!(res.evals, 25 * (2 * pc.n_params() + 1) + 1);
    }

    #[test]
    fn spsa_is_deterministic_and_descends() {
        let pc = hardware_efficient_ansatz(3, 1);
        let h = tfim(3);
        let driver = VqeDriver::new(pc.clone(), &h);
        let theta0: Vec<f64> = vec![0.3; pc.n_params()];
        let e0 = driver.energy(&theta0).unwrap();
        let a = driver.minimize_spsa(&theta0, 60, 0.2, 0.2, 7).unwrap();
        let b = driver.minimize_spsa(&theta0, 60, 0.2, 0.2, 7).unwrap();
        assert_eq!(a.theta, b.theta, "same seed must reproduce the trajectory");
        assert!(a.energy < e0, "SPSA failed to descend: {} !< {e0}", a.energy);
    }
}
