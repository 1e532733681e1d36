//! Circuit IR: the gate enum and the circuit builder.

use std::collections::BTreeMap;

use crate::complex::C64;
use crate::gates::matrices::{Mat2, Mat4};
use crate::gates::standard;
use crate::io::{fnv1a, fnv1a_update};

/// One gate application. Qubit indices are little-endian bit positions in
/// the amplitude index (qubit 0 = least significant bit).
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    // --- single-qubit, named --------------------------------------------
    H(u32),
    X(u32),
    Y(u32),
    Z(u32),
    S(u32),
    Sdg(u32),
    T(u32),
    Tdg(u32),
    Sx(u32),
    Rx(u32, f64),
    Ry(u32, f64),
    Rz(u32, f64),
    Phase(u32, f64),
    U3(u32, f64, f64, f64),
    /// Arbitrary single-qubit unitary.
    Unitary1(u32, Mat2),
    // --- two-qubit -------------------------------------------------------
    /// CNOT: (control, target).
    Cx(u32, u32),
    /// Controlled-Y: (control, target).
    Cy(u32, u32),
    /// Controlled-Z (symmetric in its qubits).
    Cz(u32, u32),
    /// Controlled phase: (control, target, θ) — symmetric.
    CPhase(u32, u32, f64),
    Swap(u32, u32),
    ISwap(u32, u32),
    /// `exp(-iθ Z⊗Z/2)` on the two qubits.
    Rzz(u32, u32, f64),
    /// `exp(-iθ X⊗X/2)` on the two qubits.
    Rxx(u32, u32, f64),
    /// Arbitrary two-qubit unitary on (high, low) = (q1, q0).
    Unitary2(u32, u32, Mat4),
    // --- three-qubit ------------------------------------------------------
    /// Toffoli: (control, control, target).
    Ccx(u32, u32, u32),
    /// Fredkin: (control, swapped, swapped).
    CSwap(u32, u32, u32),
    // --- non-unitary / classical control ----------------------------------
    /// Projective measurement of qubit `q` in the computational basis,
    /// recording the outcome in classical bit `creg`. Non-unitary:
    /// rejected by the pure-unitary executors; run such circuits through
    /// `Simulator::run_measured` / `BatchSimulator::run_measured`.
    Measure {
        q: u32,
        creg: u32,
    },
    /// Classically-controlled gate: apply `gate` when the classical
    /// register satisfies `creg & mask == val`. The inner gate must be
    /// unitary (no nesting).
    Cif {
        mask: u64,
        val: u64,
        gate: Box<Gate>,
    },
}

impl Gate {
    /// Short mnemonic for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::H(_) => "h",
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::T(_) => "t",
            Gate::Tdg(_) => "tdg",
            Gate::Sx(_) => "sx",
            Gate::Rx(..) => "rx",
            Gate::Ry(..) => "ry",
            Gate::Rz(..) => "rz",
            Gate::Phase(..) => "p",
            Gate::U3(..) => "u3",
            Gate::Unitary1(..) => "u1q",
            Gate::Cx(..) => "cx",
            Gate::Cy(..) => "cy",
            Gate::Cz(..) => "cz",
            Gate::CPhase(..) => "cp",
            Gate::Swap(..) => "swap",
            Gate::ISwap(..) => "iswap",
            Gate::Rzz(..) => "rzz",
            Gate::Rxx(..) => "rxx",
            Gate::Unitary2(..) => "u2q",
            Gate::Ccx(..) => "ccx",
            Gate::CSwap(..) => "cswap",
            Gate::Measure { .. } => "measure",
            Gate::Cif { .. } => "cif",
        }
    }

    /// Is this a unitary gate the pure state-vector executors can apply
    /// unconditionally? `false` for [`Gate::Measure`] and [`Gate::Cif`].
    pub fn is_unitary(&self) -> bool {
        !matches!(self, Gate::Measure { .. } | Gate::Cif { .. })
    }

    /// The qubits this gate touches, in declaration order.
    pub fn qubits(&self) -> Vec<u32> {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::Sx(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _)
            | Gate::Phase(q, _)
            | Gate::U3(q, ..) => vec![q],
            Gate::Unitary1(q, _) => vec![q],
            Gate::Cx(c, t) | Gate::Cy(c, t) => vec![c, t],
            Gate::Cz(a, b) | Gate::CPhase(a, b, _) => vec![a, b],
            Gate::Swap(a, b) | Gate::ISwap(a, b) | Gate::Rzz(a, b, _) | Gate::Rxx(a, b, _) => {
                vec![a, b]
            }
            Gate::Unitary2(a, b, _) => vec![a, b],
            Gate::Ccx(c1, c2, t) => vec![c1, c2, t],
            Gate::CSwap(c, a, b) => vec![c, a, b],
            Gate::Measure { q, .. } => vec![q],
            Gate::Cif { ref gate, .. } => gate.qubits(),
        }
    }

    /// Number of qubits touched.
    pub fn arity(&self) -> usize {
        self.qubits().len()
    }

    /// Does this gate only multiply amplitudes by phases (no mixing)?
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::Z(_)
                | Gate::S(_)
                | Gate::Sdg(_)
                | Gate::T(_)
                | Gate::Tdg(_)
                | Gate::Rz(..)
                | Gate::Phase(..)
                | Gate::Cz(..)
                | Gate::CPhase(..)
                | Gate::Rzz(..)
        )
    }

    /// The dense 2×2 matrix of a single-qubit gate (target, matrix).
    pub fn as_single(&self) -> Option<(u32, Mat2)> {
        let m = match *self {
            Gate::H(q) => (q, standard::h()),
            Gate::X(q) => (q, standard::x()),
            Gate::Y(q) => (q, standard::y()),
            Gate::Z(q) => (q, standard::z()),
            Gate::S(q) => (q, standard::s()),
            Gate::Sdg(q) => (q, standard::sdg()),
            Gate::T(q) => (q, standard::t()),
            Gate::Tdg(q) => (q, standard::tdg()),
            Gate::Sx(q) => (q, standard::sx()),
            Gate::Rx(q, a) => (q, standard::rx(a)),
            Gate::Ry(q, a) => (q, standard::ry(a)),
            Gate::Rz(q, a) => (q, standard::rz(a)),
            Gate::Phase(q, a) => (q, standard::phase(a)),
            Gate::U3(q, t, p, l) => (q, standard::u3(t, p, l)),
            Gate::Unitary1(q, m) => (q, m),
            _ => return None,
        };
        Some(m)
    }

    /// Controlled single-qubit form: (control, target, matrix), if the
    /// gate is a 1-control dense gate.
    pub fn as_controlled(&self) -> Option<(u32, u32, Mat2)> {
        match *self {
            Gate::Cx(c, t) => Some((c, t, standard::x())),
            Gate::Cy(c, t) => Some((c, t, standard::y())),
            Gate::Cz(c, t) => Some((c, t, standard::z())),
            Gate::CPhase(c, t, a) => Some((c, t, standard::phase(a))),
            _ => None,
        }
    }

    /// Dense 4×4 form of a two-qubit gate, as (high, low, matrix) where
    /// `high`/`low` index the basis `|high low⟩`.
    pub fn as_two(&self) -> Option<(u32, u32, Mat4)> {
        match *self {
            Gate::Cx(c, t) => Some((c, t, standard::cnot_mat())),
            Gate::Cy(c, t) => {
                let mut m = Mat4::identity();
                let y = standard::y();
                m.m[2][2] = y.m[0][0];
                m.m[2][3] = y.m[0][1];
                m.m[3][2] = y.m[1][0];
                m.m[3][3] = y.m[1][1];
                Some((c, t, m))
            }
            Gate::Cz(a, b) => Some((a, b, standard::cz_mat())),
            Gate::CPhase(a, b, th) => Some((a, b, standard::cphase_mat(th))),
            Gate::Swap(a, b) => Some((a, b, standard::swap_mat())),
            Gate::ISwap(a, b) => Some((a, b, standard::iswap_mat())),
            Gate::Rzz(a, b, th) => Some((a, b, standard::rzz_mat(th))),
            Gate::Rxx(a, b, th) => Some((a, b, standard::rxx_mat(th))),
            Gate::Unitary2(a, b, m) => Some((a, b, m)),
            _ => None,
        }
    }

    /// The same gate with every qubit index rewritten by `f` (used by the
    /// fusion engine to relocate gates into a group-local index space).
    pub fn remap(&self, f: impl Fn(u32) -> u32) -> Gate {
        match *self {
            Gate::H(q) => Gate::H(f(q)),
            Gate::X(q) => Gate::X(f(q)),
            Gate::Y(q) => Gate::Y(f(q)),
            Gate::Z(q) => Gate::Z(f(q)),
            Gate::S(q) => Gate::S(f(q)),
            Gate::Sdg(q) => Gate::Sdg(f(q)),
            Gate::T(q) => Gate::T(f(q)),
            Gate::Tdg(q) => Gate::Tdg(f(q)),
            Gate::Sx(q) => Gate::Sx(f(q)),
            Gate::Rx(q, a) => Gate::Rx(f(q), a),
            Gate::Ry(q, a) => Gate::Ry(f(q), a),
            Gate::Rz(q, a) => Gate::Rz(f(q), a),
            Gate::Phase(q, a) => Gate::Phase(f(q), a),
            Gate::U3(q, t, p, l) => Gate::U3(f(q), t, p, l),
            Gate::Unitary1(q, m) => Gate::Unitary1(f(q), m),
            Gate::Cx(c, t) => Gate::Cx(f(c), f(t)),
            Gate::Cy(c, t) => Gate::Cy(f(c), f(t)),
            Gate::Cz(a, b) => Gate::Cz(f(a), f(b)),
            Gate::CPhase(a, b, th) => Gate::CPhase(f(a), f(b), th),
            Gate::Swap(a, b) => Gate::Swap(f(a), f(b)),
            Gate::ISwap(a, b) => Gate::ISwap(f(a), f(b)),
            Gate::Rzz(a, b, th) => Gate::Rzz(f(a), f(b), th),
            Gate::Rxx(a, b, th) => Gate::Rxx(f(a), f(b), th),
            Gate::Unitary2(a, b, m) => Gate::Unitary2(f(a), f(b), m),
            Gate::Ccx(c1, c2, t) => Gate::Ccx(f(c1), f(c2), f(t)),
            Gate::CSwap(c, a, b) => Gate::CSwap(f(c), f(a), f(b)),
            Gate::Measure { q, creg } => Gate::Measure { q: f(q), creg },
            Gate::Cif { mask, val, ref gate } => {
                Gate::Cif { mask, val, gate: Box::new(gate.remap(f)) }
            }
        }
    }

    /// Fold this gate into a running FNV-1a hash: kind, qubits, and the
    /// exact bits of every parameter (angles, matrix entries, classical
    /// bit and condition).
    pub(crate) fn fingerprint_into(&self, h: u64) -> u64 {
        // The mnemonic is unique per variant and fixes how many qubits
        // and parameters follow; the 0 byte ends it.
        let mut h = fnv1a_update(fnv1a_update(h, self.name().as_bytes()), &[0]);
        for q in self.qubits() {
            h = fnv1a_update(h, &q.to_le_bytes());
        }
        let reals = |h: u64, vals: &[f64]| {
            vals.iter().fold(h, |h, v| fnv1a_update(h, &v.to_bits().to_le_bytes()))
        };
        let entries = |h: u64, rows: &[C64]| rows.iter().fold(h, |h, c| reals(h, &[c.re, c.im]));
        match self {
            Gate::Rx(_, a)
            | Gate::Ry(_, a)
            | Gate::Rz(_, a)
            | Gate::Phase(_, a)
            | Gate::CPhase(_, _, a)
            | Gate::Rzz(_, _, a)
            | Gate::Rxx(_, _, a) => reals(h, &[*a]),
            Gate::U3(_, t, p, l) => reals(h, &[*t, *p, *l]),
            Gate::Unitary1(_, m) => entries(h, m.m.as_flattened()),
            Gate::Unitary2(_, _, m) => entries(h, m.m.as_flattened()),
            Gate::Measure { creg, .. } => fnv1a_update(h, &creg.to_le_bytes()),
            Gate::Cif { mask, val, gate } => {
                let h = fnv1a_update(fnv1a_update(h, &mask.to_le_bytes()), &val.to_le_bytes());
                gate.fingerprint_into(h)
            }
            _ => h,
        }
    }

    /// The inverse gate. Panics for the non-unitary [`Gate::Measure`]
    /// and the classically-conditioned [`Gate::Cif`].
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::H(q) => Gate::H(q),
            Gate::X(q) => Gate::X(q),
            Gate::Y(q) => Gate::Y(q),
            Gate::Z(q) => Gate::Z(q),
            Gate::S(q) => Gate::Sdg(q),
            Gate::Sdg(q) => Gate::S(q),
            Gate::T(q) => Gate::Tdg(q),
            Gate::Tdg(q) => Gate::T(q),
            Gate::Sx(q) => Gate::Unitary1(q, standard::sx().adjoint()),
            Gate::Rx(q, a) => Gate::Rx(q, -a),
            Gate::Ry(q, a) => Gate::Ry(q, -a),
            Gate::Rz(q, a) => Gate::Rz(q, -a),
            Gate::Phase(q, a) => Gate::Phase(q, -a),
            Gate::U3(q, t, p, l) => Gate::Unitary1(q, standard::u3(t, p, l).adjoint()),
            Gate::Unitary1(q, m) => Gate::Unitary1(q, m.adjoint()),
            Gate::Cx(c, t) => Gate::Cx(c, t),
            Gate::Cy(c, t) => Gate::Cy(c, t),
            Gate::Cz(a, b) => Gate::Cz(a, b),
            Gate::CPhase(a, b, th) => Gate::CPhase(a, b, -th),
            Gate::Swap(a, b) => Gate::Swap(a, b),
            Gate::ISwap(a, b) => Gate::Unitary2(a, b, standard::iswap_mat().adjoint()),
            Gate::Rzz(a, b, th) => Gate::Rzz(a, b, -th),
            Gate::Rxx(a, b, th) => Gate::Rxx(a, b, -th),
            Gate::Unitary2(a, b, m) => Gate::Unitary2(a, b, m.adjoint()),
            Gate::Ccx(c1, c2, t) => Gate::Ccx(c1, c2, t),
            Gate::CSwap(c, a, b) => Gate::CSwap(c, a, b),
            Gate::Measure { .. } | Gate::Cif { .. } => {
                panic!("gate {} has no unitary inverse", self.name())
            }
        }
    }
}

/// A quantum circuit: an ordered gate list over `n` qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: u32,
    gates: Vec<Gate>,
}

impl Circuit {
    /// An empty circuit on `n_qubits`.
    pub fn new(n_qubits: u32) -> Circuit {
        assert!(n_qubits >= 1, "circuits need at least one qubit");
        Circuit { n_qubits, gates: Vec::new() }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// The gate sequence.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total gate count.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// No gates yet?
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Append a gate, validating its qubit indices. [`Gate::Measure`]
    /// must target a classical bit below 64; [`Gate::Cif`] must wrap a
    /// unitary gate (no nesting) with `val` inside `mask`.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        match &gate {
            Gate::Measure { creg, .. } => {
                assert!(*creg < 64, "classical bit {creg} beyond the 64-bit register");
            }
            Gate::Cif { mask, val, gate: inner } => {
                assert!(inner.is_unitary(), "cif cannot wrap {}", inner.name());
                assert_eq!(val & !mask, 0, "cif value {val:#x} has bits outside mask {mask:#x}");
            }
            _ => {}
        }
        let qs = gate.qubits();
        for &q in &qs {
            assert!(
                q < self.n_qubits,
                "gate {} on qubit {q} of a {}-qubit circuit",
                gate.name(),
                self.n_qubits
            );
        }
        for (i, &a) in qs.iter().enumerate() {
            for &b in &qs[i + 1..] {
                assert_ne!(a, b, "gate {} uses qubit {a} twice", gate.name());
            }
        }
        self.gates.push(gate);
        self
    }

    /// Structural FNV-1a fingerprint: width, then every gate's kind,
    /// qubits and exact parameter bits. Equal circuits hash equal; a
    /// one-ulp angle change hashes differently. Keys the
    /// [`Strategy::Auto`](crate::sim::Strategy::Auto) memo and the job
    /// server's batch/cache fingerprints.
    pub fn fingerprint(&self) -> u64 {
        self.gates.iter().fold(fnv1a(&self.n_qubits.to_le_bytes()), |h, g| g.fingerprint_into(h))
    }

    /// Append all gates of another circuit.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert!(other.n_qubits <= self.n_qubits, "appended circuit is wider");
        for g in &other.gates {
            self.push(g.clone());
        }
        self
    }

    /// Does the circuit contain any non-unitary op (measurement or
    /// classically-controlled gate)? Such circuits must run through the
    /// measured execution paths.
    pub fn has_nonunitary(&self) -> bool {
        self.gates.iter().any(|g| !g.is_unitary())
    }

    /// Width of the classical register the circuit writes or reads:
    /// the highest measured bit plus one, widened by any `cif` mask.
    pub fn creg_bits(&self) -> u32 {
        let mut bits = 0u32;
        for g in &self.gates {
            match g {
                Gate::Measure { creg, .. } => bits = bits.max(creg + 1),
                Gate::Cif { mask, .. } => bits = bits.max(64 - mask.leading_zeros()),
                _ => {}
            }
        }
        bits
    }

    /// The inverse circuit (gates reversed and inverted). Panics if the
    /// circuit contains non-unitary ops.
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::new(self.n_qubits);
        for g in self.gates.iter().rev() {
            inv.push(g.inverse());
        }
        inv
    }

    /// Circuit depth: number of layers when gates pack greedily into
    /// layers of disjoint qubit sets.
    pub fn depth(&self) -> usize {
        let mut busy_until = vec![0usize; self.n_qubits as usize];
        let mut depth = 0;
        for g in &self.gates {
            let qs = g.qubits();
            let layer = qs.iter().map(|&q| busy_until[q as usize]).max().unwrap_or(0) + 1;
            for &q in &qs {
                busy_until[q as usize] = layer;
            }
            depth = depth.max(layer);
        }
        depth
    }

    /// Gate counts keyed by mnemonic.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for g in &self.gates {
            *m.entry(g.name()).or_insert(0) += 1;
        }
        m
    }

    // ----- fluent builder helpers ----------------------------------------

    pub fn h(&mut self, q: u32) -> &mut Self {
        self.push(Gate::H(q))
    }
    pub fn x(&mut self, q: u32) -> &mut Self {
        self.push(Gate::X(q))
    }
    pub fn y(&mut self, q: u32) -> &mut Self {
        self.push(Gate::Y(q))
    }
    pub fn z(&mut self, q: u32) -> &mut Self {
        self.push(Gate::Z(q))
    }
    pub fn s(&mut self, q: u32) -> &mut Self {
        self.push(Gate::S(q))
    }
    pub fn sdg(&mut self, q: u32) -> &mut Self {
        self.push(Gate::Sdg(q))
    }
    pub fn t(&mut self, q: u32) -> &mut Self {
        self.push(Gate::T(q))
    }
    pub fn tdg(&mut self, q: u32) -> &mut Self {
        self.push(Gate::Tdg(q))
    }
    pub fn sx(&mut self, q: u32) -> &mut Self {
        self.push(Gate::Sx(q))
    }
    pub fn rx(&mut self, q: u32, theta: f64) -> &mut Self {
        self.push(Gate::Rx(q, theta))
    }
    pub fn ry(&mut self, q: u32, theta: f64) -> &mut Self {
        self.push(Gate::Ry(q, theta))
    }
    pub fn rz(&mut self, q: u32, theta: f64) -> &mut Self {
        self.push(Gate::Rz(q, theta))
    }
    pub fn p(&mut self, q: u32, theta: f64) -> &mut Self {
        self.push(Gate::Phase(q, theta))
    }
    pub fn u3(&mut self, q: u32, theta: f64, phi: f64, lambda: f64) -> &mut Self {
        self.push(Gate::U3(q, theta, phi, lambda))
    }
    pub fn cx(&mut self, c: u32, t: u32) -> &mut Self {
        self.push(Gate::Cx(c, t))
    }
    pub fn cy(&mut self, c: u32, t: u32) -> &mut Self {
        self.push(Gate::Cy(c, t))
    }
    pub fn cz(&mut self, a: u32, b: u32) -> &mut Self {
        self.push(Gate::Cz(a, b))
    }
    pub fn cp(&mut self, a: u32, b: u32, theta: f64) -> &mut Self {
        self.push(Gate::CPhase(a, b, theta))
    }
    pub fn swap(&mut self, a: u32, b: u32) -> &mut Self {
        self.push(Gate::Swap(a, b))
    }
    pub fn iswap(&mut self, a: u32, b: u32) -> &mut Self {
        self.push(Gate::ISwap(a, b))
    }
    pub fn rzz(&mut self, a: u32, b: u32, theta: f64) -> &mut Self {
        self.push(Gate::Rzz(a, b, theta))
    }
    pub fn rxx(&mut self, a: u32, b: u32, theta: f64) -> &mut Self {
        self.push(Gate::Rxx(a, b, theta))
    }
    pub fn ccx(&mut self, c1: u32, c2: u32, t: u32) -> &mut Self {
        self.push(Gate::Ccx(c1, c2, t))
    }
    pub fn cswap(&mut self, c: u32, a: u32, b: u32) -> &mut Self {
        self.push(Gate::CSwap(c, a, b))
    }
    /// Measure qubit `q` into classical bit `creg`.
    pub fn measure(&mut self, q: u32, creg: u32) -> &mut Self {
        self.push(Gate::Measure { q, creg })
    }
    /// Apply `gate` when `creg & mask == val`.
    pub fn cif(&mut self, mask: u64, val: u64, gate: Gate) -> &mut Self {
        self.push(Gate::Cif { mask, val, gate: Box::new(gate) })
    }
    /// Apply `gate` when classical bit `creg` reads `bit`.
    pub fn cif_bit(&mut self, creg: u32, bit: u8, gate: Gate) -> &mut Self {
        assert!(creg < 64, "classical bit {creg} beyond the 64-bit register");
        self.cif(1u64 << creg, u64::from(bit) << creg, gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(2, 0.5);
        assert_eq!(c.len(), 4);
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.gates()[0], Gate::H(0));
    }

    #[test]
    #[should_panic(expected = "qubit 3")]
    fn out_of_range_qubit_rejected() {
        let mut c = Circuit::new(3);
        c.h(3);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_qubit_rejected() {
        let mut c = Circuit::new(3);
        c.cx(1, 1);
    }

    #[test]
    fn depth_packs_disjoint_layers() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3); // one layer
        assert_eq!(c.depth(), 1);
        c.cx(0, 1).cx(2, 3); // second layer (disjoint)
        assert_eq!(c.depth(), 2);
        c.cx(1, 2); // third layer (overlaps both)
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn counts_by_name() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1).t(0);
        let counts = c.counts();
        assert_eq!(counts["h"], 2);
        assert_eq!(counts["cx"], 1);
        assert_eq!(counts["t"], 1);
    }

    #[test]
    fn gate_qubits_and_arity() {
        assert_eq!(Gate::H(3).qubits(), vec![3]);
        assert_eq!(Gate::Cx(1, 4).qubits(), vec![1, 4]);
        assert_eq!(Gate::Ccx(0, 1, 2).arity(), 3);
    }

    #[test]
    fn diagonal_classification() {
        assert!(Gate::Rz(0, 0.3).is_diagonal());
        assert!(Gate::Cz(0, 1).is_diagonal());
        assert!(Gate::Rzz(0, 1, 0.2).is_diagonal());
        assert!(!Gate::H(0).is_diagonal());
        assert!(!Gate::Cx(0, 1).is_diagonal());
    }

    #[test]
    fn single_gate_matrices_are_unitary() {
        let gates = [Gate::H(0), Gate::Sx(0), Gate::U3(0, 0.3, 0.5, 0.7), Gate::Rx(0, 1.0)];
        for g in gates {
            let (_, m) = g.as_single().unwrap();
            assert!(m.is_unitary(1e-12), "{}", g.name());
        }
        assert!(Gate::Cx(0, 1).as_single().is_none());
    }

    #[test]
    fn inverse_of_inverse_is_identityish() {
        // For parameterized gates inverse(inverse(g)) returns g exactly.
        let g = Gate::Rz(2, 0.7);
        assert_eq!(g.inverse().inverse(), g);
        let g = Gate::CPhase(0, 1, -0.4);
        assert_eq!(g.inverse().inverse(), g);
    }

    #[test]
    fn circuit_inverse_reverses_order() {
        let mut c = Circuit::new(2);
        c.h(0).s(1).cx(0, 1);
        let inv = c.inverse();
        assert_eq!(inv.len(), 3);
        assert_eq!(inv.gates()[0], Gate::Cx(0, 1));
        assert_eq!(inv.gates()[2], Gate::H(0));
        assert_eq!(inv.gates()[1], Gate::Sdg(1));
    }

    #[test]
    fn append_copies_gates() {
        let mut a = Circuit::new(3);
        a.h(0);
        let mut b = Circuit::new(2);
        b.x(1);
        a.append(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.gates()[1], Gate::X(1));
    }

    #[test]
    fn measure_and_cif_are_nonunitary_ops() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0).cif_bit(0, 1, Gate::X(1)).measure(1, 1);
        assert!(c.has_nonunitary());
        assert_eq!(c.creg_bits(), 2);
        assert_eq!(c.gates()[1].name(), "measure");
        assert_eq!(c.gates()[2].name(), "cif");
        assert_eq!(c.gates()[2].qubits(), vec![1]);
        assert!(!c.gates()[2].is_unitary());
        let mut u = Circuit::new(2);
        u.h(0).cx(0, 1);
        assert!(!u.has_nonunitary());
        assert_eq!(u.creg_bits(), 0);
    }

    #[test]
    fn cif_remap_follows_inner_gate() {
        let g = Gate::Cif { mask: 1, val: 1, gate: Box::new(Gate::X(0)) };
        let r = g.remap(|q| q + 3);
        assert_eq!(r.qubits(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "cannot wrap")]
    fn nested_cif_rejected() {
        let inner = Gate::Cif { mask: 1, val: 1, gate: Box::new(Gate::X(0)) };
        let mut c = Circuit::new(1);
        c.cif(2, 2, inner);
    }

    #[test]
    #[should_panic(expected = "outside mask")]
    fn cif_value_outside_mask_rejected() {
        let mut c = Circuit::new(1);
        c.cif(0b01, 0b10, Gate::X(0));
    }

    #[test]
    #[should_panic(expected = "no unitary inverse")]
    fn measure_has_no_inverse() {
        let _ = Gate::Measure { q: 0, creg: 0 }.inverse();
    }

    #[test]
    fn controlled_forms() {
        let (c, t, m) = Gate::Cx(2, 5).as_controlled().unwrap();
        assert_eq!((c, t), (2, 5));
        assert!(m.approx_eq(&crate::gates::standard::x(), 1e-15));
        assert!(Gate::Swap(0, 1).as_controlled().is_none());
    }

    #[test]
    fn two_qubit_forms_unitary() {
        for g in [
            Gate::Cx(1, 0),
            Gate::Cy(0, 1),
            Gate::Cz(0, 1),
            Gate::Swap(0, 1),
            Gate::ISwap(0, 1),
            Gate::Rzz(0, 1, 0.9),
            Gate::Rxx(0, 1, 0.9),
        ] {
            let (_, _, m) = g.as_two().unwrap();
            assert!(m.is_unitary(1e-12), "{}", g.name());
        }
    }
}
