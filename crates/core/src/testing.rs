//! Seeded random-circuit generation shared by the differential test
//! suites (property tests, the dense-unitary oracle, the batched
//! conformance matrix, and the cross-substrate integration tests), plus
//! one-block circuits of each fused structure class for the kernel
//! suites ([`class_circuit`]).
//!
//! Every [`Gate`] constructor is reachable: dense and diagonal
//! single-qubit gates, controlled gates, dense and diagonal two-qubit
//! gates, swaps, parameterized rotations, arbitrary `Unitary1`/
//! `Unitary2` matrices, and the three-qubit `Ccx`/`CSwap` (emitted only
//! when the register is wide enough). The module is deliberately
//! `rand`-only — `proptest` is a dev-dependency, so the property suite
//! wraps these functions in strategies rather than the other way round.

use std::f64::consts::TAU;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::circuit::{Circuit, Gate};
use crate::fusion::FusedClass;
use crate::gates::matrices::{Mat2, Mat4};
use crate::gates::standard;

/// Distinct gate constructors [`random_gate`] can draw from on a
/// register of ≥ 3 qubits.
pub const GATE_KINDS: usize = 26;

const ONE_QUBIT_KINDS: u32 = 15;
const TWO_QUBIT_KINDS: u32 = 9;

fn angle<R: Rng>(rng: &mut R) -> f64 {
    rng.gen_range(0.0..TAU)
}

/// A random element of U(2): a Haar-ish `u3` rotation composed with a
/// random relative phase. Products of unitaries stay unitary exactly,
/// so no re-orthogonalization is needed.
pub fn random_unitary1<R: Rng>(rng: &mut R) -> Mat2 {
    standard::u3(angle(rng), angle(rng), angle(rng)).mul(&standard::phase(angle(rng)))
}

/// A random entangling element of U(4), built as an alternating product
/// of local rotations and `Rxx`/`Rzz` interactions (the KAK-style
/// sandwich) — unitary by construction.
pub fn random_unitary2<R: Rng>(rng: &mut R) -> Mat4 {
    let left = Mat4::kron(&random_unitary1(rng), &random_unitary1(rng));
    let right = Mat4::kron(&random_unitary1(rng), &random_unitary1(rng));
    left.mul(&standard::rxx_mat(angle(rng))).mul(&right).mul(&standard::rzz_mat(angle(rng)))
}

/// `k` distinct qubit indices below `n`, in random order (partial
/// Fisher–Yates).
fn distinct<R: Rng>(rng: &mut R, n: u32, k: usize) -> Vec<u32> {
    assert!(k as u32 <= n, "cannot pick {k} distinct qubits from {n}");
    let mut pool: Vec<u32> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// One uniformly chosen gate on a register of `n` qubits. Two-qubit
/// constructors need `n ≥ 2` and the three-qubit `Ccx`/`CSwap` need
/// `n ≥ 3`; narrower registers draw from the constructors that fit.
pub fn random_gate<R: Rng>(rng: &mut R, n: u32) -> Gate {
    assert!(n >= 1, "random_gate needs at least one qubit");
    let kinds = match n {
        1 => ONE_QUBIT_KINDS,
        2 => ONE_QUBIT_KINDS + TWO_QUBIT_KINDS,
        _ => GATE_KINDS as u32,
    };
    let kind = rng.gen_range(0..kinds);
    if kind < ONE_QUBIT_KINDS {
        let q = rng.gen_range(0..n);
        return match kind {
            0 => Gate::H(q),
            1 => Gate::X(q),
            2 => Gate::Y(q),
            3 => Gate::Z(q),
            4 => Gate::S(q),
            5 => Gate::Sdg(q),
            6 => Gate::T(q),
            7 => Gate::Tdg(q),
            8 => Gate::Sx(q),
            9 => Gate::Rx(q, angle(rng)),
            10 => Gate::Ry(q, angle(rng)),
            11 => Gate::Rz(q, angle(rng)),
            12 => Gate::Phase(q, angle(rng)),
            13 => Gate::U3(q, angle(rng), angle(rng), angle(rng)),
            _ => Gate::Unitary1(q, random_unitary1(rng)),
        };
    }
    if kind < ONE_QUBIT_KINDS + TWO_QUBIT_KINDS {
        let qs = distinct(rng, n, 2);
        let (a, b) = (qs[0], qs[1]);
        return match kind - ONE_QUBIT_KINDS {
            0 => Gate::Cx(a, b),
            1 => Gate::Cy(a, b),
            2 => Gate::Cz(a, b),
            3 => Gate::CPhase(a, b, angle(rng)),
            4 => Gate::Swap(a, b),
            5 => Gate::ISwap(a, b),
            6 => Gate::Rzz(a, b, angle(rng)),
            7 => Gate::Rxx(a, b, angle(rng)),
            _ => Gate::Unitary2(a, b, random_unitary2(rng)),
        };
    }
    let qs = distinct(rng, n, 3);
    match kind - ONE_QUBIT_KINDS - TWO_QUBIT_KINDS {
        0 => Gate::Ccx(qs[0], qs[1], qs[2]),
        _ => Gate::CSwap(qs[0], qs[1], qs[2]),
    }
}

/// A circuit of `gates` uniformly random gates on `n` qubits, drawn
/// from the caller's generator so sequences compose deterministically.
pub fn random_circuit<R: Rng>(rng: &mut R, n: u32, gates: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        c.push(random_gate(rng, n));
    }
    c
}

/// Seeded convenience wrapper: the same `(n, gates, seed)` triple
/// always yields the same circuit.
pub fn random_circuit_seeded(n: u32, gates: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    random_circuit(&mut rng, n, gates)
}

/// A circuit on `qubits` of an `n`-qubit register whose gates multiply
/// to one `qubits.len()`-qubit block of structure `class`, every qubit
/// touched and at least two gates long (so the block is not backed by a
/// single gate's kernel). `None` where the class does not exist at that
/// width: a sparse, non-monomial unitary needs three qubits.
pub fn class_circuit(class: FusedClass, n: u32, qubits: &[u32]) -> Option<Circuit> {
    let mut c = Circuit::new(n);
    let pairs = || qubits.windows(2).map(|w| (w[0], w[1]));
    match class {
        FusedClass::Diagonal => {
            for (j, &q) in qubits.iter().enumerate() {
                c.rz(q, 0.4 + j as f64).t(q);
            }
            for (a, b) in pairs() {
                c.cp(a, b, 0.9);
            }
        }
        FusedClass::Permutation => {
            for &q in qubits {
                c.x(q).z(q);
            }
            for (a, b) in pairs() {
                c.cx(a, b);
            }
        }
        FusedClass::Sparse => {
            // Two nonzeros per row: at most a quarter of the entries
            // from three qubits up.
            let [first, second, .., last] = qubits[..] else { return None };
            c.ccx(first, second, last).rx(last, 0.7);
            for (a, b) in pairs() {
                c.cz(a, b);
            }
        }
        FusedClass::Dense => {
            for (j, &q) in qubits.iter().enumerate() {
                c.h(q).ry(q, 0.3 + j as f64);
            }
            for (a, b) in pairs() {
                c.cx(a, b);
            }
        }
    }
    Some(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::dispatch::apply_gate;
    use crate::state::StateVector;
    use std::collections::BTreeSet;

    #[test]
    fn every_constructor_is_reachable() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut names = BTreeSet::new();
        for _ in 0..4000 {
            names.insert(random_gate(&mut rng, 4).name());
        }
        assert_eq!(names.len(), GATE_KINDS, "missing constructors: saw {names:?}");
    }

    #[test]
    fn narrow_registers_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            assert!(random_gate(&mut rng, 1).arity() == 1);
            assert!(random_gate(&mut rng, 2).arity() <= 2);
        }
    }

    #[test]
    fn seeded_circuits_are_reproducible() {
        let a = random_circuit_seeded(5, 30, 42);
        let b = random_circuit_seeded(5, 30, 42);
        assert_eq!(a, b);
        assert_ne!(a, random_circuit_seeded(5, 30, 43));
    }

    #[test]
    fn random_unitaries_are_unitary() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            assert!(random_unitary1(&mut rng).is_unitary(1e-12));
            assert!(random_unitary2(&mut rng).is_unitary(1e-12));
        }
    }

    #[test]
    fn class_circuits_fuse_to_one_block_of_their_class() {
        use FusedClass::*;
        for class in [Diagonal, Permutation, Sparse, Dense] {
            for k in 1..=5usize {
                let qubits: Vec<u32> = (0..k as u32).map(|j| 1 + 2 * j).collect();
                let Some(c) = class_circuit(class, 11, &qubits) else {
                    assert!(class == Sparse && k < 3);
                    continue;
                };
                let plan = crate::fusion::fuse(&c, k as u32);
                assert_eq!(plan.len(), 1, "{class:?} k={k}");
                assert_eq!((plan[0].class, &plan[0].qubits), (class, &qubits), "k={k}");
                assert!(plan[0].gate.is_none());
            }
        }
    }

    #[test]
    fn generated_circuits_preserve_norm() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let c = random_circuit(&mut rng, 6, 40);
            let mut s = StateVector::zero(6);
            for g in c.gates() {
                apply_gate(s.amplitudes_mut(), g);
            }
            assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
        }
    }
}
