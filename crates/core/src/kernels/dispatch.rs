//! Gate → kernel dispatch: the one table.
//!
//! [`GateKernel`] is a gate resolved to the loop that executes it, and
//! its `From<&Gate>` is the only place that picks: X/SWAP take the
//! permutation kernels, diagonal gates the streaming multiply — which
//! leaves alone the runs whose entry is exactly 1, so a controlled phase
//! (`Cz`, `CPhase`) touches a quarter of the state —, controlled dense
//! gates the half-state kernel, and everything else the dense 1q/2q
//! sweeps. This mapping *is* the "kernel specialization" axis of the
//! performance analysis; serial runs, pooled runs, cache-blocked runs
//! and gate-backed fused singletons all read it, so an amplitude meets
//! the same primitive whichever engine sweeps it.

use omp_par::{Schedule, ThreadPool};

use crate::circuit::Gate;
use crate::complex::C64;
use crate::gates::matrices::{Mat2, Mat4};
use crate::kernels::simd::{self, KernelBackend};
use crate::kernels::{scalar, sweep};

/// A gate resolved to its kernel shape: the qubits it acts on and the
/// matrix entries its loop needs, inline.
#[derive(Debug, Clone)]
pub enum GateKernel {
    /// Dense 2×2 on one target.
    One(u32, Mat2),
    /// `diag(d0, d1)` on one target.
    Diag1(u32, C64, C64),
    /// Pauli-X: exchange the paired runs.
    X(u32),
    /// Dense 2×2 on the target (second) where the control (first) is set.
    Controlled(u32, u32, Mat2),
    /// `diag(d)` in `|h l⟩` order on (high, low); entries that are exactly
    /// 1 are not multiplied.
    Diag2(u32, u32, [C64; 4]),
    /// Dense 4×4 on (high, low).
    Two(u32, u32, Mat4),
    Swap(u32, u32),
    /// Toffoli on (control, control, target).
    Ccx(u32, u32, u32),
    /// Fredkin on (control, swapped, swapped).
    CSwap(u32, u32, u32),
}

impl From<&Gate> for GateKernel {
    /// Pick the cheapest kernel shape for `g`. Panics on
    /// [`Gate::Measure`]/[`Gate::Cif`], which are not sweeps.
    fn from(g: &Gate) -> GateKernel {
        match *g {
            Gate::X(q) => GateKernel::X(q),
            Gate::Swap(a, b) => GateKernel::Swap(a, b),
            Gate::Ccx(c1, c2, t) => GateKernel::Ccx(c1, c2, t),
            Gate::CSwap(c, a, b) => GateKernel::CSwap(c, a, b),
            _ => {
                if let Some((q, m)) = g.as_single() {
                    if g.is_diagonal() {
                        GateKernel::Diag1(q, m.m[0][0], m.m[1][1])
                    } else {
                        GateKernel::One(q, m)
                    }
                } else if let Some((h, l, m)) = g.as_two() {
                    if g.is_diagonal() {
                        GateKernel::Diag2(h, l, [m.m[0][0], m.m[1][1], m.m[2][2], m.m[3][3]])
                    } else if let Some((c, t, m)) = g.as_controlled() {
                        GateKernel::Controlled(c, t, m)
                    } else {
                        GateKernel::Two(h, l, m)
                    }
                } else {
                    unreachable!("gate {} has no kernel mapping", g.name());
                }
            }
        }
    }
}

impl GateKernel {
    /// Highest qubit index the kernel touches.
    pub fn max_qubit(&self) -> u32 {
        match *self {
            GateKernel::One(q, _) | GateKernel::Diag1(q, ..) | GateKernel::X(q) => q,
            GateKernel::Controlled(a, b, _)
            | GateKernel::Diag2(a, b, _)
            | GateKernel::Two(a, b, _)
            | GateKernel::Swap(a, b) => a.max(b),
            GateKernel::Ccx(a, b, c) | GateKernel::CSwap(a, b, c) => a.max(b).max(c),
        }
    }

    /// One sweep over a (sub-)state of any power-of-two length covering
    /// the kernel's qubits: workshared across `pool`, or inline on the
    /// caller without one — bit-identical either way.
    ///
    /// The cold 3-qubit permutation gates (CCX/CSwap) stay on the scalar
    /// loops and on the calling thread; every hot shape routes through
    /// the backend's vector primitives.
    pub fn apply(
        &self,
        be: &KernelBackend,
        pool: Option<&ThreadPool>,
        sched: Schedule,
        amps: &mut [C64],
    ) {
        match self {
            GateKernel::One(q, m) => sweep::apply_1q(be, pool, sched, amps, *q, m),
            GateKernel::Diag1(q, d0, d1) => {
                sweep::apply_1q_diag(be, pool, sched, amps, *q, *d0, *d1)
            }
            GateKernel::X(q) => sweep::apply_x(be, pool, sched, amps, *q),
            GateKernel::Controlled(c, t, m) => {
                sweep::apply_controlled_1q(be, pool, sched, amps, *c, *t, m)
            }
            GateKernel::Diag2(h, l, d) => sweep::apply_2q_diag(be, pool, sched, amps, *h, *l, *d),
            GateKernel::Two(h, l, m) => sweep::apply_2q(be, pool, sched, amps, *h, *l, m),
            GateKernel::Swap(a, b) => sweep::apply_swap(be, pool, sched, amps, *a, *b),
            GateKernel::Ccx(c1, c2, t) => scalar::apply_ccx(amps, *c1, *c2, *t),
            GateKernel::CSwap(c, a, b) => scalar::apply_cswap(amps, *c, *a, *b),
        }
    }
}

/// Apply one gate with the default SIMD backend ([`simd::active`], the
/// best one runtime feature detection finds).
pub fn apply_gate(amps: &mut [C64], g: &Gate) {
    apply_gate_with(simd::active(), amps, g);
}

/// Apply one gate through an explicit kernel backend, on the caller.
pub fn apply_gate_with(be: &KernelBackend, amps: &mut [C64], g: &Gate) {
    GateKernel::from(g).apply(be, None, Schedule::default(), amps);
}

/// Apply one gate with its sweep workshared across `pool`: the same
/// kernel [`apply_gate_with`] runs, bit for bit.
pub fn apply_gate_parallel_with(
    be: &KernelBackend,
    pool: &ThreadPool,
    sched: Schedule,
    amps: &mut [C64],
    g: &Gate,
) {
    GateKernel::from(g).apply(be, Some(pool), sched, amps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference: every gate through the generic dense kernels only.
    fn apply_gate_dense(amps: &mut [C64], g: &Gate) {
        if let Some((q, m)) = g.as_single() {
            scalar::apply_1q(amps, q, &m);
        } else if let Some((h, l, m)) = g.as_two() {
            scalar::apply_2q(amps, h, l, &m);
        } else {
            // 3-qubit gates have no dense path here; use dispatch.
            apply_gate(amps, g);
        }
    }

    fn all_gates() -> Vec<Gate> {
        vec![
            Gate::H(0),
            Gate::X(3),
            Gate::Y(1),
            Gate::Z(2),
            Gate::S(4),
            Gate::Sdg(0),
            Gate::T(1),
            Gate::Tdg(2),
            Gate::Sx(3),
            Gate::Rx(4, 0.3),
            Gate::Ry(0, -0.7),
            Gate::Rz(1, 1.9),
            Gate::Phase(2, 0.4),
            Gate::U3(3, 0.1, 0.2, 0.3),
            Gate::Cx(0, 4),
            Gate::Cy(1, 3),
            Gate::Cz(2, 0),
            Gate::CPhase(3, 1, 0.6),
            Gate::Swap(4, 2),
            Gate::ISwap(0, 1),
            Gate::Rzz(2, 3, -0.5),
            Gate::Rxx(1, 4, 0.8),
            Gate::Ccx(0, 1, 2),
            Gate::CSwap(3, 4, 0),
        ]
    }

    #[test]
    fn dispatch_matches_dense_for_every_gate() {
        // The active backend, and the portable primitives behind a
        // pretended vector width of 4: qubits 0 and 1 then take the
        // walkers' per-index path, so Miri — which has no native backend
        // and selects this module by path — interprets both sides of the
        // vector window. The full shape × placement × pool matrix is the
        // facade's `tests/kernel_conformance.rs`.
        let portable = simd::backend_for(simd::BackendChoice::Scalar);
        let windowed = KernelBackend { name: "portable-as-width-4", width: 4, ..*portable };
        let mut rng = StdRng::seed_from_u64(10);
        for g in all_gates() {
            let a0 = StateVector::random(5, &mut rng);
            let mut b = a0.clone();
            apply_gate_dense(b.amplitudes_mut(), &g);
            for be in [simd::active(), &windowed] {
                let mut a = a0.clone();
                apply_gate_with(be, a.amplitudes_mut(), &g);
                assert!(a.approx_eq(&b, 1e-12), "{} gate {}", be.name, g.name());
            }
        }
    }

    #[test]
    fn circuit_through_dispatch_preserves_norm() {
        let mut c = Circuit::new(5);
        c.h(0).cx(0, 1).rzz(1, 2, 0.3).ccx(2, 3, 4).iswap(0, 4).t(2);
        let mut s = StateVector::zero(5);
        for g in c.gates() {
            apply_gate(s.amplitudes_mut(), g);
        }
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }
}
