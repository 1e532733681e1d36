//! Gate → kernel dispatch: the one table.
//!
//! [`GateKernel`] is a gate resolved to the loop that executes it, and
//! its `From<&Gate>` is the only place that picks: X/SWAP take the
//! permutation kernels, diagonal gates the streaming multiply — which
//! leaves alone the runs whose entry is exactly 1, so a controlled phase
//! (`Cz`, `CPhase`) touches a quarter of the state —, controlled dense
//! gates the half-state kernel, and everything else the dense 1q/2q
//! sweeps. This mapping *is* the "kernel specialization" axis of the
//! performance analysis; serial, pooled and tiled runs (pinned to a
//! tile by [`GateKernel::pin`]) and gate-backed fused singletons all
//! read it, so an amplitude meets one primitive whoever sweeps it.

use omp_par::{Schedule, ThreadPool};

use crate::circuit::Gate;
use crate::complex::{C64, ONE};
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

    /// This kernel on one `2^w`-amplitude slice of a larger state whose
    /// index bits at and above `w` are fixed to those of `base`: a
    /// distributed rank's shard (`w` its local width, `base` its rank's
    /// bits) or one tile of a cache-blocked pass.
    ///
    /// * Every qubit below `w`: the kernel itself.
    /// * A diagonal with qubits at or above `w`: the row their fixed bits
    ///   select, as a [`GateKernel::Diag1`] on the low qubit left — or,
    ///   with none left, one uniform factor, spelled as a `Diag1` with
    ///   equal entries on axis `w − 2`, an axis even half the slice has.
    /// * A [`GateKernel::Controlled`] with a fixed control and a low
    ///   target: the bare target kernel where the control bit is set.
    ///
    /// `Some(None)` when nothing is left to multiply (unit entries, or an
    /// unset control); `None` when the kernel cannot be pinned, because
    /// it moves amplitudes between slices. A pinned kernel applies the
    /// plain complex product, or the 2×2, the full kernel applies to the
    /// same amplitude, so the bits agree.
    pub fn pin(&self, w: u32, base: usize) -> Option<Option<GateKernel>> {
        if self.max_qubit() < w {
            return Some(Some(self.clone()));
        }
        let bit = |q: u32| (base >> q) & 1;
        let diag1 = |q, d0, d1| (d0 != ONE || d1 != ONE).then_some(GateKernel::Diag1(q, d0, d1));
        let uniform = |d| diag1(w.saturating_sub(2), d, d);
        Some(match *self {
            GateKernel::Diag1(q, d0, d1) => uniform([d0, d1][bit(q)]),
            GateKernel::Diag2(h, l, d) => {
                // Entry of `|h l⟩`.
                let d = |hb: usize, lb: usize| d[hb << 1 | lb];
                match (h < w, l < w) {
                    (true, _) => diag1(h, d(0, bit(l)), d(1, bit(l))),
                    (_, true) => diag1(l, d(bit(h), 0), d(bit(h), 1)),
                    _ => uniform(d(bit(h), bit(l))),
                }
            }
            GateKernel::Controlled(c, t, m) if t < w => {
                (bit(c) == 1).then_some(GateKernel::One(t, m))
            }
            _ => return None,
        })
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
    use crate::align::AlignedAmps;
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
        // The active backend, and the array backends of 2, 4 and 8 lanes:
        // their low qubits take the walkers' exchange steps, so Miri —
        // which has no native backend and selects this module by path —
        // interprets both sides of the vector window. The full shape ×
        // placement × pool matrix is the facade's
        // `tests/kernel_conformance.rs`.
        let mut rng = StdRng::seed_from_u64(10);
        for g in all_gates() {
            let a0 = StateVector::random(5, &mut rng);
            let mut b = a0.clone();
            apply_gate_dense(b.amplitudes_mut(), &g);
            for be in [simd::active()].into_iter().chain(simd::array::backends()) {
                let mut a = a0.clone();
                apply_gate_with(be, a.amplitudes_mut(), &g);
                assert!(a.approx_eq(&b, 1e-12), "{} gate {}", be.name, g.name());
            }
        }
    }

    /// Every shape on an n = 6 state, on qubits that land on both sides
    /// of some width: diagonals with unit and non-unit entries and 0, 1
    /// or 2 qubits high, controlled gates with a high control or a high
    /// target, and the shapes that move amplitudes.
    fn pin_cases() -> Vec<GateKernel> {
        use crate::gates::standard::{h, iswap_mat};
        let e = |t: f64| C64::new(t.cos(), t.sin());
        let (a, b, c) = (e(0.3), e(-1.1), e(2.0));
        vec![
            GateKernel::Diag1(5, a, b),
            GateKernel::Diag1(3, ONE, c),
            GateKernel::Diag1(1, b, ONE),
            GateKernel::Diag1(4, ONE, ONE),
            GateKernel::Diag2(5, 4, [a, b, c, e(0.7)]),
            GateKernel::Diag2(4, 1, [ONE, ONE, ONE, c]),
            GateKernel::Diag2(0, 5, [ONE, a, ONE, b]),
            GateKernel::Diag2(2, 3, [ONE; 4]),
            GateKernel::Controlled(5, 0, h()),
            GateKernel::Controlled(4, 2, h()),
            GateKernel::Controlled(0, 5, h()),
            GateKernel::One(1, h()),
            GateKernel::One(5, h()),
            GateKernel::X(4),
            GateKernel::Two(5, 1, iswap_mat()),
            GateKernel::Swap(0, 2),
            GateKernel::Ccx(5, 4, 0),
        ]
    }

    /// What `pin` must accept at width `w`, stated apart from it.
    fn pinnable(k: &GateKernel, w: u32) -> bool {
        match *k {
            _ if k.max_qubit() < w => true,
            GateKernel::Diag1(..) | GateKernel::Diag2(..) => true,
            GateKernel::Controlled(_, t, _) => t < w,
            _ => false,
        }
    }

    #[test]
    fn a_pinned_kernel_on_every_tile_is_the_full_kernel_there() {
        let be = simd::active();
        let bits =
            |s: &[C64]| s.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect::<Vec<_>>();
        let s0 = StateVector::random(6, &mut StdRng::seed_from_u64(35));
        for k in pin_cases() {
            let mut full = s0.clone();
            k.apply(be, None, Schedule::default(), full.amplitudes_mut());
            for w in 1..=6u32 {
                if !pinnable(&k, w) {
                    assert!(k.pin(w, 0).is_none(), "{k:?} at w={w} moves amplitudes between tiles");
                    continue;
                }
                for (t, want) in full.amplitudes().chunks_exact(1 << w).enumerate() {
                    let base = t << w;
                    let mut tile = AlignedAmps::from_slice(&s0.amplitudes()[base..base + (1 << w)]);
                    let pinned = k.pin(w, base).unwrap_or_else(|| panic!("{k:?} at w={w}"));
                    if k.max_qubit() >= w {
                        let unit = want == &tile[..];
                        assert_eq!(pinned.is_none(), unit, "{k:?} w={w} tile {t}: None iff unit");
                    }
                    if let Some(p) = pinned {
                        p.apply(be, None, Schedule::default(), &mut tile);
                    }
                    assert_eq!(bits(&tile), bits(want), "{k:?} w={w} tile {t}");
                }
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
