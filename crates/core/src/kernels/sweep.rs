//! The per-gate sweeps: one range driver per index pattern.
//!
//! A gate kernel visits the state in one of two patterns. A 1-qubit
//! shape on target `t` pairs the amplitudes that differ only in bit `t`
//! (`for_pairs`, `2^(n-1)` pair indices, one zero bit inserted); a
//! 2-qubit shape groups the four that differ in its two bits
//! (`for_quads`, `2^(n-2)` group indices, two zero bits inserted). The
//! index→amplitude mapping is injective (proved by the partition tests
//! in [`crate::kernels::index`]), so disjoint index ranges write
//! disjoint amplitudes and a walker may hand any split of its range to
//! different threads; `AmpPtr` carries that proof obligation past the
//! borrow checker.
//!
//! Inside a chunk the pattern decomposes into contiguous runs, bounded
//! by the stride of the lowest target qubit, and every run is swept by
//! the [`KernelBackend`]'s vector primitives; a chunk may start or end
//! inside a run. When the stride sits below the backend's vector window
//! the walkers fall back to one scalar step per index, mirroring
//! `kernels/sve.rs`'s predicated remainder handling.
//!
//! Every function takes the optional pool: without one the walker runs
//! its whole range inline on the caller, as one chunk
//! (`for_range`). A serial sweep *is* the workshared sweep with one
//! chunk, so the two cannot disagree on which arithmetic an amplitude
//! meets — only on which thread performs it.

use omp_par::{Schedule, ThreadPool};

use crate::complex::{C64, ONE};
use crate::gates::matrices::{Mat2, Mat4};
use crate::kernels::index::{insert_two_zero_bits, insert_zero_bit};
use crate::kernels::simd::{debug_assert_aligned, KernelBackend};
use crate::kernels::{for_range, AmpPtr};

/// Walk the pairs of target `t`: `on_runs(a0, a1)` over each maximal
/// pair of contiguous runs (bit `t` clear, bit `t` set), or
/// `on_elems(a0, a1)` per pair when `2^t` is narrower than `width`.
fn for_pairs<R, E>(
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    t: u32,
    width: usize,
    on_runs: R,
    on_elems: E,
) where
    R: Fn(&mut [C64], &mut [C64]) + Sync,
    E: Fn(&mut C64, &mut C64) + Sync,
{
    debug_assert_aligned(amps);
    let stride = 1usize << t;
    debug_assert!(stride < amps.len());
    let p = AmpPtr(amps.as_mut_ptr());
    let half = amps.len() / 2;
    if stride < width {
        return for_range(pool, sched, 0..half, move |chunk| {
            for i in chunk {
                let i0 = insert_zero_bit(i, t);
                // SAFETY: (i0, i0 | stride) pairs partition the index
                // space over i.
                unsafe { on_elems(p.at(i0), p.at(i0 | stride)) }
            }
        });
    }
    for_range(pool, sched, 0..half, move |chunk| {
        // Pair index i maps to run offset i & (stride-1); sweep each
        // maximal contiguous run.
        let mut i = chunk.start;
        while i < chunk.end {
            let run = (stride - (i & (stride - 1))).min(chunk.end - i);
            let base = insert_zero_bit(i, t);
            // SAFETY: pair halves partition the index space; runs from
            // disjoint chunks touch disjoint amplitudes.
            unsafe { on_runs(p.slice(base, run), p.slice(base + stride, run)) }
            i += run;
        }
    });
}

/// Walk the quads of qubits `(h, l)`, each handed over in matrix basis
/// order `|h l⟩ = 00, 01, 10, 11`: `on_runs` over maximal contiguous
/// runs of `2^min(h,l)`, or `on_elems` per quad when that is narrower
/// than `width`.
fn for_quads<R, E>(
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    [h, l]: [u32; 2],
    width: usize,
    on_runs: R,
    on_elems: E,
) where
    R: Fn([&mut [C64]; 4]) + Sync,
    E: Fn([&mut C64; 4]) + Sync,
{
    debug_assert_ne!(h, l);
    debug_assert_aligned(amps);
    let (lo, hi) = (h.min(l), h.max(l));
    let (hbit, lbit) = (1usize << h, 1usize << l);
    debug_assert!(1usize << hi < amps.len());
    let runlen = 1usize << lo;
    let p = AmpPtr(amps.as_mut_ptr());
    let quarter = amps.len() / 4;
    if runlen < width {
        return for_range(pool, sched, 0..quarter, move |chunk| {
            for i in chunk {
                let base = insert_two_zero_bits(i, lo, hi);
                // SAFETY: 4-element groups partition the index space.
                unsafe {
                    on_elems([
                        p.at(base),
                        p.at(base | lbit),
                        p.at(base | hbit),
                        p.at(base | hbit | lbit),
                    ])
                }
            }
        });
    }
    for_range(pool, sched, 0..quarter, move |chunk| {
        // Group index bits below lo pass through insert_two_zero_bits
        // unchanged, so maximal runs stay contiguous in memory.
        let mut i = chunk.start;
        while i < chunk.end {
            let run = (runlen - (i & (runlen - 1))).min(chunk.end - i);
            let base = insert_two_zero_bits(i, lo, hi);
            // SAFETY: the four runs differ in bits h, l ≥ lo; disjoint
            // chunks yield disjoint runs.
            unsafe {
                on_runs([
                    p.slice(base, run),
                    p.slice(base | lbit, run),
                    p.slice(base | hbit, run),
                    p.slice(base | hbit | lbit, run),
                ])
            }
            i += run;
        }
    });
}

/// `(a0, a1) ← m·(a0, a1)`, the scalar step of the 2×2 shapes.
#[inline(always)]
fn mix(m: &Mat2, a0: &mut C64, a1: &mut C64) {
    [*a0, *a1] = m.apply([*a0, *a1]);
}

/// Dense 2×2 unitary on target `t`: mix each pair of runs.
pub fn apply_1q(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    t: u32,
    m: &Mat2,
) {
    let on_runs = |a0: &mut [C64], a1: &mut [C64]| (be.pairs_1q)(a0, a1, m);
    for_pairs(pool, sched, amps, t, be.width, on_runs, |a0, a1| mix(m, a0, a1));
}

/// Diagonal 1-qubit gate: `d0` on the runs with bit `t` clear, `d1` on
/// those with it set — a streaming multiply, no mixing.
pub fn apply_1q_diag(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    t: u32,
    d0: C64,
    d1: C64,
) {
    let on_runs = |a0: &mut [C64], a1: &mut [C64]| {
        (be.scale_run)(a0, d0);
        (be.scale_run)(a1, d1);
    };
    for_pairs(pool, sched, amps, t, be.width, on_runs, |a0, a1| {
        *a0 *= d0;
        *a1 *= d1;
    });
}

/// Pauli-X on target `t`: exchange the paired runs, no flops.
pub fn apply_x(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    t: u32,
) {
    let on_runs = |a0: &mut [C64], a1: &mut [C64]| (be.swap_runs)(a0, a1);
    for_pairs(pool, sched, amps, t, be.width, on_runs, std::mem::swap);
}

/// Dense 2×2 unitary on target `t` within the control-set half: the
/// `|c t⟩ = 10, 11` runs of each quad.
pub fn apply_controlled_1q(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    c: u32,
    t: u32,
    m: &Mat2,
) {
    let on_runs = |[_, _, a0, a1]: [&mut [C64]; 4]| (be.pairs_1q)(a0, a1, m);
    for_quads(pool, sched, amps, [c, t], be.width, on_runs, |[_, _, a0, a1]| mix(m, a0, a1));
}

/// Diagonal 2-qubit gate `diag(d)` in `|h l⟩` order: a streaming multiply,
/// one entry per run. A run whose entry is exactly 1 is left alone — the
/// product would be the amplitude itself — so a controlled phase sweeps
/// only its `11` quarter. The multiply is the plain complex product
/// whatever the stride, which is what lets the distributed engine apply
/// the entries of a rank-constant qubit on its own and still match a
/// serial run to the bit.
pub fn apply_2q_diag(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    h: u32,
    l: u32,
    d: [C64; 4],
) {
    let on_runs = |runs: [&mut [C64]; 4]| {
        for (run, e) in runs.into_iter().zip(d).filter(|(_, e)| *e != ONE) {
            (be.scale_run)(run, e);
        }
    };
    for_quads(pool, sched, amps, [h, l], be.width, on_runs, |quad| {
        for (a, e) in quad.into_iter().zip(d).filter(|(_, e)| *e != ONE) {
            *a *= e;
        }
    });
}

/// Dense 4×4 unitary on (high `h`, low `l`).
pub fn apply_2q(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    h: u32,
    l: u32,
    m: &Mat4,
) {
    let on_runs = |[a0, a1, a2, a3]: [&mut [C64]; 4]| (be.quads_2q)(a0, a1, a2, a3, m);
    for_quads(pool, sched, amps, [h, l], be.width, on_runs, |quad| {
        let out = m.apply([*quad[0], *quad[1], *quad[2], *quad[3]]);
        for (a, o) in quad.into_iter().zip(out) {
            *a = o;
        }
    });
}

/// SWAP two qubits: exchange the mismatched (`01`, `10`) runs.
///
/// Also the execution kernel for the planner's axis-relabeling sweeps
/// ([`crate::plan::PlanOp::SwapAxes`]): a pure permutation, no flops.
pub fn apply_swap(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    a: u32,
    b: u32,
) {
    let on_runs = |[_, x, y, _]: [&mut [C64]; 4]| (be.swap_runs)(x, y);
    for_quads(pool, sched, amps, [a, b], be.width, on_runs, |[_, x, y, _]| std::mem::swap(x, y));
}
