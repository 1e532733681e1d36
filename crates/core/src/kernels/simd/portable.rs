//! Portable fallback backend.
//!
//! Width-1 implementations of the [`KernelBackend`] primitive set, with
//! arithmetic identical to the [`crate::kernels::scalar`] loops (same
//! [`C64::fma`] ordering), so forcing this backend reproduces scalar
//! results bit-for-bit. The run-oriented loops are also what the SIMD
//! backends fall back to for remainders and narrow strides.

use crate::complex::C64;
use crate::gates::matrices::{Mat2, Mat4};
use crate::kernels::fused::{self, Block, Lanes};

use super::KernelBackend;

pub(super) static BACKEND: KernelBackend = KernelBackend {
    name: "portable",
    width: 1,
    pairs_1q,
    scale_run,
    swap_runs,
    quads_2q,
    block_range,
    sum_norms_run,
    norms_into_run,
    sum_f64_run,
    dot_conj_run,
    mul_conj_into_run,
    sum_c64_run,
};

/// `out0 = m00·a0 + m01·a1`, `out1 = m10·a0 + m11·a1` over paired runs.
fn pairs_1q(a0: &mut [C64], a1: &mut [C64], m: &Mat2) {
    debug_assert_eq!(a0.len(), a1.len());
    let (m00, m01, m10, m11) = (m.m[0][0], m.m[0][1], m.m[1][0], m.m[1][1]);
    for (x0, x1) in a0.iter_mut().zip(a1.iter_mut()) {
        let v0 = *x0;
        let v1 = *x1;
        *x0 = C64::default().fma(m00, v0).fma(m01, v1);
        *x1 = C64::default().fma(m10, v0).fma(m11, v1);
    }
}

/// Multiply a contiguous run by one diagonal entry.
fn scale_run(run: &mut [C64], d: C64) {
    for a in run {
        *a *= d;
    }
}

/// Exchange two equal-length runs (the X/SWAP permutation core).
fn swap_runs(a: &mut [C64], b: &mut [C64]) {
    a.swap_with_slice(b);
}

/// Dense 4×4 mat-vec across four runs in matrix basis order `v0..v3`.
fn quads_2q(a0: &mut [C64], a1: &mut [C64], a2: &mut [C64], a3: &mut [C64], m: &Mat4) {
    for i in 0..a0.len() {
        let v = [a0[i], a1[i], a2[i], a3[i]];
        let out = m.apply(v);
        a0[i] = out[0];
        a1[i] = out[1];
        a2[i] = out[2];
        a3[i] = out[3];
    }
}

/// `Σ |a|²` over one run, accumulated sequentially (the reference
/// ordering the reduction conformance tests compare SIMD backends to).
fn sum_norms_run(run: &[C64]) -> f64 {
    let mut acc = 0.0;
    for a in run {
        acc += a.norm_sqr();
    }
    acc
}

/// `out[k] = |run[k]|²`.
fn norms_into_run(run: &[C64], out: &mut [f64]) {
    debug_assert_eq!(run.len(), out.len());
    for (a, o) in run.iter().zip(out.iter_mut()) {
        *o = a.norm_sqr();
    }
}

/// `Σ x` over an `f64` scratch run.
fn sum_f64_run(run: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &x in run {
        acc += x;
    }
    acc
}

/// `Σ conj(u)·v` over paired runs.
fn dot_conj_run(u: &[C64], v: &[C64]) -> C64 {
    debug_assert_eq!(u.len(), v.len());
    let mut acc = C64::default();
    for (a, b) in u.iter().zip(v.iter()) {
        acc = acc.fma(a.conj(), *b);
    }
    acc
}

/// `out[k] = conj(u[k])·v[k]`.
fn mul_conj_into_run(u: &[C64], v: &[C64], out: &mut [C64]) {
    debug_assert_eq!(u.len(), v.len());
    debug_assert_eq!(u.len(), out.len());
    for ((a, b), o) in u.iter().zip(v.iter()).zip(out.iter_mut()) {
        *o = a.conj() * *b;
    }
}

/// `Σ x` over a complex scratch run.
fn sum_c64_run(run: &[C64]) -> C64 {
    let mut acc = C64::default();
    for &x in run {
        acc += x;
    }
    acc
}

/// One complex number is a vector of one lane: the block kernel at
/// width 1, in plain multiplies and adds (no `mul_add`, which is a libm
/// call on baseline x86-64).
// SAFETY: `C64` is `#[repr(C)] { re: f64, im: f64 }`: one real lane, then
// one imaginary lane.
unsafe impl Lanes for C64 {
    const W: usize = 1;
    type Acc = [f64; 4];

    #[inline(always)]
    unsafe fn zero() -> C64 {
        C64::default()
    }

    #[inline(always)]
    unsafe fn load(p: *const C64) -> C64 {
        *p
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut C64) {
        *p = self;
    }

    unsafe fn exchange(_: u32, _: C64, _: C64) -> (C64, C64) {
        unreachable!("no target sits below a one-lane vector")
    }

    #[inline(always)]
    unsafe fn acc_zero() -> [f64; 4] {
        [0.0; 4]
    }

    #[inline(always)]
    unsafe fn mul_acc(acc: [f64; 4], w: C64, v: C64) -> [f64; 4] {
        [acc[0] + w.re * v.re, acc[1] + w.im * v.im, acc[2] + w.re * v.im, acc[3] + w.im * v.re]
    }

    #[inline(always)]
    unsafe fn fold(a: [f64; 4], b: [f64; 4]) -> C64 {
        C64::new((a[0] + b[0]) - (a[1] + b[1]), (a[2] + b[2]) + (a[3] + b[3]))
    }
}

/// The block kernel one group per step.
///
/// # Safety
/// As [`fused::block_range`].
unsafe fn block_range(amps: *mut C64, g0: usize, g1: usize, blk: &Block) {
    fused::block_range::<C64>(amps, g0, g1, blk)
}
