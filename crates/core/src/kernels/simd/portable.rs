//! Portable backend: one complex number is a vector of one lane.
//!
//! Every primitive is the generic one of `lanes` at `W = 1`,
//! whose lane arithmetic is [`C64`]'s own (`fma` is [`C64::fma`], `mul`
//! the scalar `Mul`). So the per-gate sweeps reproduce the
//! [`crate::kernels::scalar`] loops bit for bit, and the runs never have
//! a ragged tail. Compiled for the baseline target, no intrinsics: the
//! backend Miri interprets and `--backend scalar` selects.

use crate::complex::C64;

use super::lanes::{kernel_backend, Lanes, RunLanes};

kernel_backend!("portable", C64);

/// The block kernel at width 1, in plain multiplies and adds (no
/// `mul_add`, which is a libm call on baseline x86-64).
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

impl RunLanes for C64 {
    #[inline(always)]
    unsafe fn splat(c: C64) -> C64 {
        c
    }

    #[inline(always)]
    unsafe fn fma(acc: C64, w: C64, v: C64) -> C64 {
        acc.fma(w, v)
    }

    #[inline(always)]
    unsafe fn mul(a: C64, b: C64) -> C64 {
        a * b
    }

    #[inline(always)]
    unsafe fn conj(self) -> C64 {
        C64::conj(self)
    }

    #[inline(always)]
    unsafe fn add(a: C64, b: C64) -> C64 {
        a + b
    }

    #[inline(always)]
    unsafe fn madd(acc: C64, a: C64, b: C64) -> C64 {
        C64::new(acc.re + a.re * b.re, acc.im + a.im * b.im)
    }
}
