//! NEON backend: 2 complex lanes per vector.
//!
//! The deinterleave is free: `vld2q_f64`/`vst2q_f64` split interleaved
//! complexes into re/im planes in one instruction — the ASIMD analogue
//! of SVE's `ld2d`/`st2d` that the paper's kernels are built on — and
//! leave lanes in memory order. Every primitive is the generic one of
//! `lanes`; NEON is baseline on aarch64-linux, so the table
//! needs neither a target feature nor runtime detection.

use std::arch::aarch64::*;

use crate::complex::C64;

use super::lanes::{kernel_backend, Lanes, RunLanes};

kernel_backend!("neon", CVec);

/// Two complex numbers as separate real/imaginary planes.
#[derive(Clone, Copy)]
#[repr(C)]
struct CVec {
    re: float64x2_t,
    im: float64x2_t,
}

// SAFETY: `CVec` is `#[repr(C)]`: two real lanes, then two imaginary.
unsafe impl Lanes for CVec {
    const W: usize = 2;
    type Acc = [float64x2_t; 4];

    #[inline(always)]
    unsafe fn zero() -> CVec {
        CVec { re: vdupq_n_f64(0.0), im: vdupq_n_f64(0.0) }
    }

    #[inline(always)]
    unsafe fn load(p: *const C64) -> CVec {
        let v = vld2q_f64(p as *const f64);
        CVec { re: v.0, im: v.1 }
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut C64) {
        vst2q_f64(p as *mut f64, float64x2x2_t(self.re, self.im));
    }

    /// The one lane bit trades places through `zip1`/`zip2`.
    #[inline(always)]
    unsafe fn exchange(_: u32, a: CVec, b: CVec) -> (CVec, CVec) {
        (
            CVec { re: vzip1q_f64(a.re, b.re), im: vzip1q_f64(a.im, b.im) },
            CVec { re: vzip2q_f64(a.re, b.re), im: vzip2q_f64(a.im, b.im) },
        )
    }

    #[inline(always)]
    unsafe fn acc_zero() -> [float64x2_t; 4] {
        [vdupq_n_f64(0.0); 4]
    }

    #[inline(always)]
    unsafe fn mul_acc(acc: [float64x2_t; 4], w: C64, v: CVec) -> [float64x2_t; 4] {
        let (wr, wi) = (vdupq_n_f64(w.re), vdupq_n_f64(w.im));
        [
            vfmaq_f64(acc[0], wr, v.re),
            vfmaq_f64(acc[1], wi, v.im),
            vfmaq_f64(acc[2], wr, v.im),
            vfmaq_f64(acc[3], wi, v.re),
        ]
    }

    #[inline(always)]
    unsafe fn fold(a: [float64x2_t; 4], b: [float64x2_t; 4]) -> CVec {
        CVec {
            re: vsubq_f64(vaddq_f64(a[0], b[0]), vaddq_f64(a[1], b[1])),
            im: vaddq_f64(vaddq_f64(a[2], b[2]), vaddq_f64(a[3], b[3])),
        }
    }
}

impl RunLanes for CVec {
    #[inline(always)]
    unsafe fn splat(c: C64) -> CVec {
        CVec { re: vdupq_n_f64(c.re), im: vdupq_n_f64(c.im) }
    }

    #[inline(always)]
    unsafe fn fma(acc: CVec, w: CVec, v: CVec) -> CVec {
        CVec {
            re: vfmsq_f64(vfmaq_f64(acc.re, w.re, v.re), w.im, v.im),
            im: vfmaq_f64(vfmaq_f64(acc.im, w.re, v.im), w.im, v.re),
        }
    }

    #[inline(always)]
    unsafe fn mul(a: CVec, b: CVec) -> CVec {
        CVec {
            re: vsubq_f64(vmulq_f64(a.re, b.re), vmulq_f64(a.im, b.im)),
            im: vaddq_f64(vmulq_f64(a.re, b.im), vmulq_f64(a.im, b.re)),
        }
    }

    #[inline(always)]
    unsafe fn conj(self) -> CVec {
        CVec { re: self.re, im: vnegq_f64(self.im) }
    }

    #[inline(always)]
    unsafe fn add(a: CVec, b: CVec) -> CVec {
        CVec { re: vaddq_f64(a.re, b.re), im: vaddq_f64(a.im, b.im) }
    }

    #[inline(always)]
    unsafe fn madd(acc: CVec, a: CVec, b: CVec) -> CVec {
        CVec { re: vfmaq_f64(acc.re, a.re, b.re), im: vfmaq_f64(acc.im, a.im, b.im) }
    }

    /// `vbsl` takes each bit from `b` where the mask's is set.
    #[inline(always)]
    unsafe fn select(pick: CVec, a: CVec, b: CVec) -> CVec {
        let m = vreinterpretq_u64_f64(pick.re);
        CVec { re: vbslq_f64(m, b.re, a.re), im: vbslq_f64(m, b.im, a.im) }
    }
}
