//! NEON backend: 2 complex lanes per step.
//!
//! The structure mirrors the AVX2 backend at half the width, but the
//! deinterleave is free: `vld2q_f64`/`vst2q_f64` split interleaved
//! complexes into re/im planes in one instruction — the ASIMD analogue
//! of SVE's `ld2d`/`st2d` that the paper's kernels are built on. NEON is
//! baseline on aarch64-linux, so no runtime detection is needed.

use std::arch::aarch64::*;

use crate::complex::C64;
use crate::gates::matrices::{Mat2, Mat4};
use crate::kernels::fused::{self, Block, Lanes};

use super::KernelBackend;

pub(super) static BACKEND: KernelBackend = KernelBackend {
    name: "neon",
    width: W,
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

/// Complex lanes per vector step (2 × f64 per plane).
const W: usize = 2;

/// Two complex numbers as separate real/imaginary planes.
#[derive(Clone, Copy)]
#[repr(C)]
struct CVec {
    re: float64x2_t,
    im: float64x2_t,
}

#[inline(always)]
unsafe fn zero() -> CVec {
    CVec { re: vdupq_n_f64(0.0), im: vdupq_n_f64(0.0) }
}

#[inline(always)]
unsafe fn splat(c: C64) -> CVec {
    CVec { re: vdupq_n_f64(c.re), im: vdupq_n_f64(c.im) }
}

#[inline(always)]
unsafe fn load(p: *const C64) -> CVec {
    let v = vld2q_f64(p as *const f64);
    CVec { re: v.0, im: v.1 }
}

#[inline(always)]
unsafe fn store(v: CVec, p: *mut C64) {
    vst2q_f64(p as *mut f64, float64x2x2_t(v.re, v.im));
}

/// `acc + w·v` with the exact FMA ordering of [`C64::fma`].
#[inline(always)]
unsafe fn fma(acc: CVec, w: CVec, v: CVec) -> CVec {
    CVec {
        re: vfmsq_f64(vfmaq_f64(acc.re, w.re, v.re), w.im, v.im),
        im: vfmaq_f64(vfmaq_f64(acc.im, w.re, v.im), w.im, v.re),
    }
}

/// `w·v` with plain mul/sub (matches the scalar `Mul` impl bit-for-bit).
#[inline(always)]
unsafe fn mul(w: CVec, v: CVec) -> CVec {
    CVec {
        re: vsubq_f64(vmulq_f64(w.re, v.re), vmulq_f64(w.im, v.im)),
        im: vaddq_f64(vmulq_f64(w.re, v.im), vmulq_f64(w.im, v.re)),
    }
}

/// Horizontal sum of both planes into one complex.
#[inline(always)]
unsafe fn hsum(v: CVec) -> C64 {
    C64::new(vaddvq_f64(v.re), vaddvq_f64(v.im))
}

/// `Σ |a|²`: norms ignore the re/im interleave, so square-accumulate the
/// raw f64 lanes with two independent accumulators (the manual unroll is
/// the vectorization — FP sums cannot be reassociated by the compiler).
fn sum_norms_run(run: &[C64]) -> f64 {
    let n = run.len();
    let p = run.as_ptr() as *const f64;
    // SAFETY: NEON is baseline on aarch64; pointers stay in bounds.
    unsafe {
        let mut acc0 = vdupq_n_f64(0.0);
        let mut acc1 = vdupq_n_f64(0.0);
        let mut i = 0;
        while i + W <= n {
            let a = vld1q_f64(p.add(2 * i));
            let b = vld1q_f64(p.add(2 * i + 2));
            acc0 = vfmaq_f64(acc0, a, a);
            acc1 = vfmaq_f64(acc1, b, b);
            i += W;
        }
        let mut total = vaddvq_f64(vaddq_f64(acc0, acc1));
        while i < n {
            total += run[i].norm_sqr();
            i += 1;
        }
        total
    }
}

fn norms_into_run(run: &[C64], out: &mut [f64]) {
    debug_assert_eq!(run.len(), out.len());
    let n = run.len();
    let p = run.as_ptr();
    let po = out.as_mut_ptr();
    // SAFETY: as in `sum_norms_run`.
    unsafe {
        let mut i = 0;
        while i + W <= n {
            let v = load(p.add(i));
            vst1q_f64(po.add(i), vfmaq_f64(vmulq_f64(v.re, v.re), v.im, v.im));
            i += W;
        }
        while i < n {
            *po.add(i) = run[i].norm_sqr();
            i += 1;
        }
    }
}

fn sum_f64_run(run: &[f64]) -> f64 {
    let n = run.len();
    let p = run.as_ptr();
    // SAFETY: as in `sum_norms_run`.
    unsafe {
        let mut acc0 = vdupq_n_f64(0.0);
        let mut acc1 = vdupq_n_f64(0.0);
        let mut i = 0;
        while i + 4 <= n {
            acc0 = vaddq_f64(acc0, vld1q_f64(p.add(i)));
            acc1 = vaddq_f64(acc1, vld1q_f64(p.add(i + 2)));
            i += 4;
        }
        let mut total = vaddvq_f64(vaddq_f64(acc0, acc1));
        while i < n {
            total += *p.add(i);
            i += 1;
        }
        total
    }
}

/// `Σ conj(u)·v` on deinterleaved planes:
/// re += u.re·v.re + u.im·v.im, im += u.re·v.im − u.im·v.re.
fn dot_conj_run(u: &[C64], v: &[C64]) -> C64 {
    debug_assert_eq!(u.len(), v.len());
    let n = u.len();
    let pu = u.as_ptr();
    let pv = v.as_ptr();
    // SAFETY: as in `sum_norms_run`.
    unsafe {
        let mut acc = zero();
        let mut i = 0;
        while i + W <= n {
            let a = load(pu.add(i));
            let b = load(pv.add(i));
            acc.re = vfmaq_f64(vfmaq_f64(acc.re, a.re, b.re), a.im, b.im);
            acc.im = vfmsq_f64(vfmaq_f64(acc.im, a.re, b.im), a.im, b.re);
            i += W;
        }
        let mut total = hsum(acc);
        while i < n {
            total = total.fma(u[i].conj(), v[i]);
            i += 1;
        }
        total
    }
}

fn mul_conj_into_run(u: &[C64], v: &[C64], out: &mut [C64]) {
    debug_assert_eq!(u.len(), v.len());
    debug_assert_eq!(u.len(), out.len());
    let n = u.len();
    let pu = u.as_ptr();
    let pv = v.as_ptr();
    let po = out.as_mut_ptr();
    // SAFETY: as in `sum_norms_run`.
    unsafe {
        let mut i = 0;
        while i + W <= n {
            let a = load(pu.add(i));
            let b = load(pv.add(i));
            let prod = CVec {
                re: vfmaq_f64(vmulq_f64(a.re, b.re), a.im, b.im),
                im: vfmsq_f64(vmulq_f64(a.re, b.im), a.im, b.re),
            };
            store(prod, po.add(i));
            i += W;
        }
        while i < n {
            *po.add(i) = u[i].conj() * v[i];
            i += 1;
        }
    }
}

fn sum_c64_run(run: &[C64]) -> C64 {
    let n = run.len();
    let p = run.as_ptr() as *const f64;
    // Complex sums are lane-order independent per component: accumulate
    // the raw interleave and fold [re im] at the end.
    // SAFETY: as in `sum_norms_run`.
    unsafe {
        let mut acc0 = vdupq_n_f64(0.0);
        let mut acc1 = vdupq_n_f64(0.0);
        let mut i = 0;
        while i + W <= n {
            acc0 = vaddq_f64(acc0, vld1q_f64(p.add(2 * i)));
            acc1 = vaddq_f64(acc1, vld1q_f64(p.add(2 * i + 2)));
            i += W;
        }
        let acc = vaddq_f64(acc0, acc1);
        let mut total = C64::new(vgetq_lane_f64(acc, 0), vgetq_lane_f64(acc, 1));
        while i < n {
            total += run[i];
            i += 1;
        }
        total
    }
}

fn pairs_1q(a0: &mut [C64], a1: &mut [C64], m: &Mat2) {
    debug_assert_eq!(a0.len(), a1.len());
    let n = a0.len();
    let p0 = a0.as_mut_ptr();
    let p1 = a1.as_mut_ptr();
    // SAFETY: NEON is baseline on aarch64; pointers stay in bounds.
    unsafe {
        let (vm00, vm01) = (splat(m.m[0][0]), splat(m.m[0][1]));
        let (vm10, vm11) = (splat(m.m[1][0]), splat(m.m[1][1]));
        let mut i = 0;
        while i + W <= n {
            let x0 = load(p0.add(i));
            let x1 = load(p1.add(i));
            store(fma(fma(zero(), vm00, x0), vm01, x1), p0.add(i));
            store(fma(fma(zero(), vm10, x0), vm11, x1), p1.add(i));
            i += W;
        }
        while i < n {
            let v0 = *p0.add(i);
            let v1 = *p1.add(i);
            *p0.add(i) = C64::default().fma(m.m[0][0], v0).fma(m.m[0][1], v1);
            *p1.add(i) = C64::default().fma(m.m[1][0], v0).fma(m.m[1][1], v1);
            i += 1;
        }
    }
}

fn scale_run(run: &mut [C64], d: C64) {
    let n = run.len();
    let p = run.as_mut_ptr();
    // SAFETY: as in `pairs_1q`.
    unsafe {
        let vd = splat(d);
        let mut i = 0;
        while i + W <= n {
            // amp·d, not d·amp: products match the scalar `*=` exactly.
            store(mul(load(p.add(i)), vd), p.add(i));
            i += W;
        }
        while i < n {
            *p.add(i) *= d;
            i += 1;
        }
    }
}

fn swap_runs(a: &mut [C64], b: &mut [C64]) {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let pa = a.as_mut_ptr() as *mut f64;
    let pb = b.as_mut_ptr() as *mut f64;
    // SAFETY: as in `pairs_1q`; the slices are disjoint.
    unsafe {
        let mut i = 0;
        while i + 1 <= n {
            let va = vld1q_f64(pa.add(2 * i));
            let vb = vld1q_f64(pb.add(2 * i));
            vst1q_f64(pa.add(2 * i), vb);
            vst1q_f64(pb.add(2 * i), va);
            i += 1;
        }
    }
}

fn quads_2q(a0: &mut [C64], a1: &mut [C64], a2: &mut [C64], a3: &mut [C64], m: &Mat4) {
    let n = a0.len();
    let ps = [a0.as_mut_ptr(), a1.as_mut_ptr(), a2.as_mut_ptr(), a3.as_mut_ptr()];
    // SAFETY: as in `pairs_1q`; the four runs are disjoint.
    unsafe {
        let mut vm = [[zero(); 4]; 4];
        for (r, row) in vm.iter_mut().enumerate() {
            for (c, e) in row.iter_mut().enumerate() {
                *e = splat(m.m[r][c]);
            }
        }
        let mut i = 0;
        while i + W <= n {
            let v =
                [load(ps[0].add(i)), load(ps[1].add(i)), load(ps[2].add(i)), load(ps[3].add(i))];
            for (row, vrow) in vm.iter().enumerate() {
                let mut acc = zero();
                for (col, &vc) in v.iter().enumerate() {
                    acc = fma(acc, vrow[col], vc);
                }
                store(acc, ps[row].add(i));
            }
            i += W;
        }
        while i < n {
            let v = [*ps[0].add(i), *ps[1].add(i), *ps[2].add(i), *ps[3].add(i)];
            let out = m.apply(v);
            for (row, &o) in out.iter().enumerate() {
                *ps[row].add(i) = o;
            }
            i += 1;
        }
    }
}

// SAFETY: `CVec` is `#[repr(C)]`: two real lanes, then two imaginary.
unsafe impl Lanes for CVec {
    const W: usize = W;
    type Acc = [float64x2_t; 4];

    #[inline(always)]
    unsafe fn zero() -> CVec {
        zero()
    }

    #[inline(always)]
    unsafe fn load(p: *const C64) -> CVec {
        load(p)
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut C64) {
        store(self, p)
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

/// The block kernel two groups per step.
///
/// # Safety
/// As [`fused::block_range`].
unsafe fn block_range(amps: *mut C64, g0: usize, g1: usize, blk: &Block) {
    fused::block_range::<CVec>(amps, g0, g1, blk)
}
