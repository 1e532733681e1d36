//! AVX2+FMA backend: 4 complex lanes per step.
//!
//! Complex amplitudes are deinterleaved into separate re/im 256-bit
//! planes (the shuffle analogue of SVE's `ld2`/`st2` in `kernels/sve.rs`),
//! matrix entries are splatted once per run, and the complex multiply
//! uses the same fused ordering as [`C64::fma`] — `fmadd` then `fnmadd`
//! on the real plane. The scalar sweeps agree within one ulp per term
//! (exactly, on builds where [`C64::fma`] itself lowers to hardware
//! FMA; baseline x86-64 builds use plain mul/add there instead).
//!
//! Every public entry point is a safe wrapper that jumps into a
//! `#[target_feature(enable = "avx2,fma")]` body; the module is only
//! reachable through [`super::native`], which checks
//! `is_x86_feature_detected!` first.

use std::arch::x86_64::*;

use crate::complex::C64;
use crate::gates::matrices::{Mat2, Mat4};
use crate::kernels::fused::{self, Block, Lanes};

use super::KernelBackend;

pub(super) static BACKEND: KernelBackend = KernelBackend {
    name: "avx2",
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

/// Complex lanes per vector step (4 × f64 per plane).
const W: usize = 4;

/// Four complex numbers as separate real/imaginary planes.
#[derive(Clone, Copy)]
#[repr(C)]
struct CVec {
    re: __m256d,
    im: __m256d,
}

#[inline(always)]
unsafe fn zero() -> CVec {
    CVec { re: _mm256_setzero_pd(), im: _mm256_setzero_pd() }
}

#[inline(always)]
unsafe fn splat(c: C64) -> CVec {
    CVec { re: _mm256_set1_pd(c.re), im: _mm256_set1_pd(c.im) }
}

/// Load 4 interleaved complexes and deinterleave into planes.
#[inline(always)]
unsafe fn load(p: *const C64) -> CVec {
    let a = _mm256_loadu_pd(p as *const f64); // re0 im0 re1 im1
    let b = _mm256_loadu_pd((p as *const f64).add(4)); // re2 im2 re3 im3
    let t0 = _mm256_permute2f128_pd(a, b, 0x20); // re0 im0 re2 im2
    let t1 = _mm256_permute2f128_pd(a, b, 0x31); // re1 im1 re3 im3
    CVec { re: _mm256_unpacklo_pd(t0, t1), im: _mm256_unpackhi_pd(t0, t1) }
}

/// Re-interleave planes and store 4 complexes.
#[inline(always)]
unsafe fn store(v: CVec, p: *mut C64) {
    let lo = _mm256_unpacklo_pd(v.re, v.im); // re0 im0 re2 im2
    let hi = _mm256_unpackhi_pd(v.re, v.im); // re1 im1 re3 im3
    _mm256_storeu_pd(p as *mut f64, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd((p as *mut f64).add(4), _mm256_permute2f128_pd(lo, hi, 0x31));
}

/// `acc + w·v` with the exact FMA ordering of [`C64::fma`].
#[inline(always)]
unsafe fn fma(acc: CVec, w: CVec, v: CVec) -> CVec {
    CVec {
        re: _mm256_fnmadd_pd(w.im, v.im, _mm256_fmadd_pd(w.re, v.re, acc.re)),
        im: _mm256_fmadd_pd(w.im, v.re, _mm256_fmadd_pd(w.re, v.im, acc.im)),
    }
}

/// One lane of [`fma`], for the tail of a run: fused exactly as the
/// vector body is, so an amplitude gets the same bits wherever a chunk
/// boundary cuts its run ([`C64::fma`] is unfused on baseline x86-64).
#[inline(always)]
fn fma_lane(acc: C64, w: C64, v: C64) -> C64 {
    C64 {
        re: (-w.im).mul_add(v.im, w.re.mul_add(v.re, acc.re)),
        im: w.im.mul_add(v.re, w.re.mul_add(v.im, acc.im)),
    }
}

/// `w·v` with plain mul/sub (matches the scalar `Mul` impl bit-for-bit).
#[inline(always)]
unsafe fn mul(w: CVec, v: CVec) -> CVec {
    CVec {
        re: _mm256_sub_pd(_mm256_mul_pd(w.re, v.re), _mm256_mul_pd(w.im, v.im)),
        im: _mm256_add_pd(_mm256_mul_pd(w.re, v.im), _mm256_mul_pd(w.im, v.re)),
    }
}

/// Horizontal sum of both planes into one complex.
#[inline(always)]
unsafe fn hsum(v: CVec) -> C64 {
    #[inline(always)]
    unsafe fn hadd4(x: __m256d) -> f64 {
        let s = _mm_add_pd(_mm256_castpd256_pd128(x), _mm256_extractf128_pd(x, 1));
        _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s))
    }
    C64::new(hadd4(v.re), hadd4(v.im))
}

fn sum_norms_run(run: &[C64]) -> f64 {
    // SAFETY: this backend is only installed after feature detection.
    unsafe { sum_norms_impl(run) }
}

/// `Σ |a|²`: norms ignore the re/im interleave, so square-accumulate the
/// raw f64 lanes with two independent accumulators (FP sums cannot be
/// reassociated by the compiler; the manual unroll is the vectorization).
#[target_feature(enable = "avx2,fma")]
unsafe fn sum_norms_impl(run: &[C64]) -> f64 {
    let n = run.len();
    let p = run.as_ptr() as *const f64;
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + W <= n {
        let a = _mm256_loadu_pd(p.add(2 * i));
        let b = _mm256_loadu_pd(p.add(2 * i + 4));
        acc0 = _mm256_fmadd_pd(a, a, acc0);
        acc1 = _mm256_fmadd_pd(b, b, acc1);
        i += W;
    }
    let acc = _mm256_add_pd(acc0, acc1);
    let s = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    let mut total = _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
    while i < n {
        total += run[i].norm_sqr();
        i += 1;
    }
    total
}

fn norms_into_run(run: &[C64], out: &mut [f64]) {
    // SAFETY: this backend is only installed after feature detection.
    unsafe { norms_into_impl(run, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn norms_into_impl(run: &[C64], out: &mut [f64]) {
    debug_assert_eq!(run.len(), out.len());
    let n = run.len();
    let p = run.as_ptr() as *const f64;
    let po = out.as_mut_ptr();
    let mut i = 0;
    while i + W <= n {
        let a = _mm256_loadu_pd(p.add(2 * i)); // re0 im0 re1 im1
        let b = _mm256_loadu_pd(p.add(2 * i + 4)); // re2 im2 re3 im3
                                                   // hadd(a², b²) = [n0 n2 n1 n3]; permute back to [n0 n1 n2 n3].
        let h = _mm256_hadd_pd(_mm256_mul_pd(a, a), _mm256_mul_pd(b, b));
        _mm256_storeu_pd(po.add(i), _mm256_permute4x64_pd(h, 0b11011000));
        i += W;
    }
    while i < n {
        *po.add(i) = run[i].norm_sqr();
        i += 1;
    }
}

fn sum_f64_run(run: &[f64]) -> f64 {
    // SAFETY: this backend is only installed after feature detection.
    unsafe { sum_f64_impl(run) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sum_f64_impl(run: &[f64]) -> f64 {
    let n = run.len();
    let p = run.as_ptr();
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(p.add(i)));
        acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(p.add(i + 4)));
        i += 8;
    }
    let acc = _mm256_add_pd(acc0, acc1);
    let s = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    let mut total = _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
    while i < n {
        total += *p.add(i);
        i += 1;
    }
    total
}

fn dot_conj_run(u: &[C64], v: &[C64]) -> C64 {
    // SAFETY: this backend is only installed after feature detection.
    unsafe { dot_conj_impl(u, v) }
}

/// `Σ conj(u)·v` on deinterleaved planes:
/// re += u.re·v.re + u.im·v.im, im += u.re·v.im − u.im·v.re.
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_conj_impl(u: &[C64], v: &[C64]) -> C64 {
    debug_assert_eq!(u.len(), v.len());
    let n = u.len();
    let pu = u.as_ptr();
    let pv = v.as_ptr();
    let mut acc = zero();
    let mut i = 0;
    while i + W <= n {
        let a = load(pu.add(i));
        let b = load(pv.add(i));
        acc.re = _mm256_fmadd_pd(a.im, b.im, _mm256_fmadd_pd(a.re, b.re, acc.re));
        acc.im = _mm256_fnmadd_pd(a.im, b.re, _mm256_fmadd_pd(a.re, b.im, acc.im));
        i += W;
    }
    let mut total = hsum(acc);
    while i < n {
        total = total.fma(u[i].conj(), v[i]);
        i += 1;
    }
    total
}

fn mul_conj_into_run(u: &[C64], v: &[C64], out: &mut [C64]) {
    // SAFETY: this backend is only installed after feature detection.
    unsafe { mul_conj_into_impl(u, v, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn mul_conj_into_impl(u: &[C64], v: &[C64], out: &mut [C64]) {
    debug_assert_eq!(u.len(), v.len());
    debug_assert_eq!(u.len(), out.len());
    let n = u.len();
    let pu = u.as_ptr();
    let pv = v.as_ptr();
    let po = out.as_mut_ptr();
    let mut i = 0;
    while i + W <= n {
        let a = load(pu.add(i));
        let b = load(pv.add(i));
        let prod = CVec {
            re: _mm256_fmadd_pd(a.im, b.im, _mm256_mul_pd(a.re, b.re)),
            im: _mm256_fnmadd_pd(a.im, b.re, _mm256_mul_pd(a.re, b.im)),
        };
        store(prod, po.add(i));
        i += W;
    }
    while i < n {
        *po.add(i) = u[i].conj() * v[i];
        i += 1;
    }
}

fn sum_c64_run(run: &[C64]) -> C64 {
    // SAFETY: this backend is only installed after feature detection.
    unsafe { sum_c64_impl(run) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sum_c64_impl(run: &[C64]) -> C64 {
    let n = run.len();
    let p = run.as_ptr() as *const f64;
    // Complex sums are lane-order independent per component: accumulate
    // the raw interleave and fold [re im re im] at the end.
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + W <= n {
        acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(p.add(2 * i)));
        acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(p.add(2 * i + 4)));
        i += W;
    }
    let acc = _mm256_add_pd(acc0, acc1);
    let s = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    let mut total = C64::new(_mm_cvtsd_f64(s), _mm_cvtsd_f64(_mm_unpackhi_pd(s, s)));
    while i < n {
        total += run[i];
        i += 1;
    }
    total
}

fn pairs_1q(a0: &mut [C64], a1: &mut [C64], m: &Mat2) {
    // SAFETY: this backend is only installed after feature detection.
    unsafe { pairs_1q_impl(a0, a1, m) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn pairs_1q_impl(a0: &mut [C64], a1: &mut [C64], m: &Mat2) {
    debug_assert_eq!(a0.len(), a1.len());
    let n = a0.len();
    let (vm00, vm01) = (splat(m.m[0][0]), splat(m.m[0][1]));
    let (vm10, vm11) = (splat(m.m[1][0]), splat(m.m[1][1]));
    let p0 = a0.as_mut_ptr();
    let p1 = a1.as_mut_ptr();
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
        *p0.add(i) = fma_lane(fma_lane(C64::default(), m.m[0][0], v0), m.m[0][1], v1);
        *p1.add(i) = fma_lane(fma_lane(C64::default(), m.m[1][0], v0), m.m[1][1], v1);
        i += 1;
    }
}

fn scale_run(run: &mut [C64], d: C64) {
    // SAFETY: this backend is only installed after feature detection.
    unsafe { scale_run_impl(run, d) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn scale_run_impl(run: &mut [C64], d: C64) {
    let n = run.len();
    let p = run.as_mut_ptr();
    let vd = splat(d);
    let mut i = 0;
    while i + W <= n {
        // amp·d, not d·amp: the products match the scalar `*=` exactly.
        store(mul(load(p.add(i)), vd), p.add(i));
        i += W;
    }
    while i < n {
        *p.add(i) *= d;
        i += 1;
    }
}

fn swap_runs(a: &mut [C64], b: &mut [C64]) {
    // SAFETY: this backend is only installed after feature detection.
    unsafe { swap_runs_impl(a, b) }
}

#[target_feature(enable = "avx2")]
unsafe fn swap_runs_impl(a: &mut [C64], b: &mut [C64]) {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let pa = a.as_mut_ptr() as *mut f64;
    let pb = b.as_mut_ptr() as *mut f64;
    let mut i = 0;
    // 2 complexes (4 f64) per register; no deinterleave needed for a move.
    while i + 2 <= n {
        let va = _mm256_loadu_pd(pa.add(2 * i));
        let vb = _mm256_loadu_pd(pb.add(2 * i));
        _mm256_storeu_pd(pa.add(2 * i), vb);
        _mm256_storeu_pd(pb.add(2 * i), va);
        i += 2;
    }
    if i < n {
        std::ptr::swap((pa as *mut C64).add(i), (pb as *mut C64).add(i));
    }
}

fn quads_2q(a0: &mut [C64], a1: &mut [C64], a2: &mut [C64], a3: &mut [C64], m: &Mat4) {
    // SAFETY: this backend is only installed after feature detection.
    unsafe { quads_2q_impl(a0, a1, a2, a3, m) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn quads_2q_impl(a0: &mut [C64], a1: &mut [C64], a2: &mut [C64], a3: &mut [C64], m: &Mat4) {
    let n = a0.len();
    let mut vm = [[zero(); 4]; 4];
    for (r, row) in vm.iter_mut().enumerate() {
        for (c, e) in row.iter_mut().enumerate() {
            *e = splat(m.m[r][c]);
        }
    }
    let ps = [a0.as_mut_ptr(), a1.as_mut_ptr(), a2.as_mut_ptr(), a3.as_mut_ptr()];
    let mut i = 0;
    while i + W <= n {
        let v = [load(ps[0].add(i)), load(ps[1].add(i)), load(ps[2].add(i)), load(ps[3].add(i))];
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
        for (row, mrow) in m.m.iter().enumerate() {
            let acc = mrow.iter().zip(v).fold(C64::default(), |acc, (&w, x)| fma_lane(acc, w, x));
            *ps[row].add(i) = acc;
        }
        i += 1;
    }
}

// SAFETY: `CVec` is `#[repr(C)]`: four real lanes, then four imaginary.
//
// The block kernel never looks at which lane holds which group, only
// that load, exchange and store agree. So its loads deinterleave with
// two in-lane unpacks instead of [`load`]'s four shuffles, which leaves
// amplitudes 0, 2, 1, 3 in lanes 0..4: memory bit 0 of the amplitude
// index is lane bit 1 and memory bit 1 is lane bit 0.
unsafe impl Lanes for CVec {
    const W: usize = W;
    type Acc = [__m256d; 4];

    #[inline(always)]
    unsafe fn zero() -> CVec {
        zero()
    }

    #[inline(always)]
    unsafe fn load(p: *const C64) -> CVec {
        let a = _mm256_loadu_pd(p as *const f64); // re0 im0 re1 im1
        let b = _mm256_loadu_pd((p as *const f64).add(4)); // re2 im2 re3 im3
        CVec { re: _mm256_unpacklo_pd(a, b), im: _mm256_unpackhi_pd(a, b) }
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut C64) {
        _mm256_storeu_pd(p as *mut f64, _mm256_unpacklo_pd(self.re, self.im));
        _mm256_storeu_pd((p as *mut f64).add(4), _mm256_unpackhi_pd(self.re, self.im));
    }

    #[inline(always)]
    unsafe fn prefetch(p: *const C64) {
        _mm_prefetch(p as *const i8, _MM_HINT_T0);
    }

    /// Memory bit 1 (lane bit 0, adjacent lanes) trades places through
    /// `unpack`, memory bit 0 (lane bit 1, the 128-bit halves) through
    /// `permute2f128`.
    #[inline(always)]
    unsafe fn exchange(t: u32, a: CVec, b: CVec) -> (CVec, CVec) {
        if t == 1 {
            (
                CVec { re: _mm256_unpacklo_pd(a.re, b.re), im: _mm256_unpacklo_pd(a.im, b.im) },
                CVec { re: _mm256_unpackhi_pd(a.re, b.re), im: _mm256_unpackhi_pd(a.im, b.im) },
            )
        } else {
            (
                CVec {
                    re: _mm256_permute2f128_pd(a.re, b.re, 0x20),
                    im: _mm256_permute2f128_pd(a.im, b.im, 0x20),
                },
                CVec {
                    re: _mm256_permute2f128_pd(a.re, b.re, 0x31),
                    im: _mm256_permute2f128_pd(a.im, b.im, 0x31),
                },
            )
        }
    }

    #[inline(always)]
    unsafe fn acc_zero() -> [__m256d; 4] {
        [_mm256_setzero_pd(); 4]
    }

    #[inline(always)]
    unsafe fn mul_acc(acc: [__m256d; 4], w: C64, v: CVec) -> [__m256d; 4] {
        let (wr, wi) = (_mm256_set1_pd(w.re), _mm256_set1_pd(w.im));
        [
            _mm256_fmadd_pd(wr, v.re, acc[0]),
            _mm256_fmadd_pd(wi, v.im, acc[1]),
            _mm256_fmadd_pd(wr, v.im, acc[2]),
            _mm256_fmadd_pd(wi, v.re, acc[3]),
        ]
    }

    #[inline(always)]
    unsafe fn fold(a: [__m256d; 4], b: [__m256d; 4]) -> CVec {
        CVec {
            re: _mm256_sub_pd(_mm256_add_pd(a[0], b[0]), _mm256_add_pd(a[1], b[1])),
            im: _mm256_add_pd(_mm256_add_pd(a[2], b[2]), _mm256_add_pd(a[3], b[3])),
        }
    }
}

/// The block kernel four groups per step.
///
/// # Safety
/// As [`fused::block_range`].
unsafe fn block_range(amps: *mut C64, g0: usize, g1: usize, blk: &Block) {
    // This backend is only installed after feature detection.
    block_range_impl(amps, g0, g1, blk)
}

#[target_feature(enable = "avx2,fma")]
unsafe fn block_range_impl(amps: *mut C64, g0: usize, g1: usize, blk: &Block) {
    fused::block_range::<CVec>(amps, g0, g1, blk)
}
