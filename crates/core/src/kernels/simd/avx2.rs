//! AVX2+FMA backend: 4 complex lanes per vector.
//!
//! The vector type holds separate re/im 256-bit planes, deinterleaved
//! on load with two in-lane unpacks (the shuffle analogue of SVE's
//! `ld2`/`st2` in `kernels/sve.rs`). Its complex `fma` is `fmadd` then
//! `fnmadd` on the real plane, the ordering of [`C64::fma`], so the
//! per-gate sweeps agree with the scalar loops within one ulp per term
//! (exactly, on builds where [`C64::fma`] itself lowers to hardware
//! FMA).
//!
//! Every primitive is the generic one of `lanes`, instantiated
//! under `#[target_feature(enable = "avx2,fma")]`; the table is only
//! listed by [`super::available`] after `is_x86_feature_detected!`.

use std::arch::x86_64::*;

use crate::complex::C64;

use super::lanes::{kernel_backend, Lanes, RunLanes};

kernel_backend!("avx2", CVec, #[target_feature(enable = "avx2,fma")]);

/// Four complex numbers as separate real/imaginary planes.
#[derive(Clone, Copy)]
#[repr(C)]
struct CVec {
    re: __m256d,
    im: __m256d,
}

// SAFETY: `CVec` is `#[repr(C)]`: four real lanes, then four imaginary.
//
// No kernel looks at which lane holds which amplitude, only that load,
// exchange and store agree. So loads deinterleave with two in-lane
// unpacks instead of a full transpose, which leaves amplitudes 0, 2, 1,
// 3 in lanes 0..4: memory bit 0 of the amplitude index is lane bit 1 and
// memory bit 1 is lane bit 0.
unsafe impl Lanes for CVec {
    const W: usize = 4;
    type Acc = [__m256d; 4];

    #[inline(always)]
    unsafe fn zero() -> CVec {
        CVec { re: _mm256_setzero_pd(), im: _mm256_setzero_pd() }
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

impl RunLanes for CVec {
    #[inline(always)]
    unsafe fn splat(c: C64) -> CVec {
        CVec { re: _mm256_set1_pd(c.re), im: _mm256_set1_pd(c.im) }
    }

    #[inline(always)]
    unsafe fn fma(acc: CVec, w: CVec, v: CVec) -> CVec {
        CVec {
            re: _mm256_fnmadd_pd(w.im, v.im, _mm256_fmadd_pd(w.re, v.re, acc.re)),
            im: _mm256_fmadd_pd(w.im, v.re, _mm256_fmadd_pd(w.re, v.im, acc.im)),
        }
    }

    #[inline(always)]
    unsafe fn mul(a: CVec, b: CVec) -> CVec {
        CVec {
            re: _mm256_sub_pd(_mm256_mul_pd(a.re, b.re), _mm256_mul_pd(a.im, b.im)),
            im: _mm256_add_pd(_mm256_mul_pd(a.re, b.im), _mm256_mul_pd(a.im, b.re)),
        }
    }

    #[inline(always)]
    unsafe fn conj(self) -> CVec {
        CVec { re: self.re, im: _mm256_xor_pd(self.im, _mm256_set1_pd(-0.0)) }
    }

    #[inline(always)]
    unsafe fn add(a: CVec, b: CVec) -> CVec {
        CVec { re: _mm256_add_pd(a.re, b.re), im: _mm256_add_pd(a.im, b.im) }
    }

    #[inline(always)]
    unsafe fn madd(acc: CVec, a: CVec, b: CVec) -> CVec {
        CVec { re: _mm256_fmadd_pd(a.re, b.re, acc.re), im: _mm256_fmadd_pd(a.im, b.im, acc.im) }
    }

    /// `blendv` reads each lane's sign bit.
    #[inline(always)]
    unsafe fn select(m: CVec, a: CVec, b: CVec) -> CVec {
        CVec { re: _mm256_blendv_pd(a.re, b.re, m.re), im: _mm256_blendv_pd(a.im, b.im, m.re) }
    }
}
