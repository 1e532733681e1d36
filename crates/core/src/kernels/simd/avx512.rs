//! AVX-512F backend: the block kernel at 8 complex lanes.
//!
//! Only the block kernel (`fused::block_range`) runs at this width. Its
//! dense rows are issue-bound — `2^k` broadcast-FMA chains per group — so
//! twice the lanes halve the arithmetic a step costs, where every per-gate
//! primitive and reduction streams memory and gains nothing from wider
//! registers. The table is therefore the AVX2 table with `block_range`
//! swapped, and `CVec8` implements only `Lanes`, not the run
//! arithmetic: `width` stays 4, the per-gate walkers' vector window and
//! the layout of their exchange steps below it.
//!
//! Every lane runs AVX2's exact FMA sequence, so a group's result bits
//! equal the 4-lane kernel's. The module is only reachable through
//! [`super::native`] / [`super::available`], which check
//! `is_x86_feature_detected!` first.

use std::arch::x86_64::*;

use crate::complex::C64;
use crate::kernels::fused::{self, Block};

use super::lanes::Lanes;
use super::{avx2, KernelBackend};

pub(super) static BACKEND: KernelBackend =
    KernelBackend { name: "avx512", block_range, ..avx2::BACKEND };

/// Eight complex numbers as separate real/imaginary planes.
#[derive(Clone, Copy)]
#[repr(C)]
struct CVec8 {
    re: __m512d,
    im: __m512d,
}

// SAFETY: `CVec8` is `#[repr(C)]`: eight real lanes, then eight imaginary.
//
// As on AVX2, loads deinterleave with in-lane unpacks only, which leaves
// amplitudes 0, 4, 1, 5, 2, 6, 3, 7 in lanes 0..8: memory bit 2 of the
// amplitude index is lane bit 0, memory bit 0 is lane bit 1 (adjacent
// 128-bit blocks) and memory bit 1 is lane bit 2 (the 256-bit halves).
unsafe impl Lanes for CVec8 {
    const W: usize = 8;
    type Acc = [__m512d; 4];

    #[inline(always)]
    unsafe fn zero() -> CVec8 {
        CVec8 { re: _mm512_setzero_pd(), im: _mm512_setzero_pd() }
    }

    #[inline(always)]
    unsafe fn load(p: *const C64) -> CVec8 {
        let a = _mm512_loadu_pd(p as *const f64); // amplitudes 0..4
        let b = _mm512_loadu_pd((p as *const f64).add(8)); // amplitudes 4..8
        CVec8 { re: _mm512_unpacklo_pd(a, b), im: _mm512_unpackhi_pd(a, b) }
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut C64) {
        _mm512_storeu_pd(p as *mut f64, _mm512_unpacklo_pd(self.re, self.im));
        _mm512_storeu_pd((p as *mut f64).add(8), _mm512_unpackhi_pd(self.re, self.im));
    }

    /// A vector spans two 64-byte lines.
    #[inline(always)]
    unsafe fn prefetch(p: *const C64) {
        _mm_prefetch(p as *const i8, _MM_HINT_T0);
        _mm_prefetch((p as *const i8).wrapping_add(64), _MM_HINT_T0);
    }

    /// Memory bit 2 (lane bit 0) trades places through `unpack`, memory
    /// bit 1 (lane bit 2, the 256-bit halves) through `shuffle_f64x2`,
    /// memory bit 0 (lane bit 1, alternate 128-bit blocks) through a
    /// two-source permute.
    #[inline(always)]
    unsafe fn exchange(t: u32, a: CVec8, b: CVec8) -> (CVec8, CVec8) {
        match t {
            2 => (
                CVec8 { re: _mm512_unpacklo_pd(a.re, b.re), im: _mm512_unpacklo_pd(a.im, b.im) },
                CVec8 { re: _mm512_unpackhi_pd(a.re, b.re), im: _mm512_unpackhi_pd(a.im, b.im) },
            ),
            1 => (
                CVec8 {
                    re: _mm512_shuffle_f64x2(a.re, b.re, 0x44),
                    im: _mm512_shuffle_f64x2(a.im, b.im, 0x44),
                },
                CVec8 {
                    re: _mm512_shuffle_f64x2(a.re, b.re, 0xEE),
                    im: _mm512_shuffle_f64x2(a.im, b.im, 0xEE),
                },
            ),
            _ => {
                // Indices 0..8 pick from `a`, 8..16 from `b`.
                let lo = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
                let hi = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
                (
                    CVec8 {
                        re: _mm512_permutex2var_pd(a.re, lo, b.re),
                        im: _mm512_permutex2var_pd(a.im, lo, b.im),
                    },
                    CVec8 {
                        re: _mm512_permutex2var_pd(a.re, hi, b.re),
                        im: _mm512_permutex2var_pd(a.im, hi, b.im),
                    },
                )
            }
        }
    }

    #[inline(always)]
    unsafe fn acc_zero() -> [__m512d; 4] {
        [_mm512_setzero_pd(); 4]
    }

    #[inline(always)]
    unsafe fn mul_acc(acc: [__m512d; 4], w: C64, v: CVec8) -> [__m512d; 4] {
        let (wr, wi) = (_mm512_set1_pd(w.re), _mm512_set1_pd(w.im));
        [
            _mm512_fmadd_pd(wr, v.re, acc[0]),
            _mm512_fmadd_pd(wi, v.im, acc[1]),
            _mm512_fmadd_pd(wr, v.im, acc[2]),
            _mm512_fmadd_pd(wi, v.re, acc[3]),
        ]
    }

    #[inline(always)]
    unsafe fn fold(a: [__m512d; 4], b: [__m512d; 4]) -> CVec8 {
        CVec8 {
            re: _mm512_sub_pd(_mm512_add_pd(a[0], b[0]), _mm512_add_pd(a[1], b[1])),
            im: _mm512_add_pd(_mm512_add_pd(a[2], b[2]), _mm512_add_pd(a[3], b[3])),
        }
    }
}

/// The block kernel eight groups per step.
///
/// # Safety
/// As [`fused::block_range`].
unsafe fn block_range(amps: *mut C64, g0: usize, g1: usize, blk: &Block) {
    // This backend is only installed after feature detection.
    block_range_impl(amps, g0, g1, blk)
}

#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn block_range_impl(amps: *mut C64, g0: usize, g1: usize, blk: &Block) {
    fused::block_range::<CVec8>(amps, g0, g1, blk)
}
