//! Test-only backends: `W` complex lanes held in plain arrays, at
//! `W = 2, 4, 8`.
//!
//! Every lane runs [`C64`]'s own arithmetic, as the portable backend's
//! one lane does, and [`Lanes::exchange`] is the textbook table
//! transpose. So wherever a sweep puts an amplitude — in which lane, in
//! which step, on which side of the vector window — it must come out
//! with the bits the portable backend gives it: a pure check of the
//! walkers' and exchange steps' index arithmetic, runnable under Miri.

use crate::complex::C64;

use super::lanes::{kernel_backend, Lanes, RunLanes};
use super::KernelBackend;

kernel_backend!(BACKEND_2 = "array-2", ArrayLanes<2>);
kernel_backend!(BACKEND_4 = "array-4", ArrayLanes<4>);
kernel_backend!(BACKEND_8 = "array-8", ArrayLanes<8>);

/// The three array backends.
pub(crate) fn backends() -> [&'static KernelBackend; 3] {
    [&BACKEND_2, &BACKEND_4, &BACKEND_8]
}

/// `W` complex numbers: lane `l` is amplitude `l` of a load.
#[derive(Clone, Copy)]
#[repr(C)]
pub(super) struct ArrayLanes<const W: usize> {
    re: [f64; W],
    im: [f64; W],
}

impl<const W: usize> ArrayLanes<W> {
    fn from_fn(f: impl Fn(usize) -> C64) -> Self {
        let mut v = ArrayLanes { re: [0.0; W], im: [0.0; W] };
        for l in 0..W {
            let c = f(l);
            (v.re[l], v.im[l]) = (c.re, c.im);
        }
        v
    }

    fn at(&self, l: usize) -> C64 {
        C64::new(self.re[l], self.im[l])
    }
}

// SAFETY: `#[repr(C)]`: `W` real lanes, then `W` imaginary lanes.
unsafe impl<const W: usize> Lanes for ArrayLanes<W> {
    const W: usize = W;
    type Acc = [[f64; W]; 4];

    unsafe fn zero() -> Self {
        Self::from_fn(|_| C64::default())
    }

    unsafe fn load(p: *const C64) -> Self {
        Self::from_fn(|l| *p.add(l))
    }

    unsafe fn store(self, p: *mut C64) {
        for l in 0..W {
            *p.add(l) = self.at(l);
        }
    }

    unsafe fn exchange(t: u32, a: Self, b: Self) -> (Self, Self) {
        let bit = 1 << t;
        let pick = |w: usize, l: usize| {
            let src = if l & bit == 0 { &a } else { &b };
            src.at((l & !bit) | (w << t))
        };
        (Self::from_fn(|l| pick(0, l)), Self::from_fn(|l| pick(1, l)))
    }

    unsafe fn acc_zero() -> Self::Acc {
        [[0.0; W]; 4]
    }

    unsafe fn mul_acc(acc: Self::Acc, w: C64, v: Self) -> Self::Acc {
        let sum = |j: usize, s: f64, x: [f64; W]| std::array::from_fn(|l| acc[j][l] + s * x[l]);
        [sum(0, w.re, v.re), sum(1, w.im, v.im), sum(2, w.re, v.im), sum(3, w.im, v.re)]
    }

    unsafe fn fold(a: Self::Acc, b: Self::Acc) -> Self {
        Self::from_fn(|l| {
            C64::new(
                (a[0][l] + b[0][l]) - (a[1][l] + b[1][l]),
                (a[2][l] + b[2][l]) + (a[3][l] + b[3][l]),
            )
        })
    }
}

impl<const W: usize> RunLanes for ArrayLanes<W> {
    unsafe fn splat(c: C64) -> Self {
        Self::from_fn(|_| c)
    }

    unsafe fn fma(acc: Self, w: Self, v: Self) -> Self {
        Self::from_fn(|l| acc.at(l).fma(w.at(l), v.at(l)))
    }

    unsafe fn mul(a: Self, b: Self) -> Self {
        Self::from_fn(|l| a.at(l) * b.at(l))
    }

    unsafe fn conj(self) -> Self {
        Self::from_fn(|l| self.at(l).conj())
    }

    unsafe fn add(a: Self, b: Self) -> Self {
        Self::from_fn(|l| a.at(l) + b.at(l))
    }

    unsafe fn madd(acc: Self, a: Self, b: Self) -> Self {
        Self::from_fn(|l| C64::new(acc.re[l] + a.re[l] * b.re[l], acc.im[l] + a.im[l] * b.im[l]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_transposes_a_lane_bit_with_the_vector_bit_and_undoes_itself() {
        let a = ArrayLanes::<4>::from_fn(|l| C64::real(l as f64));
        let b = ArrayLanes::<4>::from_fn(|l| C64::real((4 + l) as f64));
        let lanes = |v: &ArrayLanes<4>| v.re.map(|x| x as usize);
        for (t, lo, hi) in [(0, [0, 4, 2, 6], [1, 5, 3, 7]), (1, [0, 1, 4, 5], [2, 3, 6, 7])] {
            // SAFETY: plain Rust, no target features.
            let (x, y) = unsafe { ArrayLanes::exchange(t, a, b) };
            assert_eq!((lanes(&x), lanes(&y)), (lo, hi), "t={t}");
            let (x, y) = unsafe { ArrayLanes::exchange(t, x, y) };
            assert_eq!((lanes(&x), lanes(&y)), ([0, 1, 2, 3], [4, 5, 6, 7]), "t={t}");
        }
    }
}
