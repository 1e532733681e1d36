//! Double-precision complex numbers.
//!
//! A purpose-built type rather than a dependency: the simulator needs a
//! guaranteed `#[repr(C)]` `(re, im)` layout so the amplitude array can be
//! reinterpreted as interleaved `f64`s for the SVE `ld2/st2` kernels and
//! as raw bytes for the message-passing substrate.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` parts, laid out as `(re, im)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct C64 {
    pub re: f64,
    pub im: f64,
}

/// The imaginary unit.
pub const I: C64 = C64 { re: 0.0, im: 1.0 };
/// Complex zero.
pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
/// Complex one.
pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };

impl C64 {
    /// Construct from parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }

    /// A real number.
    #[inline]
    pub const fn real(re: f64) -> C64 {
        C64 { re, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    #[inline]
    pub fn exp_i(theta: f64) -> C64 {
        C64 { re: theta.cos(), im: theta.sin() }
    }

    /// From polar form `r e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> C64 {
        C64 { re: r * theta.cos(), im: r * theta.sin() }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> C64 {
        C64 { re: self.re, im: -self.im }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle).
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> C64 {
        C64 { re: self.re * s, im: self.im * s }
    }

    /// Fused multiply-add: `self + a * b`, using hardware FMA for both
    /// parts where the target guarantees it (all of aarch64 — matching
    /// the SVE kernel arithmetic exactly — and x86-64 built with
    /// `+fma`). On baseline x86-64 `mul_add` lowers to a libm call,
    /// which measured 20–30× slower than the multiply it fuses, so
    /// there we use plain mul/add instead; rounding then differs by at
    /// most one ulp per term, within every conformance tolerance.
    #[inline]
    pub fn fma(self, a: C64, b: C64) -> C64 {
        #[cfg(all(target_arch = "x86_64", not(target_feature = "fma")))]
        {
            C64 { re: self.re + a.re * b.re - a.im * b.im, im: self.im + a.re * b.im + a.im * b.re }
        }
        #[cfg(not(all(target_arch = "x86_64", not(target_feature = "fma"))))]
        {
            // re: self.re + a.re*b.re - a.im*b.im
            let r1 = a.re.mul_add(b.re, self.re);
            let re = (-a.im).mul_add(b.im, r1);
            // im: self.im + a.re*b.im + a.im*b.re
            let i1 = a.re.mul_add(b.im, self.im);
            let im = a.im.mul_add(b.re, i1);
            C64 { re, im }
        }
    }

    /// Approximate equality within absolute tolerance `eps` on both parts.
    #[inline]
    pub fn approx_eq(self, other: C64, eps: f64) -> bool {
        (self.re - other.re).abs() <= eps && (self.im - other.im).abs() <= eps
    }

    /// Is this (within `eps`) zero?
    #[inline]
    pub fn is_zero(self, eps: f64) -> bool {
        self.norm_sqr() <= eps * eps
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, o: C64) -> C64 {
        C64 { re: self.re + o.re, im: self.im + o.im }
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, o: C64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, o: C64) -> C64 {
        C64 { re: self.re - o.re, im: self.im - o.im }
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, o: C64) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, o: C64) -> C64 {
        C64 { re: self.re * o.re - self.im * o.im, im: self.re * o.im + self.im * o.re }
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, o: C64) {
        *self = *self * o;
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, s: f64) -> C64 {
        self.scale(s)
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    fn div(self, o: C64) -> C64 {
        let d = o.norm_sqr();
        C64 { re: (self.re * o.re + self.im * o.im) / d, im: (self.im * o.re - self.re * o.im) / d }
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64 { re: -self.re, im: -self.im }
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(x: f64) -> C64 {
        C64::real(x)
    }
}

impl std::fmt::Display for C64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

/// View a complex slice as interleaved `re, im, re, im, …` f64s.
///
/// Sound because `C64` is `#[repr(C)]` with exactly two `f64` fields.
#[inline]
pub fn as_f64_slice(amps: &[C64]) -> &[f64] {
    // SAFETY: C64 is repr(C) { f64, f64 } — same size, align, and validity
    // as [f64; 2]; the length doubles.
    unsafe { std::slice::from_raw_parts(amps.as_ptr() as *const f64, amps.len() * 2) }
}

/// Mutable interleaved view; see [`as_f64_slice`].
#[inline]
pub fn as_f64_slice_mut(amps: &mut [C64]) -> &mut [f64] {
    // SAFETY: as above; exclusive borrow carries over.
    unsafe { std::slice::from_raw_parts_mut(amps.as_mut_ptr() as *mut f64, amps.len() * 2) }
}

/// Interleaved `re, im` pairs viewed as amplitudes; the inverse of
/// [`as_f64_slice`]. Panics on an odd length.
#[inline]
pub fn as_c64_slice(elems: &[f64]) -> &[C64] {
    assert!(elems.len().is_multiple_of(2), "odd number of interleaved parts");
    // SAFETY: as above: `f64` alignment is `C64`'s, and pairs fill it.
    unsafe { std::slice::from_raw_parts(elems.as_ptr() as *const C64, elems.len() / 2) }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn interleaved_views_round_trip() {
        let amps = [C64::new(1.0, -2.0), C64::new(-0.0, 3.5)];
        let parts = as_f64_slice(&amps);
        assert_eq!(parts, &[1.0, -2.0, -0.0, 3.5]);
        assert_eq!(as_c64_slice(parts), &amps);
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(C64::new(1.0, 2.0).re, 1.0);
        assert_eq!(I * I, -ONE);
        assert_eq!(ZERO + ONE, ONE);
        assert_eq!(C64::from(2.5), C64::new(2.5, 0.0));
    }

    #[test]
    fn exp_i_is_unit() {
        for k in 0..32 {
            let theta = k as f64 * 0.41;
            let z = C64::exp_i(theta);
            assert!((z.abs() - 1.0).abs() < EPS);
            assert!(
                (z.arg() - theta.rem_euclid(2.0 * std::f64::consts::PI)).abs().min(
                    (z.arg() + 2.0 * std::f64::consts::PI
                        - theta.rem_euclid(2.0 * std::f64::consts::PI))
                    .abs()
                ) < 1e-9
            );
        }
    }

    #[test]
    fn from_polar_roundtrip() {
        let z = C64::from_polar(3.0, 0.7);
        assert!((z.abs() - 3.0).abs() < EPS);
        assert!((z.arg() - 0.7).abs() < EPS);
    }

    #[test]
    fn field_axioms_spotcheck() {
        let a = C64::new(1.5, -2.0);
        let b = C64::new(-0.5, 3.0);
        let c = C64::new(2.0, 0.25);
        assert!(((a + b) + c).approx_eq(a + (b + c), EPS));
        assert!((a * (b + c)).approx_eq(a * b + a * c, EPS));
        assert!((a * b).approx_eq(b * a, EPS));
        assert!((a - a).approx_eq(ZERO, EPS));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = C64::new(3.0, -1.0);
        let b = C64::new(0.5, 2.0);
        assert!(((a * b) / b).approx_eq(a, EPS));
        assert!((a / a).approx_eq(ONE, EPS));
    }

    #[test]
    fn conj_properties() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(-3.0, 0.5);
        assert!((a * a.conj()).approx_eq(C64::real(a.norm_sqr()), EPS));
        assert!((a * b).conj().approx_eq(a.conj() * b.conj(), EPS));
        assert_eq!(a.conj().conj(), a);
    }

    #[test]
    fn fma_matches_mul_add_semantics() {
        let acc = C64::new(0.5, -0.25);
        let a = C64::new(1.0 + 2f64.powi(-30), 2.0);
        let b = C64::new(3.0, -1.0);
        let r = acc.fma(a, b);
        let expected_re = (-a.im).mul_add(b.im, a.re.mul_add(b.re, acc.re));
        let expected_im = a.im.mul_add(b.re, a.re.mul_add(b.im, acc.im));
        assert_eq!(r.re, expected_re);
        assert_eq!(r.im, expected_im);
    }

    #[test]
    fn norm_and_abs() {
        let z = C64::new(3.0, 4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert!(ZERO.is_zero(EPS));
        assert!(!ONE.is_zero(EPS));
    }

    #[test]
    fn interleaved_views() {
        let mut amps = vec![C64::new(1.0, 2.0), C64::new(3.0, 4.0)];
        assert_eq!(as_f64_slice(&amps), &[1.0, 2.0, 3.0, 4.0]);
        as_f64_slice_mut(&mut amps)[3] = 9.0;
        assert_eq!(amps[1].im, 9.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(C64::new(1.0, -0.5).to_string(), "1.000000-0.500000i");
        assert_eq!(C64::new(0.0, 0.25).to_string(), "0.000000+0.250000i");
    }
}
