//! The vector types backends are made of, and every run primitive
//! written once over them.
//!
//! A backend is one vector type: `W` complex numbers held as `W` real
//! parts then `W` imaginary parts. [`Lanes`] is what the block kernel
//! ([`crate::kernels::fused::block_range`]) needs of it; [`RunLanes`] adds
//! the lane arithmetic of the per-gate run primitives and the observable
//! reductions, which are defined here once, generic over that type, and
//! assembled into a [`KernelBackend`](super::KernelBackend) table by
//! `kernel_backend!`.
//!
//! Every primitive has the same shape: whole vectors while they fit,
//! then one ragged step whose lanes are filled and drained through
//! [`Lanes::set_lane`] / [`Lanes::lane`] and go through the *same* lane
//! arithmetic as the body. An amplitude therefore gets the same bits
//! wherever a workshared sweep cuts its run — by construction, not by a
//! scalar tail kept in step with the vector body.
//!
//! The loops call no closure: a closure body is compiled without the
//! caller's `#[target_feature]`s, so a vector method inlined into one
//! degrades to a call per intrinsic.

use std::ops::Range;

use crate::complex::{C64, ONE};
use crate::gates::matrices::{Mat2, Mat4};
use crate::kernels::sweep::{LaneOp, Steps};

pub(super) use crate::kernels::fused::block_range;

/// The vector type [`crate::kernels::fused::block_range`] is generic
/// over: `W` complex numbers held as `W` real parts then `W` imaginary
/// parts.
///
/// # Safety
/// An implementor must be `#[repr(C)]` with exactly that layout —
/// `[f64; W]` real lanes followed by `[f64; W]` imaginary lanes — which
/// [`lane`](Lanes::lane) and [`set_lane`](Lanes::set_lane) rely on.
pub(crate) unsafe trait Lanes: Copy {
    /// Complex lanes per vector: the groups one step covers.
    const W: usize;
    /// One set of four running sums (re·re, im·im, re·im, im·re).
    type Acc: Copy;

    unsafe fn zero() -> Self;
    /// Load `W` consecutive amplitudes.
    unsafe fn load(p: *const C64) -> Self;
    /// Store `W` consecutive amplitudes.
    unsafe fn store(self, p: *mut C64);
    /// Hint that the `W` amplitudes at `p` are about to be loaded. Never
    /// faults, whatever `p` is.
    #[inline(always)]
    unsafe fn prefetch(_p: *const C64) {}
    /// Treat `(a, b)` as one table indexed by (which vector, lane) and
    /// swap the lane-index bit that [`load`](Lanes::load) fills from
    /// address bit `t` with the which-vector bit. Its own inverse. Only
    /// called with `t < log2(W)`.
    unsafe fn exchange(t: u32, a: Self, b: Self) -> (Self, Self);
    unsafe fn acc_zero() -> Self::Acc;
    /// `acc + w·v`, kept as four independent sums.
    unsafe fn mul_acc(acc: Self::Acc, w: C64, v: Self) -> Self::Acc;
    /// Fold two sets of sums into the complex total.
    unsafe fn fold(a: Self::Acc, b: Self::Acc) -> Self;

    /// Lane `l` as a complex number.
    #[inline(always)]
    unsafe fn lane(&self, l: usize) -> C64 {
        let p = self as *const Self as *const f64;
        // SAFETY: the layout contract of the trait; `l < W` by the caller.
        C64::new(*p.add(l), *p.add(Self::W + l))
    }

    /// Overwrite lane `l`.
    #[inline(always)]
    unsafe fn set_lane(&mut self, l: usize, c: C64) {
        let p = self as *mut Self as *mut f64;
        // SAFETY: the layout contract of the trait; `l < W` by the caller.
        *p.add(l) = c.re;
        *p.add(Self::W + l) = c.im;
    }
}

/// Lane-wise complex arithmetic for the run primitives. Each lane must
/// round exactly as the scalar operation named on the method, as it
/// would on one lane alone, so a result never depends on which lane or
/// which step an amplitude fell in.
///
/// # Safety
/// Every method may only run where the host executes the type's
/// instructions.
pub(super) trait RunLanes: Lanes {
    /// `c` in every lane.
    unsafe fn splat(c: C64) -> Self;
    /// `acc + w·v` with [`C64::fma`]'s ordering: `w.re·v.re` then
    /// `−w.im·v.im` into the real part, `w.re·v.im` then `w.im·v.re` into
    /// the imaginary part (fused wherever the backend has FMA).
    unsafe fn fma(acc: Self, w: Self, v: Self) -> Self;
    /// `a·b` in plain multiplies and adds, as the scalar `Mul`.
    unsafe fn mul(a: Self, b: Self) -> Self;
    unsafe fn conj(self) -> Self;
    unsafe fn add(a: Self, b: Self) -> Self;
    /// Plane by plane, `acc + a·b`: `acc.re + a.re·b.re` and
    /// `acc.im + a.im·b.im`.
    unsafe fn madd(acc: Self, a: Self, b: Self) -> Self;

    /// The sum of the lanes, in lane order.
    #[inline(always)]
    unsafe fn hsum(self) -> C64 {
        let mut s = self.lane(0);
        for l in 1..Self::W {
            s += self.lane(l);
        }
        s
    }
}

/// The `r < W` amplitudes at `p` in lanes `0..r`, zeros above.
///
/// The loop runs over every lane, so each lane index is a constant once
/// it unrolls and the vector can stay in registers.
///
/// # Safety
/// `p` must be valid for `r` reads.
#[inline(always)]
unsafe fn load_part<V: Lanes>(p: *const C64, r: usize) -> V {
    let mut v = V::zero();
    for l in 0..V::W {
        if l < r {
            v.set_lane(l, *p.add(l));
        }
    }
    v
}

/// Lanes `0..r` of `v` to the `r < W` amplitudes at `p`.
///
/// # Safety
/// `p` must be valid for `r` writes.
#[inline(always)]
unsafe fn store_part<V: Lanes>(v: V, p: *mut C64, r: usize) {
    for l in 0..V::W {
        if l < r {
            *p.add(l) = v.lane(l);
        }
    }
}

/// `runs ← m·runs`, amplitude by amplitude: each output row accumulated
/// from zero in column order, as [`Mat2::apply`] and [`Mat4::apply`] do.
///
/// # Safety
/// The host must execute `V`'s instructions.
#[inline(always)]
unsafe fn mix_runs<V: RunLanes, const N: usize>(runs: [&mut [C64]; N], m: &[[C64; N]; N]) {
    let w = splat_matrix::<V, N>(m);
    let n = runs[0].len();
    let mut p = [std::ptr::null_mut(); N];
    for (p, run) in p.iter_mut().zip(runs) {
        debug_assert_eq!(run.len(), n);
        *p = run.as_mut_ptr();
    }
    let mut i = 0;
    while i + V::W <= n {
        let mut x = [V::zero(); N];
        for (x, &p) in x.iter_mut().zip(&p) {
            *x = V::load(p.add(i));
        }
        for (y, &p) in mix(&w, &x).iter().zip(&p) {
            y.store(p.add(i));
        }
        i += V::W;
    }
    if i < n {
        let mut x = [V::zero(); N];
        for (x, &p) in x.iter_mut().zip(&p) {
            *x = load_part(p.add(i), n - i);
        }
        for (&y, &p) in mix(&w, &x).iter().zip(&p) {
            store_part(y, p.add(i), n - i);
        }
    }
}

/// Every entry of `m` in every lane.
///
/// # Safety
/// As [`mix_runs`].
#[inline(always)]
unsafe fn splat_matrix<V: RunLanes, const N: usize>(m: &[[C64; N]; N]) -> [[V; N]; N] {
    let mut w = [[V::zero(); N]; N];
    for (wr, mr) in w.iter_mut().zip(m) {
        for (w, &e) in wr.iter_mut().zip(mr) {
            *w = V::splat(e);
        }
    }
    w
}

/// One step of [`mix_runs`]: `w·x` over splatted matrix entries.
///
/// # Safety
/// As [`mix_runs`].
#[inline(always)]
unsafe fn mix<V: RunLanes, const N: usize>(w: &[[V; N]; N], x: &[V; N]) -> [V; N] {
    let mut y = [V::zero(); N];
    for (y, row) in y.iter_mut().zip(w) {
        for (&w, &x) in row.iter().zip(x) {
            *y = V::fma(*y, w, x);
        }
    }
    y
}

/// `a0 = m00·a0 + m01·a1`, `a1 = m10·a0 + m11·a1` over paired runs.
///
/// # Safety
/// As [`mix_runs`].
#[inline(always)]
pub(super) unsafe fn pairs_1q<V: RunLanes>(a0: &mut [C64], a1: &mut [C64], m: &Mat2) {
    mix_runs::<V, 2>([a0, a1], &m.m)
}

/// Dense 4×4 mat-vec over four runs in matrix basis order `a0..a3`.
///
/// # Safety
/// As [`mix_runs`].
#[inline(always)]
pub(super) unsafe fn quads_2q<V: RunLanes>(
    a0: &mut [C64],
    a1: &mut [C64],
    a2: &mut [C64],
    a3: &mut [C64],
    m: &Mat4,
) {
    mix_runs::<V, 4>([a0, a1, a2, a3], &m.m)
}

/// Multiply one run by a diagonal entry: `amp·d`, as the scalar `*=`.
///
/// # Safety
/// As [`mix_runs`].
#[inline(always)]
pub(super) unsafe fn scale_run<V: RunLanes>(run: &mut [C64], d: C64) {
    let (p, n, vd) = (run.as_mut_ptr(), run.len(), V::splat(d));
    let mut i = 0;
    while i + V::W <= n {
        V::mul(V::load(p.add(i)), vd).store(p.add(i));
        i += V::W;
    }
    if i < n {
        store_part(V::mul(load_part(p.add(i), n - i), vd), p.add(i), n - i);
    }
}

/// `Σ |a|²` over one run: both planes square-accumulated lane by lane,
/// then summed.
///
/// # Safety
/// As [`mix_runs`].
#[inline(always)]
pub(super) unsafe fn sum_norms_run<V: RunLanes>(run: &[C64]) -> f64 {
    let (p, n) = (run.as_ptr(), run.len());
    let mut acc = V::zero();
    let mut i = 0;
    while i + V::W <= n {
        let x = V::load(p.add(i));
        acc = V::madd(acc, x, x);
        i += V::W;
    }
    if i < n {
        let x = load_part(p.add(i), n - i);
        acc = V::madd(acc, x, x);
    }
    let s = acc.hsum();
    s.re + s.im
}

/// `Σ x` over an `f64` run, read as complex pairs: the real plane sums
/// the even entries and the imaginary plane the odd ones.
///
/// # Safety
/// As [`mix_runs`].
#[inline(always)]
pub(super) unsafe fn sum_f64_run<V: RunLanes>(run: &[f64]) -> f64 {
    let half = run.len() / 2;
    // SAFETY: `C64` is `#[repr(C)] { re: f64, im: f64 }`, so two adjacent
    // `f64`s are one `C64` of the same alignment.
    let pairs = std::slice::from_raw_parts(run.as_ptr() as *const C64, half);
    let s = sum_c64_run::<V>(pairs);
    let odd: f64 = run[2 * half..].iter().sum();
    s.re + s.im + odd
}

/// `out[k] = conj(u[k])·v[k]`.
///
/// # Safety
/// As [`mix_runs`].
#[inline(always)]
pub(super) unsafe fn mul_conj_into_run<V: RunLanes>(u: &[C64], v: &[C64], out: &mut [C64]) {
    debug_assert_eq!(u.len(), v.len());
    debug_assert_eq!(u.len(), out.len());
    let (pu, pv, po, n) = (u.as_ptr(), v.as_ptr(), out.as_mut_ptr(), u.len());
    let mut i = 0;
    while i + V::W <= n {
        V::mul(V::load(pu.add(i)).conj(), V::load(pv.add(i))).store(po.add(i));
        i += V::W;
    }
    if i < n {
        let a: V = load_part(pu.add(i), n - i);
        store_part(V::mul(a.conj(), load_part(pv.add(i), n - i)), po.add(i), n - i);
    }
}

/// `Σ x` over a complex run.
///
/// # Safety
/// As [`mix_runs`].
#[inline(always)]
pub(super) unsafe fn sum_c64_run<V: RunLanes>(run: &[C64]) -> C64 {
    let (p, n) = (run.as_ptr(), run.len());
    let mut acc = V::zero();
    let mut i = 0;
    while i + V::W <= n {
        acc = V::add(acc, V::load(p.add(i)));
        i += V::W;
    }
    if i < n {
        acc = V::add(acc, load_part(p.add(i), n - i));
    }
    acc.hsum()
}

/// Trade each low target's lane bit for its stand-in's which-vector bit
/// in the live vectors of a step, so that vector `i` holds local index
/// `i`. Its own inverse.
///
/// # Safety
/// As [`mix_runs`].
#[inline(always)]
unsafe fn exchange_low<V: Lanes, const K: usize>(v: &mut [V; 4], low: &Steps) {
    for j in 0..K {
        let t = low.targets[j];
        for i in 0..1 << K {
            if t < low.lane_bits && i >> j & 1 == 0 && low.live >> i & 1 == 1 {
                (v[i], v[i | 1 << j]) = V::exchange(t, v[i], v[i | 1 << j]);
            }
        }
    }
}

/// [`step_range`] over `2^K` vectors a step.
///
/// # Safety
/// As [`step_range`].
#[inline(always)]
unsafe fn steps_of<V: RunLanes, const K: usize>(amps: *mut C64, steps: Range<usize>, low: &Steps) {
    for s in steps {
        let base = amps.add(low.base(s));
        let mut v = [V::zero(); 4];
        for i in (0..1 << K).filter(|i| low.live >> i & 1 == 1) {
            v[i] = V::load(base.add(low.offsets[i]));
        }
        exchange_low::<V, K>(&mut v, low);
        // Constant vector indices in every arm keep the step in registers.
        match low.op {
            LaneOp::Mix2(m, [0, 1]) => [v[0], v[1]] = mix(&splat_matrix(&m.m), &[v[0], v[1]]),
            LaneOp::Mix2(m, _) => [v[2], v[3]] = mix(&splat_matrix(&m.m), &[v[2], v[3]]),
            LaneOp::Mix4(m) => v = mix(&splat_matrix(&m.m), &v),
            LaneOp::Scale(d) => {
                for i in 0..1 << K {
                    if d[i] != ONE {
                        v[i] = V::mul(v[i], V::splat(d[i]));
                    }
                }
            }
            LaneOp::Swap([0, 1]) => v.swap(0, 1),
            LaneOp::Swap(_) => v.swap(1, 2),
        }
        exchange_low::<V, K>(&mut v, low);
        for i in (0..1 << K).filter(|i| low.live >> i & 1 == 1) {
            v[i].store(base.add(low.offsets[i]));
        }
    }
}

/// Steps `steps` of a sweep: load each step's vectors, exchange the low
/// targets out of the lanes, run the [`LaneOp`]'s lane arithmetic — the
/// run primitive's, so a gate gets the same bits wherever its targets
/// sit —, exchange back and store.
///
/// # Safety
/// As [`mix_runs`]; `low` must be laid out for `V::W`, and the caller
/// must hold exclusive access to every amplitude of the steps.
#[inline(always)]
pub(super) unsafe fn step_range<V: RunLanes>(amps: *mut C64, steps: Range<usize>, low: &Steps) {
    debug_assert_eq!(V::W, 1 << low.lane_bits);
    match low.k {
        1 => steps_of::<V, 1>(amps, steps, low),
        _ => steps_of::<V, 2>(amps, steps, low),
    }
}

/// Per-residue signed sums: `out[r] += Σ_{k ≡ r (mod 8)}
/// (−1)^parity((base + k) & hi) · x[k]`, for `x.len()`, `base` and `hi`
/// multiples of 8 and `W ≤ 8`. Each run of constant sign is summed in
/// registers, then joins the positive or the negative total.
///
/// # Safety
/// As [`mix_runs`].
#[inline(always)]
pub(super) unsafe fn residue_sums<V: RunLanes>(
    x: &[C64],
    base: usize,
    hi: usize,
    out: &mut [C64; 8],
) {
    assert!(x.len().is_multiple_of(8) && base.is_multiple_of(8) && hi.is_multiple_of(8));
    let k = 8 / V::W;
    let run = if hi == 0 { x.len() } else { (1usize << hi.trailing_zeros()).min(x.len()) };
    let (mut pos, mut neg) = ([V::zero(); 8], [V::zero(); 8]);
    for off in (0..x.len()).step_by(run) {
        let mut acc = [V::zero(); 8];
        for i in (off..off + run).step_by(8) {
            for (j, acc) in acc.iter_mut().enumerate().take(k) {
                *acc = V::add(*acc, V::load(x.as_ptr().add(i + j * V::W)));
            }
        }
        let negative = ((base + off) & hi).count_ones() & 1 == 1;
        for j in 0..k {
            if negative {
                neg[j] = V::add(neg[j], acc[j]);
            } else {
                pos[j] = V::add(pos[j], acc[j]);
            }
        }
    }
    let (mut bp, mut bn) = ([C64::default(); 8], [C64::default(); 8]);
    for j in 0..k {
        pos[j].store(bp.as_mut_ptr().add(j * V::W));
        neg[j].store(bn.as_mut_ptr().add(j * V::W));
    }
    for (o, (a, b)) in out.iter_mut().zip(bp.iter().zip(&bn)) {
        *o += *a - *b;
    }
}

/// The pair products `conj(a_i)·a_{i⊕flip}` of groups `groups`, for a flip
/// whose lowest bit `t` sits below the vector window: group `g` is the
/// `2W` amplitudes from `2W·g`, and its `W` products (bit `t` of `i`
/// clear) go to `out` in the order one exchange of `t` leaves them —
/// slot bit `t` is address bit `log2 W`. The partner vector's lanes are
/// then flipped by the flip's other bits inside the group, each by two
/// exchanges of the vector with itself.
///
/// # Safety
/// As [`mix_runs`].
#[inline(always)]
pub(super) unsafe fn mul_conj_low<V: RunLanes>(
    amps: &[C64],
    flip: usize,
    groups: Range<usize>,
    out: &mut [C64],
) {
    let (t, lane_bits) = (flip.trailing_zeros(), V::W.trailing_zeros());
    let group = 2 * V::W;
    assert!(t < lane_bits && groups.end * group <= amps.len());
    assert_eq!(out.len(), groups.len() * V::W);
    let (far, near) = (flip & !(group - 1), flip & (group - 1) & !(1 << t));
    let (p, mut o) = (amps.as_ptr(), out.as_mut_ptr());
    for g in groups {
        let (base, partner) = (g * group, (g * group) ^ far);
        let (u, _) = V::exchange(t, V::load(p.add(base)), V::load(p.add(base + V::W)));
        let (_, mut v) = V::exchange(t, V::load(p.add(partner)), V::load(p.add(partner + V::W)));
        for b in t + 1..=lane_bits {
            if near >> b & 1 == 1 {
                let lane = if b == lane_bits { t } else { b };
                let (lo, hi) = V::exchange(lane, v, v);
                v = V::exchange(lane, hi, lo).0;
            }
        }
        V::mul(u.conj(), v).store(o);
        o = o.add(V::W);
    }
}

/// Exchange two equal-length runs: a move, whatever the vector type.
pub(super) fn swap_runs(a: &mut [C64], b: &mut [C64]) {
    a.swap_with_slice(b);
}

/// `out[k] = |run[k]|²`, as [`C64::norm_sqr`] rounds it.
pub(super) fn norms_into_run(run: &[C64], out: &mut [f64]) {
    debug_assert_eq!(run.len(), out.len());
    for (a, o) in run.iter().zip(out) {
        *o = a.norm_sqr();
    }
}

/// Define `BACKEND` (or the static named before `=`), the
/// `KernelBackend` of vector type `$V`, named `$name`: every run
/// primitive and reduction of this module and the block kernel,
/// instantiated at `$V` inside a function compiled with the optional
/// `#[target_feature]` attribute, behind a wrapper that is safe unless it
/// takes raw pointers.
/// `width` is `$V::W`.
///
/// The wrappers may only be reached where the host executes `$V`'s
/// instructions: `simd::available` lists a table only after feature
/// detection.
macro_rules! kernel_backend {
    ($name:literal, $V:ty $(, #[$feature:meta])?) => {
        $crate::kernels::simd::lanes::kernel_backend! { BACKEND = $name, $V $(, #[$feature])? }
    };
    ($static:ident = $name:literal, $V:ty $(, #[$feature:meta])?) => {
        pub(super) static $static: $crate::kernels::simd::KernelBackend = {
            use $crate::complex::C64;
            use $crate::gates::matrices::{Mat2, Mat4};
            use std::ops::Range;
            use $crate::kernels::fused::Block;
            use $crate::kernels::simd::lanes::{self, Lanes};
            use $crate::kernels::sweep::Steps;

            $crate::kernels::simd::lanes::kernel_backend! { @wrap $V, [$(#[$feature])?],
                [] pairs_1q(a0: &mut [C64], a1: &mut [C64], m: &Mat2);
                [] scale_run(run: &mut [C64], d: C64);
                [] quads_2q(a0: &mut [C64], a1: &mut [C64], a2: &mut [C64], a3: &mut [C64], m: &Mat4);
                [] sum_norms_run(run: &[C64]) -> f64;
                [] sum_f64_run(run: &[f64]) -> f64;
                [] mul_conj_into_run(u: &[C64], v: &[C64], out: &mut [C64]);
                [] mul_conj_low(amps: &[C64], flip: usize, groups: Range<usize>, out: &mut [C64]);
                [] sum_c64_run(run: &[C64]) -> C64;
                [] residue_sums(x: &[C64], base: usize, hi: usize, out: &mut [C64; 8]);
                [unsafe] step_range(amps: *mut C64, steps: Range<usize>, low: &Steps);
                [unsafe] block_range(amps: *mut C64, g0: usize, g1: usize, blk: &Block);
            }

            $crate::kernels::simd::KernelBackend {
                name: $name,
                width: <$V as Lanes>::W,
                pairs_1q,
                scale_run,
                swap_runs: lanes::swap_runs,
                quads_2q,
                step_range,
                block_range,
                sum_norms_run,
                norms_into_run: lanes::norms_into_run,
                sum_f64_run,
                mul_conj_into_run,
                mul_conj_low,
                sum_c64_run,
                residue_sums,
            }
        };
    };
    (@wrap $V:ty, $features:tt, $([$($unsafe:tt)?] $f:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
        /// # Safety
        /// An `unsafe` wrapper keeps the generic primitive's contract.
        $($unsafe)? fn $f($($arg: $ty),*) $(-> $ret)? {
            $crate::kernels::simd::lanes::kernel_backend! { @with $features
                unsafe fn inner($($arg: $ty),*) $(-> $ret)? {
                    $crate::kernels::simd::lanes::$f::<$V>($($arg),*)
                }
            }
            // SAFETY: the table is only installed where the host runs `$V`.
            unsafe { inner($($arg),*) }
        }
    )*};
    (@with [$($attr:tt)*] $($item:tt)*) => {
        $($attr)* $($item)*
    };
}
pub(super) use kernel_backend;
