//! OpenMP-style parallel kernels.
//!
//! Each kernel workshares the group-index sweep of its scalar twin across
//! an `omp-par` [`ThreadPool`]. The group→amplitude mapping is injective
//! (proved by the partition tests in [`crate::kernels::index`]), so the
//! threads write disjoint amplitude sets; the raw-pointer wrapper below
//! carries that proof obligation past the borrow checker.
//!
//! Inside each thread's chunk the iteration space decomposes into
//! contiguous runs (bounded by the stride of the lowest target qubit),
//! and every run is swept by the active [`KernelBackend`]'s vector
//! primitives — the worksharing layer composes with the SIMD substrate.
//! When the stride sits below the backend's vector window the kernels
//! keep the original per-index scalar loops.

use omp_par::{Schedule, ThreadPool};

use crate::complex::C64;
use crate::gates::matrices::{Mat2, Mat4};
use crate::kernels::index::{insert_two_zero_bits, insert_zero_bit};
use crate::kernels::simd::KernelBackend;
use crate::kernels::AmpPtr;

/// Parallel dense 1-qubit kernel; see [`crate::kernels::scalar::apply_1q`].
pub fn apply_1q(
    pool: &ThreadPool,
    sched: Schedule,
    amps: &mut [C64],
    t: u32,
    m: &Mat2,
    be: &KernelBackend,
) {
    let half = amps.len() / 2;
    let stride = 1usize << t;
    let p = AmpPtr(amps.as_mut_ptr());
    if stride < be.width {
        let bit = stride;
        let (m00, m01, m10, m11) = (m.m[0][0], m.m[0][1], m.m[1][0], m.m[1][1]);
        pool.parallel_for(0..half, sched, move |chunk| {
            for i in chunk {
                let i0 = insert_zero_bit(i, t);
                let i1 = i0 | bit;
                // SAFETY: (i0, i1) pairs partition the index space over i.
                unsafe {
                    let a0 = *p.at(i0);
                    let a1 = *p.at(i1);
                    *p.at(i0) = C64::default().fma(m00, a0).fma(m01, a1);
                    *p.at(i1) = C64::default().fma(m10, a0).fma(m11, a1);
                }
            }
        });
        return;
    }
    let m = *m;
    pool.parallel_for(0..half, sched, move |chunk| {
        // Pair index i maps to run offset i & (stride-1); sweep each
        // maximal contiguous run with the backend's paired-run kernel.
        let mut i = chunk.start;
        while i < chunk.end {
            let run = (stride - (i & (stride - 1))).min(chunk.end - i);
            let base = insert_zero_bit(i, t);
            // SAFETY: pair halves partition the index space; runs from
            // disjoint chunks touch disjoint amplitudes.
            unsafe { (be.pairs_1q)(p.slice(base, run), p.slice(base + stride, run), &m) }
            i += run;
        }
    });
}

/// Parallel diagonal 1-qubit kernel.
pub fn apply_1q_diag(
    pool: &ThreadPool,
    sched: Schedule,
    amps: &mut [C64],
    t: u32,
    d0: C64,
    d1: C64,
    be: &KernelBackend,
) {
    let n = amps.len();
    let stride = 1usize << t;
    let p = AmpPtr(amps.as_mut_ptr());
    if stride < be.width {
        pool.parallel_for(0..n, sched, move |chunk| {
            for i in chunk {
                // SAFETY: each index visited by exactly one chunk.
                unsafe {
                    let a = p.at(i);
                    *a *= if i & stride == 0 { d0 } else { d1 };
                }
            }
        });
        return;
    }
    pool.parallel_for(0..n, sched, move |chunk| {
        // Bit t is constant over each aligned `stride`-long run.
        let mut i = chunk.start;
        while i < chunk.end {
            let run = (stride - (i & (stride - 1))).min(chunk.end - i);
            let d = if i & stride == 0 { d0 } else { d1 };
            // SAFETY: chunks partition the amplitude indices directly.
            unsafe { (be.scale_run)(p.slice(i, run), d) }
            i += run;
        }
    });
}

/// Parallel controlled dense 1-qubit kernel.
pub fn apply_controlled_1q(
    pool: &ThreadPool,
    sched: Schedule,
    amps: &mut [C64],
    c: u32,
    t: u32,
    m: &Mat2,
    be: &KernelBackend,
) {
    let quarter = amps.len() / 4;
    let (lo, hi) = if c < t { (c, t) } else { (t, c) };
    let cbit = 1usize << c;
    let tbit = 1usize << t;
    let p = AmpPtr(amps.as_mut_ptr());
    let runlen = 1usize << lo;
    if runlen < be.width {
        let (m00, m01, m10, m11) = (m.m[0][0], m.m[0][1], m.m[1][0], m.m[1][1]);
        pool.parallel_for(0..quarter, sched, move |chunk| {
            for i in chunk {
                let i0 = insert_two_zero_bits(i, lo, hi) | cbit;
                let i1 = i0 | tbit;
                // SAFETY: group bases partition the control-set subspace.
                unsafe {
                    let a0 = *p.at(i0);
                    let a1 = *p.at(i1);
                    *p.at(i0) = C64::default().fma(m00, a0).fma(m01, a1);
                    *p.at(i1) = C64::default().fma(m10, a0).fma(m11, a1);
                }
            }
        });
        return;
    }
    let m = *m;
    pool.parallel_for(0..quarter, sched, move |chunk| {
        // Group index bits below lo pass through insert_two_zero_bits
        // unchanged, so maximal runs stay contiguous in memory.
        let mut i = chunk.start;
        while i < chunk.end {
            let run = (runlen - (i & (runlen - 1))).min(chunk.end - i);
            let i0 = insert_two_zero_bits(i, lo, hi) | cbit;
            // SAFETY: the paired runs differ in bit t ≥ lo; disjoint
            // chunks yield disjoint runs.
            unsafe { (be.pairs_1q)(p.slice(i0, run), p.slice(i0 | tbit, run), &m) }
            i += run;
        }
    });
}

/// Parallel dense 2-qubit kernel on (high, low).
pub fn apply_2q(
    pool: &ThreadPool,
    sched: Schedule,
    amps: &mut [C64],
    h: u32,
    l: u32,
    m: &Mat4,
    be: &KernelBackend,
) {
    let quarter = amps.len() / 4;
    let (lo, hi) = if h < l { (h, l) } else { (l, h) };
    let hbit = 1usize << h;
    let lbit = 1usize << l;
    let m = *m;
    let p = AmpPtr(amps.as_mut_ptr());
    let runlen = 1usize << lo;
    if runlen < be.width {
        pool.parallel_for(0..quarter, sched, move |chunk| {
            for i in chunk {
                let base = insert_two_zero_bits(i, lo, hi);
                let idx = [base, base | lbit, base | hbit, base | hbit | lbit];
                // SAFETY: 4-element groups partition the index space.
                unsafe {
                    let v = [*p.at(idx[0]), *p.at(idx[1]), *p.at(idx[2]), *p.at(idx[3])];
                    let out = m.apply(v);
                    *p.at(idx[0]) = out[0];
                    *p.at(idx[1]) = out[1];
                    *p.at(idx[2]) = out[2];
                    *p.at(idx[3]) = out[3];
                }
            }
        });
        return;
    }
    pool.parallel_for(0..quarter, sched, move |chunk| {
        let mut i = chunk.start;
        while i < chunk.end {
            let run = (runlen - (i & (runlen - 1))).min(chunk.end - i);
            let base = insert_two_zero_bits(i, lo, hi);
            // SAFETY: the four runs differ in bits h, l ≥ lo; disjoint
            // chunks yield disjoint runs.
            unsafe {
                (be.quads_2q)(
                    p.slice(base, run),
                    p.slice(base | lbit, run),
                    p.slice(base | hbit, run),
                    p.slice(base | hbit | lbit, run),
                    &m,
                )
            }
            i += run;
        }
    });
}

/// Parallel SWAP kernel; see [`crate::kernels::scalar::apply_swap`].
///
/// Also the execution kernel for the planner's axis-relabeling sweeps
/// ([`crate::plan::PlanOp::SwapAxes`]): a pure permutation, no flops.
pub fn apply_swap(
    pool: &ThreadPool,
    sched: Schedule,
    amps: &mut [C64],
    a: u32,
    b: u32,
    be: &KernelBackend,
) {
    debug_assert_ne!(a, b);
    let quarter = amps.len() / 4;
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let abit = 1usize << a;
    let bbit = 1usize << b;
    let p = AmpPtr(amps.as_mut_ptr());
    let runlen = 1usize << lo;
    if runlen < be.width {
        pool.parallel_for(0..quarter, sched, move |chunk| {
            for i in chunk {
                let base = insert_two_zero_bits(i, lo, hi);
                // SAFETY: the (01, 10) index pairs partition over i.
                unsafe {
                    std::mem::swap(p.at(base | abit), p.at(base | bbit));
                }
            }
        });
        return;
    }
    pool.parallel_for(0..quarter, sched, move |chunk| {
        let mut i = chunk.start;
        while i < chunk.end {
            let run = (runlen - (i & (runlen - 1))).min(chunk.end - i);
            let base = insert_two_zero_bits(i, lo, hi);
            // SAFETY: the runs differ in bits a, b ≥ lo; disjoint.
            unsafe { (be.swap_runs)(p.slice(base | abit, run), p.slice(base | bbit, run)) }
            i += run;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::standard;
    use crate::kernels::scalar;
    use crate::kernels::simd;
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-12;

    fn rand_state(n: u32, seed: u64) -> StateVector {
        let mut rng = StdRng::seed_from_u64(seed);
        StateVector::random(n, &mut rng)
    }

    fn pools() -> Vec<ThreadPool> {
        vec![ThreadPool::new(1), ThreadPool::new(3), ThreadPool::new(8)]
    }

    fn schedules() -> Vec<Schedule> {
        vec![
            Schedule::Static { chunk: None },
            Schedule::Static { chunk: Some(5) },
            Schedule::Dynamic { chunk: 16 },
            Schedule::Guided { min_chunk: 4 },
        ]
    }

    /// Both the portable backend and (when present) the native one.
    fn backends() -> Vec<&'static simd::KernelBackend> {
        let mut v: Vec<&'static simd::KernelBackend> =
            vec![simd::backend_for(simd::BackendChoice::Scalar)];
        if let Some(b) = simd::native() {
            v.push(b);
        }
        v
    }

    #[test]
    fn parallel_1q_matches_scalar() {
        for be in backends() {
            for pool in pools() {
                for sched in schedules() {
                    for t in [0u32, 4, 9] {
                        let mut a = rand_state(10, 5);
                        let mut b = a.clone();
                        let m = standard::u3(0.3, -0.8, 1.1);
                        scalar::apply_1q(a.amplitudes_mut(), t, &m);
                        apply_1q(&pool, sched, b.amplitudes_mut(), t, &m, be);
                        assert!(
                            a.approx_eq(&b, EPS),
                            "{} threads={} sched={sched:?} t={t}",
                            be.name,
                            pool.num_threads()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_diag_matches_scalar() {
        let pool = ThreadPool::new(4);
        let d0 = C64::exp_i(0.3);
        let d1 = C64::exp_i(-1.2);
        for be in backends() {
            for sched in schedules() {
                for t in [0u32, 3, 7] {
                    let mut a = rand_state(9, 8);
                    let mut b = a.clone();
                    scalar::apply_1q_diag(a.amplitudes_mut(), t, d0, d1);
                    apply_1q_diag(&pool, sched, b.amplitudes_mut(), t, d0, d1, be);
                    assert!(a.approx_eq(&b, EPS), "{} sched={sched:?} t={t}", be.name);
                }
            }
        }
    }

    #[test]
    fn parallel_controlled_matches_scalar() {
        let pool = ThreadPool::new(4);
        for be in backends() {
            for (c, t) in [(0u32, 8u32), (8, 0), (3, 4)] {
                let mut a = rand_state(9, 12);
                let mut b = a.clone();
                let m = standard::ry(0.7);
                scalar::apply_controlled_1q(a.amplitudes_mut(), c, t, &m);
                apply_controlled_1q(
                    &pool,
                    Schedule::Dynamic { chunk: 8 },
                    b.amplitudes_mut(),
                    c,
                    t,
                    &m,
                    be,
                );
                assert!(a.approx_eq(&b, EPS), "{} c={c} t={t}", be.name);
            }
        }
    }

    #[test]
    fn parallel_2q_matches_scalar() {
        let pool = ThreadPool::new(6);
        for be in backends() {
            for (h, l) in [(1u32, 0u32), (0, 7), (5, 2)] {
                let mut a = rand_state(8, 21);
                let mut b = a.clone();
                let m = standard::rxx_mat(0.6);
                scalar::apply_2q(a.amplitudes_mut(), h, l, &m);
                apply_2q(
                    &pool,
                    Schedule::Guided { min_chunk: 2 },
                    b.amplitudes_mut(),
                    h,
                    l,
                    &m,
                    be,
                );
                assert!(a.approx_eq(&b, EPS), "{} h={h} l={l}", be.name);
            }
        }
    }

    #[test]
    fn parallel_swap_matches_scalar() {
        let pool = ThreadPool::new(5);
        for be in backends() {
            for (x, y) in [(0u32, 8u32), (2, 6), (7, 3)] {
                let mut a = rand_state(9, 27);
                let mut b = a.clone();
                scalar::apply_swap(a.amplitudes_mut(), x, y);
                apply_swap(
                    &pool,
                    Schedule::Static { chunk: Some(7) },
                    b.amplitudes_mut(),
                    x,
                    y,
                    be,
                );
                assert!(a.approx_eq(&b, EPS), "{} a={x} b={y}", be.name);
            }
        }
    }

    #[test]
    fn parallel_norm_preserved() {
        let pool = ThreadPool::new(7);
        let be = simd::active();
        let mut s = rand_state(11, 44);
        apply_1q(
            &pool,
            Schedule::Static { chunk: None },
            s.amplitudes_mut(),
            10,
            &standard::h(),
            be,
        );
        apply_2q(
            &pool,
            Schedule::Dynamic { chunk: 64 },
            s.amplitudes_mut(),
            3,
            9,
            &standard::swap_mat(),
            be,
        );
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }
}
