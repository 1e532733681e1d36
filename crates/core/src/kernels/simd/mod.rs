//! Native SIMD kernel substrate with runtime dispatch.
//!
//! The `sve` module *counts* what an A64FX would execute; this module
//! actually executes vector code on the host. Every hot kernel shape —
//! dense 1q, diag 1q/2q, X/SWAP, controlled 1q, dense 2q, and the fused
//! k-qubit block — is expressed over a small primitive set (paired-run
//! mat-vec, run scaling, run exchange, quad-run mat-vec, group-range
//! block kernel) collected in a [`KernelBackend`] vtable:
//!
//! * `avx2` — x86-64 AVX2+FMA intrinsics, 4 complex lanes (runtime
//!   detected via `is_x86_feature_detected!`);
//! * `neon` — aarch64 NEON intrinsics, 2 complex lanes (baseline on
//!   aarch64-linux, selected at compile time);
//! * [`portable`] — width-1 safe fallback, bit-identical to the
//!   scalar kernels in `crate::kernels::scalar`.
//!
//! The drivers below hold the stride logic: a 1q gate on target `t`
//! splits the array into `2^t`-long paired runs, and whenever the run is
//! at least one vector wide the backend primitive sweeps it; targets
//! below the vector window fall back to the scalar kernels, mirroring
//! `kernels/sve.rs`'s predicated remainder handling.
//!
//! Backend selection happens once per process ([`active`]); the
//! `QCS_BACKEND` environment variable (`auto`/`scalar`/`simd`) and the
//! CLI `--backend` flag override detection.

// The native modules are vendor intrinsics; Miri interprets portable
// Rust only, so under `cfg(miri)` they are compiled out and every
// dispatch resolves to the portable backend.
#[cfg(all(target_arch = "x86_64", not(miri)))]
pub mod avx2;
#[cfg(all(target_arch = "aarch64", not(miri)))]
pub mod neon;
pub mod portable;

use std::str::FromStr;
use std::sync::OnceLock;

use crate::complex::C64;
use crate::gates::matrices::{DenseMatrix, Mat2, Mat4};
use crate::kernels::fused::Block;
use crate::kernels::index::insert_two_zero_bits;
use crate::kernels::{scalar, AmpPtr};

/// One SIMD backend: a name, its vector width in *complex lanes*, and
/// the primitive kernels every driver is built from.
///
/// All primitives operate on contiguous runs the drivers carve out of
/// the strided sweep, so backends contain no index arithmetic — only
/// straight-line vector code.
#[derive(Debug)]
pub struct KernelBackend {
    pub name: &'static str,
    /// Complex lanes per vector step; runs shorter than this take the
    /// scalar fallback path.
    pub width: usize,
    /// `a0 = m00·a0 + m01·a1`, `a1 = m10·a0 + m11·a1` over paired runs.
    pub pairs_1q: fn(&mut [C64], &mut [C64], &Mat2),
    /// Multiply one run by a diagonal entry.
    pub scale_run: fn(&mut [C64], C64),
    /// Exchange two equal-length runs.
    pub swap_runs: fn(&mut [C64], &mut [C64]),
    /// Dense 4×4 mat-vec over four runs in matrix basis order `v0..v3`.
    #[allow(clippy::type_complexity)]
    pub quads_2q: fn(&mut [C64], &mut [C64], &mut [C64], &mut [C64], &Mat4),
    /// The fused k-qubit block over groups `g0..g1`: the one block
    /// kernel of [`crate::kernels::fused`] at this backend's width.
    ///
    /// # Safety
    /// The caller must hold exclusive access to every amplitude
    /// reachable from the group range, which must lie within the state.
    pub block_range: unsafe fn(*mut C64, usize, usize, &Block),
    /// `Σ |a|²` over one run — the norm/diagonal-expectation reduction.
    pub sum_norms_run: fn(&[C64]) -> f64,
    /// `out[k] = |run[k]|²` — materialize norms into an `f64` scratch so
    /// several diagonal observable terms can share one state sweep.
    pub norms_into_run: fn(&[C64], &mut [f64]),
    /// `Σ x` over an `f64` scratch run (signed per-run by the driver).
    pub sum_f64_run: fn(&[f64]) -> f64,
    /// `Σ conj(u)·v` over paired runs — the off-diagonal Pauli pairing.
    pub dot_conj_run: fn(&[C64], &[C64]) -> C64,
    /// `out[k] = conj(u[k])·v[k]` — materialize the pair cross-products
    /// so several Pauli terms sharing a flip mask reuse one state sweep.
    pub mul_conj_into_run: fn(&[C64], &[C64], &mut [C64]),
    /// `Σ x` over a complex scratch run.
    pub sum_c64_run: fn(&[C64]) -> C64,
}

/// User-facing backend selection (CLI `--backend`, `QCS_BACKEND`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Best native backend if the host supports one, else portable.
    #[default]
    Auto,
    /// Force the portable width-1 fallback (scalar-equivalent).
    Scalar,
    /// Same resolution as `Auto`; names the intent explicitly.
    Simd,
}

impl FromStr for BackendChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<BackendChoice, String> {
        match s {
            "auto" => Ok(BackendChoice::Auto),
            "scalar" | "portable" => Ok(BackendChoice::Scalar),
            "simd" | "native" => Ok(BackendChoice::Simd),
            other => Err(format!("unknown backend '{other}' (expected auto|scalar|simd)")),
        }
    }
}

/// The best native backend the host supports, if any. Always `None`
/// under Miri, which cannot execute vendor intrinsics.
pub fn native() -> Option<&'static KernelBackend> {
    #[cfg(miri)]
    {
        None
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Some(&avx2::BACKEND);
        }
        None
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    {
        Some(&neon::BACKEND)
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64", miri)))]
    {
        None
    }
}

/// Resolve a [`BackendChoice`] against the host.
pub fn backend_for(choice: BackendChoice) -> &'static KernelBackend {
    match choice {
        BackendChoice::Scalar => &portable::BACKEND,
        BackendChoice::Auto | BackendChoice::Simd => native().unwrap_or(&portable::BACKEND),
    }
}

/// The process-wide backend, chosen once on first use: the
/// `QCS_BACKEND` environment variable (`auto`/`scalar`/`simd`) overrides
/// feature detection — CI uses this for its forced-scalar test run.
pub fn active() -> &'static KernelBackend {
    static ACTIVE: OnceLock<&'static KernelBackend> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        let choice = std::env::var("QCS_BACKEND")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(BackendChoice::Auto);
        backend_for(choice)
    })
}

/// Full state vectors come from [`crate::align::AlignedAmps`] and are
/// always cache-line aligned; buffers shorter than this (the fusion
/// layer's matrix-build scratch) are exempt from the check.
const ALIGN_ASSERT_MIN: usize = 64;

#[inline]
fn debug_assert_aligned(amps: &[C64]) {
    debug_assert!(
        amps.len() < ALIGN_ASSERT_MIN || (amps.as_ptr() as usize).is_multiple_of(64),
        "state buffers must be 64-byte aligned (allocate via align::AlignedAmps)"
    );
}

/// Dense 2×2 unitary on target `t`: paired runs of `2^t` amplitudes.
pub fn apply_1q(be: &KernelBackend, amps: &mut [C64], t: u32, m: &Mat2) {
    debug_assert_aligned(amps);
    let stride = 1usize << t;
    debug_assert!(stride < amps.len());
    if stride < be.width {
        return scalar::apply_1q(amps, t, m);
    }
    for seg in amps.chunks_exact_mut(2 * stride) {
        let (a0, a1) = seg.split_at_mut(stride);
        (be.pairs_1q)(a0, a1, m);
    }
}

/// Diagonal 1q gate: stream `d0`/`d1` over alternating `2^t` runs.
pub fn apply_1q_diag(be: &KernelBackend, amps: &mut [C64], t: u32, d0: C64, d1: C64) {
    debug_assert_aligned(amps);
    let stride = 1usize << t;
    if stride < be.width {
        return scalar::apply_1q_diag(amps, t, d0, d1);
    }
    for seg in amps.chunks_exact_mut(2 * stride) {
        let (a0, a1) = seg.split_at_mut(stride);
        (be.scale_run)(a0, d0);
        (be.scale_run)(a1, d1);
    }
}

/// Pauli-X on target `t`: exchange paired `2^t` runs.
pub fn apply_x(be: &KernelBackend, amps: &mut [C64], t: u32) {
    debug_assert_aligned(amps);
    let stride = 1usize << t;
    if stride < be.width {
        return scalar::apply_x(amps, t);
    }
    for seg in amps.chunks_exact_mut(2 * stride) {
        let (a0, a1) = seg.split_at_mut(stride);
        (be.swap_runs)(a0, a1);
    }
}

/// Controlled dense 1q gate: paired runs within the control-set
/// subspace, each `2^min(c,t)` long.
pub fn apply_controlled_1q(be: &KernelBackend, amps: &mut [C64], c: u32, t: u32, m: &Mat2) {
    debug_assert_ne!(c, t);
    debug_assert_aligned(amps);
    let (lo, hi) = if c < t { (c, t) } else { (t, c) };
    let run = 1usize << lo;
    if run < be.width {
        return scalar::apply_controlled_1q(amps, c, t, m);
    }
    let cbit = 1usize << c;
    let tbit = 1usize << t;
    let groups = (amps.len() / 4) >> lo;
    let p = AmpPtr(amps.as_mut_ptr());
    for g in 0..groups {
        let i0 = insert_two_zero_bits(g << lo, lo, hi) | cbit;
        // SAFETY: the two runs differ in bit t ≥ lo, so they are
        // disjoint; distinct g values never share amplitudes.
        unsafe { (be.pairs_1q)(p.slice(i0, run), p.slice(i0 | tbit, run), m) }
    }
}

/// Diagonal 2q gate: one diagonal entry per `2^min(h,l)` run, picked by
/// the (h, l) bits of the run's base index.
pub fn apply_2q_diag(be: &KernelBackend, amps: &mut [C64], h: u32, l: u32, d: [C64; 4]) {
    debug_assert_ne!(h, l);
    debug_assert_aligned(amps);
    let lo = h.min(l);
    let run = 1usize << lo;
    if run < be.width {
        return scalar::apply_2q_diag(amps, h, l, d);
    }
    let hbit = 1usize << h;
    let lbit = 1usize << l;
    for (ri, seg) in amps.chunks_exact_mut(run).enumerate() {
        let base = ri << lo;
        let idx = (usize::from(base & hbit != 0) << 1) | usize::from(base & lbit != 0);
        (be.scale_run)(seg, d[idx]);
    }
}

/// Dense 4×4 unitary on (high `h`, low `l`): four disjoint
/// `2^min(h,l)` runs per group, in matrix basis order.
pub fn apply_2q(be: &KernelBackend, amps: &mut [C64], h: u32, l: u32, m: &Mat4) {
    debug_assert_ne!(h, l);
    debug_assert_aligned(amps);
    let (lo, hi) = if h < l { (h, l) } else { (l, h) };
    let run = 1usize << lo;
    if run < be.width {
        return scalar::apply_2q(amps, h, l, m);
    }
    let hbit = 1usize << h;
    let lbit = 1usize << l;
    let groups = (amps.len() / 4) >> lo;
    let p = AmpPtr(amps.as_mut_ptr());
    for g in 0..groups {
        let base = insert_two_zero_bits(g << lo, lo, hi);
        // SAFETY: the four runs differ in bits h, l ≥ lo and are
        // pairwise disjoint; distinct g values never share amplitudes.
        unsafe {
            (be.quads_2q)(
                p.slice(base, run),
                p.slice(base | lbit, run),
                p.slice(base | hbit, run),
                p.slice(base | hbit | lbit, run),
                m,
            )
        }
    }
}

/// SWAP two qubits: exchange the mismatched `2^min(a,b)` runs.
pub fn apply_swap(be: &KernelBackend, amps: &mut [C64], a: u32, b: u32) {
    debug_assert_ne!(a, b);
    debug_assert_aligned(amps);
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let run = 1usize << lo;
    if run < be.width {
        return scalar::apply_swap(amps, a, b);
    }
    let abit = 1usize << a;
    let bbit = 1usize << b;
    let groups = (amps.len() / 4) >> lo;
    let p = AmpPtr(amps.as_mut_ptr());
    for g in 0..groups {
        let base = insert_two_zero_bits(g << lo, lo, hi);
        // SAFETY: the runs differ in bits a, b ≥ lo; disjoint.
        unsafe { (be.swap_runs)(p.slice(base | abit, run), p.slice(base | bbit, run)) }
    }
}

/// Dense `2^k × 2^k` unitary on qubits `ts`; semantics of
/// [`scalar::apply_kq`] (local basis follows sorted qubit order).
pub fn apply_kq(be: &KernelBackend, amps: &mut [C64], ts: &[u32], m: &DenseMatrix) {
    let mut sorted = ts.to_vec();
    sorted.sort_unstable();
    let blk = Block::new(&sorted, m);
    debug_assert_aligned(amps);
    let groups = amps.len() >> sorted.len();
    // SAFETY: the exclusive borrow of `amps` covers every group.
    unsafe { (be.block_range)(amps.as_mut_ptr(), 0, groups, &blk) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::standard;
    use crate::state::StateVector;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EPS: f64 = 1e-12;

    /// Every backend the host can run: portable always, plus the native
    /// one when detection finds it.
    fn backends() -> Vec<&'static KernelBackend> {
        let mut v: Vec<&'static KernelBackend> = vec![&portable::BACKEND];
        if let Some(b) = native() {
            v.push(b);
        }
        v
    }

    fn rand_state(n: u32, seed: u64) -> StateVector {
        let mut rng = StdRng::seed_from_u64(seed);
        StateVector::random(n, &mut rng)
    }

    fn rand_dense(k: u32, rng: &mut StdRng) -> DenseMatrix {
        let dim = 1usize << k;
        let data: Vec<C64> = (0..dim * dim)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        DenseMatrix::from_data(dim, data)
    }

    /// Pick `k` distinct qubits below `n` (Fisher–Yates prefix).
    fn rand_qubits(k: usize, n: u32, rng: &mut StdRng) -> Vec<u32> {
        let mut all: Vec<u32> = (0..n).collect();
        for i in 0..k {
            let j = rng.gen_range(i..all.len());
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }

    #[test]
    fn backend_choice_parses() {
        assert_eq!("auto".parse::<BackendChoice>().unwrap(), BackendChoice::Auto);
        assert_eq!("scalar".parse::<BackendChoice>().unwrap(), BackendChoice::Scalar);
        assert_eq!("simd".parse::<BackendChoice>().unwrap(), BackendChoice::Simd);
        assert!("sse9".parse::<BackendChoice>().is_err());
    }

    #[test]
    fn scalar_choice_resolves_to_portable() {
        assert_eq!(backend_for(BackendChoice::Scalar).name, "portable");
        assert_eq!(backend_for(BackendChoice::Scalar).width, 1);
    }

    #[test]
    fn active_backend_is_a_known_one() {
        let be = active();
        assert!(["portable", "avx2", "neon"].contains(&be.name), "got {}", be.name);
        assert!(be.width.is_power_of_two());
    }

    #[test]
    fn portable_backend_is_bit_identical_to_scalar() {
        // Not just within EPS: the portable primitives reproduce the
        // scalar sweeps exactly, so a forced-scalar run is reproducible.
        let be = &portable::BACKEND;
        let m = standard::u3(0.4, -1.1, 0.9);
        for t in 0..8u32 {
            let mut a = rand_state(8, 100 + t as u64);
            let mut b = a.clone();
            scalar::apply_1q(a.amplitudes_mut(), t, &m);
            apply_1q(be, b.amplitudes_mut(), t, &m);
            assert_eq!(a.max_abs_diff(&b), 0.0, "t={t}");
        }
    }

    #[test]
    fn dense_1q_matches_scalar_every_target() {
        for be in backends() {
            let m = standard::u3(0.3, 1.0, -0.5);
            for n in [1u32, 3, 6, 10] {
                for t in 0..n {
                    let mut a = rand_state(n, 7 + t as u64);
                    let mut b = a.clone();
                    scalar::apply_1q(a.amplitudes_mut(), t, &m);
                    apply_1q(be, b.amplitudes_mut(), t, &m);
                    assert!(a.approx_eq(&b, EPS), "{} n={n} t={t}", be.name);
                }
            }
        }
    }

    #[test]
    fn diag_1q_matches_scalar_every_target() {
        let d0 = C64::exp_i(0.31);
        let d1 = C64::exp_i(-1.27);
        for be in backends() {
            for n in [1u32, 5, 9] {
                for t in 0..n {
                    let mut a = rand_state(n, 11 + t as u64);
                    let mut b = a.clone();
                    scalar::apply_1q_diag(a.amplitudes_mut(), t, d0, d1);
                    apply_1q_diag(be, b.amplitudes_mut(), t, d0, d1);
                    assert!(a.approx_eq(&b, EPS), "{} n={n} t={t}", be.name);
                }
            }
        }
    }

    #[test]
    fn x_matches_scalar_every_target() {
        for be in backends() {
            for n in [1u32, 4, 9] {
                for t in 0..n {
                    let mut a = rand_state(n, 13 + t as u64);
                    let mut b = a.clone();
                    scalar::apply_x(a.amplitudes_mut(), t);
                    apply_x(be, b.amplitudes_mut(), t);
                    assert!(a.approx_eq(&b, EPS), "{} n={n} t={t}", be.name);
                }
            }
        }
    }

    #[test]
    fn controlled_1q_matches_scalar_every_pair() {
        let m = standard::ry(0.73);
        for be in backends() {
            for n in [2u32, 5, 8] {
                for c in 0..n {
                    for t in 0..n {
                        if c == t {
                            continue;
                        }
                        let mut a = rand_state(n, 17);
                        let mut b = a.clone();
                        scalar::apply_controlled_1q(a.amplitudes_mut(), c, t, &m);
                        apply_controlled_1q(be, b.amplitudes_mut(), c, t, &m);
                        assert!(a.approx_eq(&b, EPS), "{} n={n} c={c} t={t}", be.name);
                    }
                }
            }
        }
    }

    #[test]
    fn diag_2q_matches_scalar_every_pair() {
        let d = [C64::exp_i(0.1), C64::exp_i(0.2), C64::exp_i(0.3), C64::exp_i(-0.4)];
        for be in backends() {
            for n in [2u32, 6, 9] {
                for h in 0..n {
                    for l in 0..n {
                        if h == l {
                            continue;
                        }
                        let mut a = rand_state(n, 19);
                        let mut b = a.clone();
                        scalar::apply_2q_diag(a.amplitudes_mut(), h, l, d);
                        apply_2q_diag(be, b.amplitudes_mut(), h, l, d);
                        assert!(a.approx_eq(&b, EPS), "{} n={n} h={h} l={l}", be.name);
                    }
                }
            }
        }
    }

    #[test]
    fn dense_2q_matches_scalar_every_pair() {
        let m = standard::rxx_mat(0.62);
        for be in backends() {
            for n in [2u32, 6, 9] {
                for h in 0..n {
                    for l in 0..n {
                        if h == l {
                            continue;
                        }
                        let mut a = rand_state(n, 23);
                        let mut b = a.clone();
                        scalar::apply_2q(a.amplitudes_mut(), h, l, &m);
                        apply_2q(be, b.amplitudes_mut(), h, l, &m);
                        assert!(a.approx_eq(&b, EPS), "{} n={n} h={h} l={l}", be.name);
                    }
                }
            }
        }
    }

    #[test]
    fn swap_matches_scalar_every_pair() {
        for be in backends() {
            for n in [2u32, 7] {
                for x in 0..n {
                    for y in 0..n {
                        if x == y {
                            continue;
                        }
                        let mut a = rand_state(n, 29);
                        let mut b = a.clone();
                        scalar::apply_swap(a.amplitudes_mut(), x, y);
                        apply_swap(be, b.amplitudes_mut(), x, y);
                        assert!(a.approx_eq(&b, EPS), "{} n={n} a={x} b={y}", be.name);
                    }
                }
            }
        }
    }

    #[test]
    fn kq_contiguous_case_matches_scalar() {
        // Targets 0..k: the contiguous-group (row-vectorized) path.
        let mut rng = StdRng::seed_from_u64(31);
        for be in backends() {
            for k in 2u32..=5 {
                let ts: Vec<u32> = (0..k).collect();
                let m = rand_dense(k, &mut rng);
                let mut a = rand_state(k + 4, 37);
                let mut b = a.clone();
                scalar::apply_kq(a.amplitudes_mut(), &ts, &m);
                apply_kq(be, b.amplitudes_mut(), &ts, &m);
                assert!(a.approx_eq(&b, EPS), "{} k={k}", be.name);
            }
        }
    }

    #[test]
    fn kq_strided_case_matches_scalar() {
        // All targets high: the across-group (Case A) path.
        let mut rng = StdRng::seed_from_u64(41);
        for be in backends() {
            for ts in [vec![5u32, 7], vec![4, 6, 8], vec![3, 5, 7, 9]] {
                let m = rand_dense(ts.len() as u32, &mut rng);
                let mut a = rand_state(10, 43);
                let mut b = a.clone();
                scalar::apply_kq(a.amplitudes_mut(), &ts, &m);
                apply_kq(be, b.amplitudes_mut(), &ts, &m);
                assert!(a.approx_eq(&b, EPS), "{} ts={ts:?}", be.name);
            }
        }
    }

    #[test]
    fn kq_narrow_stride_exchanges_lanes_and_matches() {
        // Lowest target at bit 0/1: the lane-exchange path of the block
        // kernel.
        let mut rng = StdRng::seed_from_u64(47);
        for be in backends() {
            for ts in [vec![0u32, 5], vec![1, 6, 7]] {
                let m = rand_dense(ts.len() as u32, &mut rng);
                let mut a = rand_state(9, 53);
                let mut b = a.clone();
                scalar::apply_kq(a.amplitudes_mut(), &ts, &m);
                apply_kq(be, b.amplitudes_mut(), &ts, &m);
                assert!(a.approx_eq(&b, EPS), "{} ts={ts:?}", be.name);
            }
        }
    }

    #[test]
    fn small_unaligned_scratch_is_accepted() {
        // The fusion layer applies gates to short Vec-backed scratch
        // buffers; those are exempt from the alignment assertion.
        let mut amps = vec![C64::default(); 32];
        amps[0] = C64::real(1.0);
        for be in backends() {
            apply_1q(be, &mut amps, 3, &standard::h());
            apply_1q(be, &mut amps, 3, &standard::h());
        }
        assert!(amps[0].approx_eq(C64::real(1.0), 1e-10));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Dense 1q equivalence across sizes 2^1..2^14 and all targets.
        #[test]
        fn prop_dense_1q(n in 1u32..15, traw in 0u32..16, seed in 0u64..10_000,
                         th in -3.2f64..3.2, ph in -3.2f64..3.2, la in -3.2f64..3.2) {
            let t = traw % n;
            let m = standard::u3(th, ph, la);
            for be in backends() {
                let mut a = rand_state(n, seed);
                let mut b = a.clone();
                scalar::apply_1q(a.amplitudes_mut(), t, &m);
                apply_1q(be, b.amplitudes_mut(), t, &m);
                prop_assert!(a.approx_eq(&b, EPS), "{} n={} t={}", be.name, n, t);
            }
        }

        /// Diagonal 1q equivalence.
        #[test]
        fn prop_diag_1q(n in 1u32..15, traw in 0u32..16, seed in 0u64..10_000,
                        p0 in -3.2f64..3.2, p1 in -3.2f64..3.2) {
            let t = traw % n;
            let (d0, d1) = (C64::exp_i(p0), C64::exp_i(p1));
            for be in backends() {
                let mut a = rand_state(n, seed);
                let mut b = a.clone();
                scalar::apply_1q_diag(a.amplitudes_mut(), t, d0, d1);
                apply_1q_diag(be, b.amplitudes_mut(), t, d0, d1);
                prop_assert!(a.approx_eq(&b, EPS), "{} n={} t={}", be.name, n, t);
            }
        }

        /// X / SWAP permutation equivalence.
        #[test]
        fn prop_x_and_swap(n in 2u32..15, araw in 0u32..16, braw in 0u32..16,
                           seed in 0u64..10_000) {
            let qa = araw % n;
            let qb = (qa + 1 + braw % (n - 1)) % n;
            for be in backends() {
                let mut a = rand_state(n, seed);
                let mut b = a.clone();
                scalar::apply_x(a.amplitudes_mut(), qa);
                scalar::apply_swap(a.amplitudes_mut(), qa, qb);
                apply_x(be, b.amplitudes_mut(), qa);
                apply_swap(be, b.amplitudes_mut(), qa, qb);
                prop_assert!(a.approx_eq(&b, EPS), "{} n={} a={} b={}", be.name, n, qa, qb);
            }
        }

        /// Controlled 1q equivalence.
        #[test]
        fn prop_controlled_1q(n in 2u32..15, craw in 0u32..16, traw in 0u32..16,
                              seed in 0u64..10_000, th in -3.2f64..3.2) {
            let c = craw % n;
            let t = (c + 1 + traw % (n - 1)) % n;
            let m = standard::ry(th);
            for be in backends() {
                let mut a = rand_state(n, seed);
                let mut b = a.clone();
                scalar::apply_controlled_1q(a.amplitudes_mut(), c, t, &m);
                apply_controlled_1q(be, b.amplitudes_mut(), c, t, &m);
                prop_assert!(a.approx_eq(&b, EPS), "{} n={} c={} t={}", be.name, n, c, t);
            }
        }

        /// Dense + diagonal 2q equivalence with a random dense 4×4.
        #[test]
        fn prop_2q(n in 2u32..15, hraw in 0u32..16, lraw in 0u32..16,
                   seed in 0u64..10_000, mseed in 0u64..10_000) {
            let h = hraw % n;
            let l = (h + 1 + lraw % (n - 1)) % n;
            let mut mrng = StdRng::seed_from_u64(mseed);
            let mut rows = [[C64::default(); 4]; 4];
            for row in rows.iter_mut() {
                for e in row.iter_mut() {
                    *e = C64::new(mrng.gen_range(-1.0..1.0), mrng.gen_range(-1.0..1.0));
                }
            }
            let m = Mat4::from_rows(rows);
            let d = [C64::exp_i(0.3), C64::exp_i(-0.1), C64::exp_i(1.2), C64::exp_i(0.8)];
            for be in backends() {
                let mut a = rand_state(n, seed);
                let mut b = a.clone();
                scalar::apply_2q(a.amplitudes_mut(), h, l, &m);
                scalar::apply_2q_diag(a.amplitudes_mut(), h, l, d);
                apply_2q(be, b.amplitudes_mut(), h, l, &m);
                apply_2q_diag(be, b.amplitudes_mut(), h, l, d);
                prop_assert!(a.approx_eq(&b, EPS), "{} n={} h={} l={}", be.name, n, h, l);
            }
        }

        /// Fused k-qubit matvec equivalence for k = 2..5 on random
        /// qubit subsets and random dense matrices.
        #[test]
        fn prop_fused_kq(k in 2usize..=5, extra in 0u32..9, seed in 0u64..10_000,
                         mseed in 0u64..10_000) {
            let n = k as u32 + 1 + extra; // k < n ≤ 14
            let mut mrng = StdRng::seed_from_u64(mseed);
            let ts = rand_qubits(k, n, &mut mrng);
            let m = rand_dense(k as u32, &mut mrng);
            for be in backends() {
                let mut a = rand_state(n, seed);
                let mut b = a.clone();
                scalar::apply_kq(a.amplitudes_mut(), &ts, &m);
                apply_kq(be, b.amplitudes_mut(), &ts, &m);
                prop_assert!(a.approx_eq(&b, EPS), "{} n={} ts={:?}", be.name, n, ts);
            }
        }
    }
}
