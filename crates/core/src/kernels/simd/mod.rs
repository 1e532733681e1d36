//! Native SIMD kernel substrate with runtime dispatch.
//!
//! The `sve` module *counts* what an A64FX would execute; this module
//! actually executes vector code on the host. Every hot kernel shape —
//! dense 1q, diag 1q/2q, X/SWAP, controlled 1q, dense 2q, and the fused
//! k-qubit block — is expressed over a small primitive set (paired-run
//! mat-vec, run scaling, run exchange, quad-run mat-vec, group-range
//! block kernel) plus the observable reductions, collected in a
//! [`KernelBackend`] vtable.
//!
//! Each primitive is written once, in `lanes`, generic over a vector
//! type of `W` complex lanes, and each backend is one such type with
//! its two trait impls, from which one macro builds the table:
//!
//! * `avx2` — x86-64 AVX2+FMA, 4 complex lanes (runtime detected via
//!   `is_x86_feature_detected!`);
//! * `avx512` — the `avx2` table with the block kernel at 8 complex
//!   lanes (AVX-512F, runtime detected). Only the issue-bound block
//!   arithmetic gains from the wider registers; the per-gate walkers and
//!   reductions stream memory and stay at 4 lanes;
//! * `neon` — aarch64 NEON, 2 complex lanes (baseline on aarch64-linux,
//!   selected at compile time);
//! * [`portable`] — one lane, no intrinsics, bit-identical to the
//!   scalar kernels in `crate::kernels::scalar`.
//!
//! [`available`] lists every backend the host can execute — what the
//! conformance suites loop over — and [`native`] is the last of them.
//!
//! The stride logic lives in [`crate::kernels::sweep`]: a 1q gate on
//! target `t` splits the array into `2^t`-long paired runs, and whenever
//! the run is a few vectors wide the backend primitive sweeps it, else
//! `step_range` does, whole vectors at a time. A primitive gives an
//! amplitude the same bits wherever a run is cut — its ragged tail runs
//! the body's lane arithmetic — because a workshared sweep cuts runs at
//! chunk boundaries and must still equal the serial one exactly.
//!
//! Runtime feature detection picks the default backend ([`active`]);
//! `SimConfig::backend` and the CLI `--backend` flag choose another
//! ([`backend_for`]).

#[cfg(test)]
pub(crate) mod array;
pub(super) mod lanes;

// The native modules are vendor intrinsics; Miri interprets portable
// Rust only, so under `cfg(miri)` they are compiled out and every
// dispatch resolves to the portable backend.
#[cfg(all(target_arch = "x86_64", not(miri)))]
pub mod avx2;
#[cfg(all(target_arch = "x86_64", not(miri)))]
pub mod avx512;
#[cfg(all(target_arch = "aarch64", not(miri)))]
pub mod neon;
pub mod portable;

use std::ops::Range;
use std::str::FromStr;
use std::sync::OnceLock;

use crate::complex::C64;
use crate::gates::matrices::{DenseMatrix, Mat2, Mat4};
use crate::kernels::fused::Block;
use crate::kernels::sweep::Steps;

/// One SIMD backend: a name, its vector width in *complex lanes*, and
/// the primitive kernels every driver is built from.
///
/// All primitives operate on contiguous runs the drivers carve out of
/// the strided sweep, so backends contain no index arithmetic — only
/// straight-line vector code.
#[derive(Debug)]
pub struct KernelBackend {
    pub name: &'static str,
    /// The per-gate walkers' vector window, in complex lanes, which
    /// `step_range` exchanges lower targets out of. `block_range` picks
    /// its own lanes (8 on `avx512`, whose `width` is still 4).
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
    /// Steps `s0..s1` of a per-gate sweep in whole vectors.
    ///
    /// # Safety
    /// The caller must hold exclusive access to every amplitude of the
    /// steps, which must lie within the buffer, laid out for `width`.
    pub step_range: unsafe fn(*mut C64, Range<usize>, &Steps),
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
    /// `out[k] = conj(u[k])·v[k]` — materialize the pair cross-products
    /// so several Pauli terms sharing a flip mask reuse one state sweep.
    pub mul_conj_into_run: fn(&[C64], &[C64], &mut [C64]),
    /// The pair cross-products of a flip whose lowest bit sits below
    /// `width`, through an exchange step.
    pub mul_conj_low: fn(&[C64], usize, Range<usize>, &mut [C64]),
    /// `Σ x` over a complex scratch run.
    pub sum_c64_run: fn(&[C64]) -> C64,
    /// Per-residue signed sums of a scratch run, mod 8.
    pub residue_sums: fn(&[C64], usize, usize, &mut [C64; 8]),
}

/// User-facing backend selection (CLI `--backend`, `SimConfig::backend`).
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

/// Every backend the host can execute, portable first and the best
/// native one last. Under Miri, which cannot execute vendor intrinsics,
/// only portable.
pub fn available() -> Vec<&'static KernelBackend> {
    #[allow(unused_mut)]
    let mut v: Vec<&'static KernelBackend> = vec![&portable::BACKEND];
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        v.push(&avx2::BACKEND);
        if is_x86_feature_detected!("avx512f") {
            v.push(&avx512::BACKEND);
        }
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    v.push(&neon::BACKEND);
    v
}

/// The best native backend the host supports, if any: the last of
/// [`available`] unless that is portable.
pub fn native() -> Option<&'static KernelBackend> {
    available().into_iter().skip(1).last()
}

/// Resolve a [`BackendChoice`] against the host.
pub fn backend_for(choice: BackendChoice) -> &'static KernelBackend {
    match choice {
        BackendChoice::Scalar => &portable::BACKEND,
        BackendChoice::Auto | BackendChoice::Simd => native().unwrap_or(&portable::BACKEND),
    }
}

/// The default backend, `backend_for(BackendChoice::Auto)`, detected
/// once per process.
pub fn active() -> &'static KernelBackend {
    static ACTIVE: OnceLock<&'static KernelBackend> = OnceLock::new();
    ACTIVE.get_or_init(|| backend_for(BackendChoice::Auto))
}

/// Full state vectors come from [`crate::align::AlignedAmps`] and are
/// always cache-line aligned; buffers shorter than this (the fusion
/// layer's matrix-build scratch) are exempt from the check.
const ALIGN_ASSERT_MIN: usize = 64;

#[inline]
pub(crate) fn debug_assert_aligned(amps: &[C64]) {
    debug_assert!(
        amps.len() < ALIGN_ASSERT_MIN || (amps.as_ptr() as usize).is_multiple_of(64),
        "state buffers must be 64-byte aligned (allocate via align::AlignedAmps)"
    );
}

/// Dense `2^k × 2^k` unitary on qubits `ts`; semantics of the reference
/// `apply_kq` in `kernels/scalar.rs` (local basis follows sorted qubit
/// order).
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
    use crate::kernels::scalar;
    use crate::state::StateVector;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EPS: f64 = 1e-12;

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
        assert!(["portable", "avx2", "avx512", "neon"].contains(&be.name), "got {}", be.name);
        assert!(be.width.is_power_of_two());
    }

    #[test]
    fn available_lists_portable_first_and_native_last() {
        let all = available();
        assert_eq!(all[0].name, "portable");
        assert_eq!(native().map(|b| b.name), all[1..].last().map(|b| b.name));
        assert_eq!(backend_for(BackendChoice::Simd).name, all.last().unwrap().name);
    }

    #[test]
    fn kq_contiguous_case_matches_scalar() {
        // Targets 0..k: the contiguous-group (row-vectorized) path.
        let mut rng = StdRng::seed_from_u64(31);
        for be in available() {
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
        for be in available() {
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
        for be in available() {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Fused k-qubit matvec equivalence for k = 2..5 on random
        /// qubit subsets and random dense matrices.
        #[test]
        fn prop_fused_kq(k in 2usize..=5, extra in 0u32..9, seed in 0u64..10_000,
                         mseed in 0u64..10_000) {
            let n = k as u32 + 1 + extra; // k < n ≤ 14
            let mut mrng = StdRng::seed_from_u64(mseed);
            let ts = rand_qubits(k, n, &mut mrng);
            let m = rand_dense(k as u32, &mut mrng);
            for be in available() {
                let mut a = rand_state(n, seed);
                let mut b = a.clone();
                scalar::apply_kq(a.amplitudes_mut(), &ts, &m);
                apply_kq(be, b.amplitudes_mut(), &ts, &m);
                prop_assert!(a.approx_eq(&b, EPS), "{} n={} ts={:?}", be.name, n, ts);
            }
        }
    }
}
