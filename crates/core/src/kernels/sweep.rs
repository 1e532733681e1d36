//! The per-gate sweeps: one walker, two ways through the state.
//!
//! A gate kernel visits the state in groups of `2^k` amplitudes that
//! differ only in its `k ≤ 2` target bits, handed over in local basis
//! order (bit 0 is the target of a 1-qubit shape, or `l` of a 2-qubit
//! shape's `|h l⟩`; bit 1 is `h`). The group index→amplitude mapping is
//! injective (proved by the partition tests in
//! [`crate::kernels::index`]), so disjoint index ranges write disjoint
//! amplitudes and the walker may hand any split of its range to
//! different threads; `AmpPtr` carries that proof obligation past the
//! borrow checker. What a gate does to a group is a [`LaneOp`].
//!
//! Where the lowest target's runs are long, the walker cuts the groups
//! into contiguous runs and sweeps each with the [`KernelBackend`]'s run
//! primitives; a chunk may start or end inside a run. Where they are
//! short — below the vector window included — it hands whole steps to
//! the backend's `step_range` ([`Steps`]): each step loads whole
//! vectors, exchanges any target below the window out of the lanes in
//! registers, runs the lane arithmetic the run primitive would, and
//! exchanges back. Every qubit position thus meets the same arithmetic
//! — a gate gets the same bits on qubit 0 as on qubit 20 after a relabel
//! — at vector speed.
//!
//! Every function takes the optional pool: without one the walker runs
//! its whole range inline on the caller, as one chunk
//! (`for_range`). A serial sweep *is* the workshared sweep with one
//! chunk, so the two cannot disagree on which arithmetic an amplitude
//! meets — only on which thread performs it.

use omp_par::{Schedule, ThreadPool};

use crate::complex::{C64, ONE};
use crate::gates::matrices::{Mat2, Mat4};
use crate::kernels::index::{insert_zero_bits, spread_bits};
use crate::kernels::simd::{debug_assert_aligned, KernelBackend};
use crate::kernels::{for_range, AmpPtr, MAX_WIDTH};

/// What a gate does to a group's amplitudes — vector `i` of a step, or
/// run `i` — in local basis order.
#[derive(Debug, Clone, Copy)]
pub enum LaneOp<'a> {
    /// `(a, b) ← m·(a, b)` on local indices `[a, b]`: `pairs_1q`.
    Mix2(&'a Mat2, [usize; 2]),
    /// `v ← m·v` over all four: `quads_2q`.
    Mix4(&'a Mat4),
    /// Index `i` times `d[i]`, skipped where `d[i]` is exactly 1: `scale_run`.
    Scale([C64; 4]),
    /// Exchange local indices `[a, b]`: `swap_runs`.
    Swap([usize; 2]),
}

/// The step layout of a sweep: its [`LaneOp`] and where a step's `2^k`
/// vectors of `W` contiguous amplitudes lie. Vector `i` sits at
/// `offsets[i]` from the step's base: local bit `j` moves it by target
/// `j`'s own bit, or — for a target below the window — by its
/// *stand-in*, one of the lowest bits at or above the window that no
/// target uses, whose which-vector bit one `Lanes::exchange` trades for
/// the target's lane bit, as in the block kernel. A step spans the lane
/// bits and the `upper` bits.
#[derive(Debug, Clone, Copy)]
pub struct Steps<'a> {
    pub(crate) op: LaneOp<'a>,
    /// Targets by local bit, and how many.
    pub(crate) targets: [u32; 2],
    pub(crate) k: usize,
    pub(crate) lane_bits: u32,
    /// The step's address bits at or above the window, ascending.
    upper: [u32; 2],
    pub(crate) offsets: [usize; 4],
    /// The vectors a step loads and stores: those holding a changed lane.
    pub(crate) live: u8,
}

impl<'a> Steps<'a> {
    fn new(targets: &[u32], width: usize, op: LaneOp<'a>) -> Steps<'a> {
        let (lane_bits, k) = (width.trailing_zeros(), targets.len());
        let mut stand_ins = (lane_bits..).filter(|b| !targets.contains(b));
        let (mut t, mut upper, mut low) = ([0; 2], [0; 2], 0);
        for (j, &q) in targets.iter().enumerate() {
            let bit = if q < lane_bits { stand_ins.next().expect("bits never run out") } else { q };
            (t[j], upper[j], low) = (q, bit, low | usize::from(q < lane_bits) << j);
        }
        let offsets = [0, 1, 2, 3].map(|i| spread_bits(i, &upper[..k]));
        upper[..k].sort_unstable();
        // A loaded vector holds every low-target pattern of its family.
        let active = match op {
            LaneOp::Mix2(_, [a, b]) | LaneOp::Swap([a, b]) => (1 << a) | (1 << b),
            LaneOp::Mix4(_) => 0b1111,
            LaneOp::Scale(d) => (0..1 << k).filter(|&i| d[i] != ONE).map(|i| 1 << i).sum(),
        };
        let live = (0..1usize << k)
            .filter(|&i| (0..1 << k).any(|a| active >> a & 1 == 1 && (a ^ i) & !low == 0))
            .map(|i| 1 << i)
            .sum();
        Steps { op, targets: t, k, lane_bits, upper, offsets, live }
    }

    /// Amplitude index of step `s`'s base.
    #[inline(always)]
    pub(crate) fn base(&self, s: usize) -> usize {
        insert_zero_bits(s << self.lane_bits, &self.upper[..self.k])
    }
}

/// Runs shorter than this many vectors go through steps.
const STEP_RUNS: usize = 4;

/// Sweep `op` over the groups of `targets` (by local bit).
fn sweep(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    targets: &[u32],
    op: LaneOp,
) {
    debug_assert_aligned(amps);
    debug_assert!(targets.iter().all(|&t| 1 << t < amps.len()));
    let p = AmpPtr(amps.as_mut_ptr());
    let lo = *targets.iter().min().expect("a gate has a target");
    // A permutation streams runs as plain moves; only the window needs steps.
    let step_runs = if matches!(op, LaneOp::Swap(_)) { 1 } else { STEP_RUNS };
    if 1 << lo < step_runs * be.width {
        let steps = Steps::new(targets, be.width, op);
        let span = 2 << steps.upper[steps.k - 1];
        if amps.len() < span {
            // Shorter than one step: run it on a zero-padded copy.
            let mut padded = [C64::default(); 4 * MAX_WIDTH];
            padded[..amps.len()].copy_from_slice(amps);
            // SAFETY: the one step lies inside `padded`.
            unsafe { (be.step_range)(padded.as_mut_ptr(), 0..1, &steps) };
            return amps.copy_from_slice(&padded[..amps.len()]);
        }
        let n_steps = amps.len() >> (steps.lane_bits as usize + steps.k);
        // SAFETY: steps partition the index space; disjoint chunks touch
        // disjoint amplitudes.
        return for_range(pool, sched, 0..n_steps, move |chunk| unsafe {
            (be.step_range)(p.base(), chunk, &steps)
        });
    }
    let mut sorted = [0; 2];
    sorted[..targets.len()].copy_from_slice(targets);
    sorted[..targets.len()].sort_unstable();
    let runlen = 1usize << lo;
    for_range(pool, sched, 0..amps.len() >> targets.len(), move |chunk| {
        // Group index bits below lo pass through insert_zero_bits
        // unchanged, so maximal runs stay contiguous in memory.
        let mut i = chunk.start;
        while i < chunk.end {
            let run = (runlen - (i & (runlen - 1))).min(chunk.end - i);
            let base = insert_zero_bits(i, &sorted[..targets.len()]);
            // SAFETY: the runs of a group differ in target bits ≥ lo, and
            // disjoint chunks yield disjoint runs; a 1-qubit group's last
            // two are empty.
            let runs = [0, 1, 2, 3].map(|l| match l >> targets.len() {
                0 => unsafe { p.slice(base | spread_bits(l, targets), run) },
                _ => &mut [],
            });
            run_op(be, &op, runs);
            i += run;
        }
    });
}

/// `op` on one group of runs, through the backend's run primitives.
fn run_op(be: &KernelBackend, op: &LaneOp, [a0, a1, a2, a3]: [&mut [C64]; 4]) {
    match *op {
        LaneOp::Mix2(m, [0, 1]) => (be.pairs_1q)(a0, a1, m),
        LaneOp::Mix2(m, _) => (be.pairs_1q)(a2, a3, m),
        LaneOp::Mix4(m) => (be.quads_2q)(a0, a1, a2, a3, m),
        LaneOp::Scale(d) => {
            for (run, e) in [a0, a1, a2, a3].into_iter().zip(d).filter(|(_, e)| *e != ONE) {
                (be.scale_run)(run, e);
            }
        }
        LaneOp::Swap([0, 1]) => (be.swap_runs)(a0, a1),
        LaneOp::Swap(_) => (be.swap_runs)(a1, a2),
    }
}

/// Dense 2×2 unitary on target `t`.
pub fn apply_1q(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    t: u32,
    m: &Mat2,
) {
    sweep(be, pool, sched, amps, &[t], LaneOp::Mix2(m, [0, 1]));
}

/// Diagonal 1-qubit gate `diag(d0, d1)` on target `t`: a streaming
/// multiply, no mixing. A half whose entry is exactly 1 is left alone,
/// so a rank-specialised controlled phase costs half a sweep.
pub fn apply_1q_diag(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    t: u32,
    d0: C64,
    d1: C64,
) {
    sweep(be, pool, sched, amps, &[t], LaneOp::Scale([d0, d1, ONE, ONE]));
}

/// Pauli-X on target `t`: exchange the paired halves, no flops.
pub fn apply_x(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    t: u32,
) {
    sweep(be, pool, sched, amps, &[t], LaneOp::Swap([0, 1]));
}

/// Dense 2×2 unitary on target `t` within the control-set half: the
/// `|c t⟩ = 10, 11` amplitudes of each quad.
pub fn apply_controlled_1q(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    c: u32,
    t: u32,
    m: &Mat2,
) {
    sweep(be, pool, sched, amps, &[t, c], LaneOp::Mix2(m, [2, 3]));
}

/// Diagonal 2-qubit gate `diag(d)` in `|h l⟩` order: a streaming
/// multiply. An entry of exactly 1 is left alone — the product would be
/// the amplitude itself — so a controlled phase sweeps only its `11`
/// quarter. The multiply is the plain complex product whatever the
/// stride, which is what lets the distributed engine apply the entries
/// of a rank-constant qubit on its own and still match a serial run to
/// the bit.
pub fn apply_2q_diag(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    h: u32,
    l: u32,
    d: [C64; 4],
) {
    sweep(be, pool, sched, amps, &[l, h], LaneOp::Scale(d));
}

/// Dense 4×4 unitary on (high `h`, low `l`).
pub fn apply_2q(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    h: u32,
    l: u32,
    m: &Mat4,
) {
    sweep(be, pool, sched, amps, &[l, h], LaneOp::Mix4(m));
}

/// SWAP two qubits: exchange the mismatched (`01`, `10`) amplitudes.
///
/// Also the execution kernel for the planner's axis-relabeling sweeps
/// ([`crate::plan::PlanOp::SwapAxes`]): a pure permutation, no flops.
pub fn apply_swap(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    a: u32,
    b: u32,
) {
    sweep(be, pool, sched, amps, &[b, a], LaneOp::Swap([1, 2]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::standard;
    use crate::kernels::dispatch::GateKernel;
    use crate::kernels::simd::{self, array};
    use crate::state::StateVector;
    use omp_par::ThreadPool;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shapes(n: u32) -> Vec<GateKernel> {
        let (u, e) = (standard::u3(0.3, 1.0, -0.5), C64::exp_i(0.31));
        let d = [C64::exp_i(0.3), C64::exp_i(-0.1), C64::exp_i(1.2), C64::exp_i(0.8)];
        let m4 = standard::iswap_mat().mul(&standard::rxx_mat(0.4));
        let mut kernels = Vec::new();
        for t in 0..n {
            kernels.extend([
                GateKernel::One(t, u),
                GateKernel::Diag1(t, e, C64::exp_i(-1.27)),
                GateKernel::Diag1(t, ONE, e),
                GateKernel::X(t),
            ]);
            for b in (0..n).filter(|&b| b != t) {
                kernels.extend([
                    GateKernel::Controlled(t, b, standard::ry(0.7)),
                    GateKernel::Diag2(t, b, d),
                    GateKernel::Diag2(t, b, [ONE, ONE, ONE, d[3]]),
                    GateKernel::Two(t, b, m4),
                    GateKernel::Swap(t, b),
                ]);
            }
        }
        kernels
    }

    fn bits(s: &StateVector) -> Vec<(u64, u64)> {
        s.amplitudes().iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
    }

    #[test]
    fn array_lanes_give_the_portable_bits_at_every_placement() {
        // Each array lane runs portable's arithmetic, so any difference is
        // an amplitude the walkers or exchange steps put in the wrong
        // place. Chunks of one step cut the sweep at every step boundary.
        let portable = simd::backend_for(simd::BackendChoice::Scalar);
        let pool = (!cfg!(miri)).then(|| ThreadPool::new(3));
        let sched = Schedule::Dynamic { chunk: 1 };
        let top = if cfg!(miri) { 4 } else { 9 };
        for n in 1..=top {
            let start = StateVector::random(n, &mut StdRng::seed_from_u64(n as u64));
            for kernel in shapes(n) {
                let mut want = start.clone();
                kernel.apply(portable, None, sched, want.amplitudes_mut());
                for be in array::backends() {
                    for pool in [None, pool.as_ref()] {
                        let mut got = start.clone();
                        kernel.apply(be, pool, sched, got.amplitudes_mut());
                        let pooled = pool.is_some();
                        assert!(
                            bits(&got) == bits(&want),
                            "{} n={n} {kernel:?} pooled={pooled}",
                            be.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_low_target_gets_the_bits_of_a_high_one_after_a_relabel() {
        // Reversing the qubit order is a pure permutation, so a gate on
        // the reversed labels, reversed back, must give the same bits:
        // every low placement is checked against a high one.
        let n = if cfg!(miri) { 6 } else { 8 };
        let reverse = |s: &mut StateVector| {
            for q in 0..n / 2 {
                crate::kernels::scalar::apply_swap(s.amplitudes_mut(), q, n - 1 - q);
            }
        };
        let flip = |q: u32| n - 1 - q;
        let start = StateVector::random(n, &mut StdRng::seed_from_u64(3));
        let mut backends = simd::available();
        backends.extend(array::backends());
        for be in backends {
            for kernel in shapes(n) {
                let relabelled = match kernel {
                    GateKernel::One(t, m) => GateKernel::One(flip(t), m),
                    GateKernel::Diag1(t, a, b) => GateKernel::Diag1(flip(t), a, b),
                    GateKernel::X(t) => GateKernel::X(flip(t)),
                    GateKernel::Controlled(c, t, m) => GateKernel::Controlled(flip(c), flip(t), m),
                    GateKernel::Diag2(h, l, d) => GateKernel::Diag2(flip(h), flip(l), d),
                    GateKernel::Two(h, l, m) => GateKernel::Two(flip(h), flip(l), m),
                    GateKernel::Swap(a, b) => GateKernel::Swap(flip(a), flip(b)),
                    _ => unreachable!(),
                };
                let mut want = start.clone();
                kernel.apply(be, None, Schedule::default(), want.amplitudes_mut());
                let mut got = start.clone();
                reverse(&mut got);
                relabelled.apply(be, None, Schedule::default(), got.amplitudes_mut());
                reverse(&mut got);
                assert!(bits(&got) == bits(&want), "{} {kernel:?}", be.name);
            }
        }
    }

    #[test]
    fn a_unit_diagonal_half_keeps_its_bits() {
        // `amp·1` would turn a -0.0 part into +0.0; the unit half is
        // never multiplied, below the window or above it.
        let n = 5u32;
        let mut start = StateVector::zero(n);
        for (i, a) in start.amplitudes_mut().iter_mut().enumerate() {
            *a = [C64::new(-0.0, 0.5), C64::new(0.25, -0.0), C64::new(-0.0, -0.0)][i % 3];
        }
        let e = C64::exp_i(0.7);
        let mut backends = simd::available();
        backends.extend(array::backends());
        for be in backends {
            for t in 0..n {
                for (d0, d1) in [(ONE, e), (e, ONE)] {
                    let mut s = start.clone();
                    apply_1q_diag(be, None, Schedule::default(), s.amplitudes_mut(), t, d0, d1);
                    for (i, (a, b)) in bits(&s).iter().zip(bits(&start)).enumerate() {
                        let unit = if (i >> t) & 1 == 0 { d0 } else { d1 };
                        if unit == ONE {
                            assert_eq!(*a, b, "{} t={t} amplitude {i}", be.name);
                        }
                    }
                }
            }
        }
    }
}
