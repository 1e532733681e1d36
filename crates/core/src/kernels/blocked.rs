//! Cache-blocked multi-gate sweeps.
//!
//! A run of gates whose targets all lie below `block_qubits` acts
//! independently on each `2^block_qubits`-amplitude block of the state.
//! Applying the *whole run* to one block before moving to the next loads
//! every amplitude from memory once per run instead of once per gate —
//! the cache-blocking optimization state-vector simulators use when the
//! state exceeds L2.

use omp_par::{Schedule, ThreadPool};

use crate::complex::C64;
use crate::fusion::FusedOp;
use crate::gates::matrices::{Mat2, Mat4};
use crate::kernels::fused::PreparedFused;
use crate::kernels::simd::{self, KernelBackend};
use crate::kernels::AmpPtr;

/// A gate in a blocked run, restricted to the shapes that commute with
/// block decomposition (all-qubit indices below the block width).
#[derive(Debug, Clone)]
pub enum BlockGate {
    One(u32, Mat2),
    Diag1(u32, C64, C64),
    Controlled(u32, u32, Mat2),
    Two(u32, u32, Mat4),
    Swap(u32, u32),
}

impl BlockGate {
    /// Highest qubit index the gate touches.
    pub fn max_qubit(&self) -> u32 {
        match *self {
            BlockGate::One(q, _) | BlockGate::Diag1(q, ..) => q,
            BlockGate::Controlled(a, b, _) | BlockGate::Two(a, b, _) | BlockGate::Swap(a, b) => {
                a.max(b)
            }
        }
    }

    /// Apply to a (sub-)state of any power-of-two length covering the
    /// gate's qubits, sweeping with the given backend's vector kernels.
    pub fn apply(&self, be: &KernelBackend, amps: &mut [C64]) {
        match self {
            BlockGate::One(q, m) => simd::apply_1q(be, amps, *q, m),
            BlockGate::Diag1(q, d0, d1) => simd::apply_1q_diag(be, amps, *q, *d0, *d1),
            BlockGate::Controlled(c, t, m) => simd::apply_controlled_1q(be, amps, *c, *t, m),
            BlockGate::Two(h, l, m) => simd::apply_2q(be, amps, *h, *l, m),
            BlockGate::Swap(a, b) => simd::apply_swap(be, amps, *a, *b),
        }
    }
}

/// Apply a run of low-target gates block by block.
///
/// Every gate's qubits must be `< block_qubits` and the state must have at
/// least `block_qubits` qubits.
pub fn apply_blocked(be: &KernelBackend, amps: &mut [C64], gates: &[BlockGate], block_qubits: u32) {
    let block = 1usize << block_qubits;
    assert!(block <= amps.len(), "block larger than the state");
    for g in gates {
        assert!(
            g.max_qubit() < block_qubits,
            "gate touches qubit {} outside a {}-qubit block",
            g.max_qubit(),
            block_qubits
        );
    }
    for chunk in amps.chunks_exact_mut(block) {
        apply_block_chunk(be, chunk, gates);
    }
}

/// Apply one run of block gates to a single cache-resident chunk — the
/// per-cell unit both the worksharing loops here and the batched
/// (member × block) engine dispatch, so every path performs the
/// identical per-amplitude arithmetic.
pub fn apply_block_chunk(be: &KernelBackend, chunk: &mut [C64], gates: &[BlockGate]) {
    for g in gates {
        g.apply(be, chunk);
    }
}

/// Apply a run of low-target gates block by block, worksharing the
/// disjoint blocks across a thread pool.
pub fn apply_blocked_parallel(
    be: &KernelBackend,
    pool: &ThreadPool,
    sched: Schedule,
    amps: &mut [C64],
    gates: &[BlockGate],
    block_qubits: u32,
) {
    let block = 1usize << block_qubits;
    assert!(block <= amps.len(), "block larger than the state");
    for g in gates {
        assert!(
            g.max_qubit() < block_qubits,
            "gate touches qubit {} outside a {}-qubit block",
            g.max_qubit(),
            block_qubits
        );
    }
    let n_blocks = amps.len() / block;
    let p = AmpPtr(amps.as_mut_ptr());
    pool.parallel_for(0..n_blocks, sched, move |chunk| {
        for bi in chunk {
            // SAFETY: blocks are disjoint `2^block_qubits` slices; each
            // block index lands in exactly one chunk.
            let slice = unsafe { p.slice(bi * block, block) };
            apply_block_chunk(be, slice, gates);
        }
    });
}

fn prepare_fused(ops: &[FusedOp], block_qubits: u32) -> Vec<PreparedFused<'_>> {
    ops.iter()
        .map(|op| {
            assert!(
                op.qubits.iter().all(|&q| q < block_qubits),
                "fused op on qubits {:?} outside a {}-qubit block",
                op.qubits,
                block_qubits
            );
            PreparedFused::new(op)
        })
        .collect()
}

/// A run of fused ops lowered exactly once for repeated per-chunk
/// application. The batched engine prepares each plan block one time
/// and re-walks the same offset tables for every (member, block) cell,
/// which is what amortizes the gate-stream setup across the batch.
pub struct PreparedRun<'a> {
    ops: Vec<PreparedFused<'a>>,
    block: usize,
}

impl<'a> PreparedRun<'a> {
    /// Lower `ops` (all on qubits below `block_qubits`) for per-chunk
    /// application.
    pub fn new(ops: &'a [FusedOp], block_qubits: u32) -> PreparedRun<'a> {
        PreparedRun { ops: prepare_fused(ops, block_qubits), block: 1usize << block_qubits }
    }

    /// Amplitudes per chunk (`2^block_qubits`).
    pub fn block_len(&self) -> usize {
        self.block
    }

    /// Apply the whole run to one cache-resident chunk.
    pub fn apply_chunk(&self, be: &KernelBackend, chunk: &mut [C64]) {
        debug_assert_eq!(chunk.len(), self.block);
        for op in &self.ops {
            op.apply(be, chunk);
        }
    }

    /// Apply the run block by block: one full-state sweep.
    pub fn apply(&self, be: &KernelBackend, amps: &mut [C64]) {
        assert!(self.block <= amps.len(), "block larger than the state");
        for chunk in amps.chunks_exact_mut(self.block) {
            self.apply_chunk(be, chunk);
        }
    }

    /// Parallel twin of [`apply`](PreparedRun::apply): blocks are
    /// disjoint slices, workshared across the pool.
    pub fn apply_parallel(
        &self,
        be: &KernelBackend,
        pool: &ThreadPool,
        sched: Schedule,
        amps: &mut [C64],
    ) {
        let block = self.block;
        assert!(block <= amps.len(), "block larger than the state");
        let n_blocks = amps.len() / block;
        let p = AmpPtr(amps.as_mut_ptr());
        pool.parallel_for(0..n_blocks, sched, move |chunk| {
            for bi in chunk {
                // SAFETY: blocks are disjoint `2^block_qubits` slices; each
                // block index lands in exactly one chunk.
                let slice = unsafe { p.slice(bi * block, block) };
                self.apply_chunk(be, slice);
            }
        });
    }
}

/// Apply a run of fused ops (all on qubits below `block_qubits`) block by
/// block: one full-state sweep for the whole run.
pub fn apply_blocked_fused(
    be: &KernelBackend,
    amps: &mut [C64],
    ops: &[FusedOp],
    block_qubits: u32,
) {
    PreparedRun::new(ops, block_qubits).apply(be, amps);
}

/// Memory sweeps saved by blocking a run of `n_gates` gates into one
/// block pass: the per-gate sweep count drops from `n_gates` to 1.
pub fn sweeps_saved(n_gates: usize) -> usize {
    n_gates.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::standard;
    use crate::kernels::scalar;
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-12;

    fn rand_state(n: u32, seed: u64) -> StateVector {
        let mut rng = StdRng::seed_from_u64(seed);
        StateVector::random(n, &mut rng)
    }

    /// Both the portable backend and (when present) the native one.
    fn backends() -> Vec<&'static KernelBackend> {
        let mut v: Vec<&'static KernelBackend> =
            vec![simd::backend_for(simd::BackendChoice::Scalar)];
        if let Some(b) = simd::native() {
            v.push(b);
        }
        v
    }

    fn sequential(be: &KernelBackend, amps: &mut [C64], gates: &[BlockGate]) {
        for g in gates {
            g.apply(be, amps);
        }
    }

    #[test]
    fn blocked_matches_sequential() {
        let gates = vec![
            BlockGate::One(0, standard::h()),
            BlockGate::One(2, standard::t()),
            BlockGate::Controlled(1, 3, standard::x()),
            BlockGate::Two(3, 0, standard::iswap_mat()),
            BlockGate::Diag1(1, crate::complex::ONE, C64::exp_i(0.4)),
            BlockGate::Swap(2, 3),
        ];
        for be in backends() {
            for block_qubits in [4u32, 5, 8] {
                let mut a = rand_state(10, 3);
                let mut b = a.clone();
                sequential(be, a.amplitudes_mut(), &gates);
                apply_blocked(be, b.amplitudes_mut(), &gates, block_qubits);
                assert!(a.approx_eq(&b, EPS), "{} block_qubits={block_qubits}", be.name);
            }
        }
    }

    #[test]
    fn block_equals_full_state_width() {
        let be = simd::active();
        let gates = vec![BlockGate::One(1, standard::ry(0.3))];
        let mut a = rand_state(5, 4);
        let mut b = a.clone();
        sequential(be, a.amplitudes_mut(), &gates);
        apply_blocked(be, b.amplitudes_mut(), &gates, 5);
        assert!(a.approx_eq(&b, EPS));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn gate_above_block_rejected() {
        let mut s = rand_state(6, 5);
        apply_blocked(simd::active(), s.amplitudes_mut(), &[BlockGate::One(4, standard::h())], 3);
    }

    #[test]
    #[should_panic(expected = "block larger")]
    fn oversize_block_rejected() {
        let mut s = rand_state(3, 6);
        apply_blocked(simd::active(), s.amplitudes_mut(), &[], 5);
    }

    #[test]
    fn sweeps_saved_counts() {
        assert_eq!(sweeps_saved(0), 0);
        assert_eq!(sweeps_saved(1), 0);
        assert_eq!(sweeps_saved(7), 6);
    }

    #[test]
    fn blocked_fused_matches_direct_kq() {
        use crate::fusion::fuse;
        use crate::library;
        for be in backends() {
            for seed in 0..3u64 {
                let c = library::random_circuit(4, 30, seed);
                let ops = fuse(&c, 3);
                for block_qubits in [4u32, 5, 7] {
                    let mut a = rand_state(9, seed + 20);
                    let mut b = a.clone();
                    for op in &ops {
                        scalar::apply_kq(a.amplitudes_mut(), &op.qubits, &op.matrix);
                    }
                    apply_blocked_fused(be, b.amplitudes_mut(), &ops, block_qubits);
                    assert!(a.approx_eq(&b, EPS), "{} seed={seed} block={block_qubits}", be.name);
                }
            }
        }
    }

    #[test]
    fn blocked_fused_parallel_matches_serial() {
        use crate::fusion::fuse;
        use crate::library;
        let be = simd::active();
        let c = library::random_circuit(5, 40, 11);
        let ops = fuse(&c, 3);
        for threads in [1usize, 3, 8] {
            let pool = ThreadPool::new(threads);
            for sched in [Schedule::default_static(), Schedule::Dynamic { chunk: 2 }] {
                let mut a = rand_state(10, 31);
                let mut b = a.clone();
                apply_blocked_fused(be, a.amplitudes_mut(), &ops, 5);
                PreparedRun::new(&ops, 5).apply_parallel(be, &pool, sched, b.amplitudes_mut());
                assert!(a.approx_eq(&b, EPS), "threads={threads}");
            }
        }
    }

    #[test]
    fn blocked_parallel_matches_serial() {
        let be = simd::active();
        let gates = vec![
            BlockGate::One(0, standard::h()),
            BlockGate::Controlled(1, 3, standard::x()),
            BlockGate::Two(3, 0, standard::iswap_mat()),
            BlockGate::Swap(2, 3),
        ];
        for threads in [1usize, 3, 8] {
            let pool = ThreadPool::new(threads);
            let mut a = rand_state(10, 13);
            let mut b = a.clone();
            apply_blocked(be, a.amplitudes_mut(), &gates, 4);
            apply_blocked_parallel(
                be,
                &pool,
                Schedule::default_static(),
                b.amplitudes_mut(),
                &gates,
                4,
            );
            assert!(a.approx_eq(&b, EPS), "threads={threads}");
        }
    }

    #[test]
    fn norm_preserved() {
        let gates = vec![
            BlockGate::One(0, standard::h()),
            BlockGate::One(1, standard::sx()),
            BlockGate::Two(1, 0, standard::rxx_mat(0.8)),
        ];
        let mut s = rand_state(8, 7);
        apply_blocked(simd::active(), s.amplitudes_mut(), &gates, 4);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }
}
