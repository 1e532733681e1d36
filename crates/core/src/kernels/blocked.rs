//! Cache-blocked multi-op sweeps: the one block engine.
//!
//! A run of ops whose targets all lie below `block_qubits` acts
//! independently on each `2^block_qubits`-amplitude block of the state.
//! Applying the *whole run* to one block before moving to the next loads
//! every amplitude from memory once per run instead of once per op —
//! the cache-blocking optimization state-vector simulators use when the
//! state exceeds L2. [`PreparedRun`] executes both block lowerings: the
//! planner's in-block fused ops, and a `blocked` run of gate-backed
//! singletons (`FusedOp::of_gate`), each member through its gate's
//! own kernel. A distributed rank walks its shard through the same
//! [`for_blocks`] in [`TILE_QUBITS`]-wide tiles, each kernel pinned to
//! the tile's bits ([`GateKernel::pin`](crate::kernels::dispatch::GateKernel::pin)).

use omp_par::{Schedule, ThreadPool};

use crate::complex::C64;
use crate::fusion::FusedOp;
use crate::kernels::fused::PreparedFused;
use crate::kernels::simd::KernelBackend;
use crate::kernels::{for_range, AmpPtr};

/// Width of the tiles a distributed rank sweeps its comm-free runs in:
/// `2^14` amplitudes, 256 KiB, inside any core's share of L2 (A64FX:
/// 8 MiB per 12 cores). `dist-qft22-r2`'s rank runs read within 4 % of
/// one another at widths 12 to 16 on a 2-core AVX-512F x86 host with
/// 2 MiB of L2 per core, and 13 % slower at 18.
pub const TILE_QUBITS: u32 = 14;

/// Hand each `block`-amplitude slice of `amps` to `body`, with the index
/// of its first amplitude: one sweep over the state, the disjoint blocks
/// workshared across the pool if there is one.
pub fn for_blocks(
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    block: usize,
    body: impl Fn(usize, &mut [C64]) + Sync,
) {
    assert!(block <= amps.len(), "block larger than the state");
    let p = AmpPtr(amps.as_mut_ptr());
    for_range(pool, sched, 0..amps.len() / block, move |chunk| {
        for bi in chunk {
            // SAFETY: blocks are disjoint `block`-long slices; each
            // block index lands in exactly one chunk.
            body(bi * block, unsafe { p.slice(bi * block, block) });
        }
    });
}

/// A run of fused ops lowered exactly once for repeated per-chunk
/// application: every chunk, serial or workshared, runs the identical
/// per-amplitude arithmetic, and a batch re-walks the same offset
/// tables for every member.
pub struct PreparedRun<'a> {
    ops: Vec<PreparedFused<'a>>,
    block: usize,
}

impl<'a> PreparedRun<'a> {
    /// Lower `ops` (all on qubits below `block_qubits`) for per-chunk
    /// application.
    pub fn new(ops: &'a [FusedOp], block_qubits: u32) -> PreparedRun<'a> {
        let ops = ops
            .iter()
            .map(|op| {
                assert!(
                    op.qubits.iter().all(|&q| q < block_qubits),
                    "fused op on qubits {:?} outside a {}-qubit block",
                    op.qubits,
                    block_qubits
                );
                PreparedFused::new(op)
            })
            .collect();
        PreparedRun { ops, block: 1usize << block_qubits }
    }

    /// Apply the whole run to one cache-resident chunk.
    fn apply_chunk(&self, be: &KernelBackend, chunk: &mut [C64]) {
        debug_assert_eq!(chunk.len(), self.block);
        for op in &self.ops {
            op.apply(be, None, Schedule::default(), chunk);
        }
    }

    /// Apply the run block by block: one full-state sweep.
    pub fn apply(
        &self,
        be: &KernelBackend,
        pool: Option<&ThreadPool>,
        sched: Schedule,
        amps: &mut [C64],
    ) {
        for_blocks(pool, sched, amps, self.block, |_, chunk| self.apply_chunk(be, chunk));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Gate;
    use crate::gates::standard;
    use crate::kernels::dispatch::GateKernel;
    use crate::kernels::{scalar, simd};
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-12;
    const SERIAL: Schedule = Schedule::Static { chunk: None };

    fn rand_state(n: u32, seed: u64) -> StateVector {
        let mut rng = StdRng::seed_from_u64(seed);
        StateVector::random(n, &mut rng)
    }

    fn sequential(be: &KernelBackend, amps: &mut [C64], gates: &[Gate]) {
        for g in gates {
            GateKernel::from(g).apply(be, None, SERIAL, amps);
        }
    }

    /// `gates` as one block pass of singletons, the `blocked` lowering.
    fn blocked(be: &KernelBackend, amps: &mut [C64], gates: &[Gate], block_qubits: u32) {
        let ops: Vec<FusedOp> = gates.iter().map(FusedOp::of_gate).collect();
        PreparedRun::new(&ops, block_qubits).apply(be, None, SERIAL, amps);
    }

    /// One gate per kernel shape below the 3-qubit permutations: dense
    /// 1q (twice), X, controlled, dense 2q, 1q and 2q diagonal, swap.
    fn mixed_run() -> Vec<Gate> {
        vec![
            Gate::H(0),
            Gate::Unitary1(2, standard::t()),
            Gate::X(1),
            Gate::Cx(1, 3),
            Gate::ISwap(3, 0),
            Gate::Phase(1, 0.4),
            Gate::Rzz(0, 2, -0.2),
            Gate::Swap(2, 3),
        ]
    }

    #[test]
    fn blocked_matches_sequential() {
        let gates = mixed_run();
        for be in simd::available() {
            for block_qubits in [4u32, 5, 8] {
                let mut a = rand_state(10, 3);
                let mut b = a.clone();
                sequential(be, a.amplitudes_mut(), &gates);
                blocked(be, b.amplitudes_mut(), &gates, block_qubits);
                assert_eq!(a.max_abs_diff(&b), 0.0, "{} block_qubits={block_qubits}", be.name);
            }
        }
    }

    #[test]
    fn block_equals_full_state_width() {
        let be = simd::active();
        let gates = [Gate::Ry(1, 0.3)];
        let mut a = rand_state(5, 4);
        let mut b = a.clone();
        sequential(be, a.amplitudes_mut(), &gates);
        blocked(be, b.amplitudes_mut(), &gates, 5);
        assert!(a.approx_eq(&b, EPS));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn gate_above_block_rejected() {
        let mut s = rand_state(6, 5);
        blocked(simd::active(), s.amplitudes_mut(), &[Gate::H(4)], 3);
    }

    #[test]
    #[should_panic(expected = "block larger")]
    fn oversize_block_rejected() {
        let mut s = rand_state(3, 6);
        blocked(simd::active(), s.amplitudes_mut(), &[], 5);
    }

    #[test]
    fn blocked_fused_matches_direct_kq() {
        use crate::fusion::fuse;
        use crate::library;
        for be in simd::available() {
            for seed in 0..3u64 {
                let c = library::random_circuit(4, 30, seed);
                let ops = fuse(&c, 3);
                for block_qubits in [4u32, 5, 7] {
                    let mut a = rand_state(9, seed + 20);
                    let mut b = a.clone();
                    for op in &ops {
                        scalar::apply_kq(a.amplitudes_mut(), &op.qubits, &op.matrix);
                    }
                    PreparedRun::new(&ops, block_qubits).apply(
                        be,
                        None,
                        SERIAL,
                        b.amplitudes_mut(),
                    );
                    assert!(a.approx_eq(&b, EPS), "{} seed={seed} block={block_qubits}", be.name);
                }
            }
        }
    }

    #[test]
    fn norm_preserved() {
        let gates = [Gate::H(0), Gate::Sx(1), Gate::Rxx(1, 0, 0.8)];
        let mut s = rand_state(8, 7);
        blocked(simd::active(), s.amplitudes_mut(), &gates, 4);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }
}
