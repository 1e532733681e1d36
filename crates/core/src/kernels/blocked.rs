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
use crate::kernels::dispatch::GateKernel;
use crate::kernels::fused::PreparedFused;
use crate::kernels::simd::KernelBackend;
use crate::kernels::{for_range, AmpPtr};

/// Hand each `block`-amplitude slice of `amps` to `body`: one sweep over
/// the state, the disjoint blocks workshared across the pool if there is
/// one.
fn for_blocks(
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    block: usize,
    body: impl Fn(&mut [C64]) + Sync,
) {
    assert!(block <= amps.len(), "block larger than the state");
    let p = AmpPtr(amps.as_mut_ptr());
    for_range(pool, sched, 0..amps.len() / block, move |chunk| {
        for bi in chunk {
            // SAFETY: blocks are disjoint `block`-long slices; each
            // block index lands in exactly one chunk.
            body(unsafe { p.slice(bi * block, block) });
        }
    });
}

/// Apply a run of low-target gates block by block.
///
/// Every gate's qubits must be `< block_qubits` and the state must have at
/// least `block_qubits` qubits.
pub fn apply_blocked(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    gates: &[GateKernel],
    block_qubits: u32,
) {
    for g in gates {
        assert!(
            g.max_qubit() < block_qubits,
            "gate touches qubit {} outside a {}-qubit block",
            g.max_qubit(),
            block_qubits
        );
    }
    for_blocks(pool, sched, amps, 1usize << block_qubits, |chunk| {
        apply_block_chunk(be, chunk, gates)
    });
}

/// Apply one run of block gates to a single cache-resident chunk — the
/// unit the block loop here dispatches, serial or workshared, so every
/// path performs the identical per-amplitude arithmetic.
pub fn apply_block_chunk(be: &KernelBackend, chunk: &mut [C64], gates: &[GateKernel]) {
    for g in gates {
        g.apply(be, None, Schedule::default(), chunk);
    }
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

    /// Amplitudes per chunk (`2^block_qubits`).
    pub fn block_len(&self) -> usize {
        self.block
    }

    /// Apply the whole run to one cache-resident chunk.
    pub fn apply_chunk(&self, be: &KernelBackend, chunk: &mut [C64]) {
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
        for_blocks(pool, sched, amps, self.block, |chunk| self.apply_chunk(be, chunk));
    }
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

    fn sequential(be: &KernelBackend, amps: &mut [C64], gates: &[GateKernel]) {
        for g in gates {
            g.apply(be, None, SERIAL, amps);
        }
    }

    fn mixed_run() -> Vec<GateKernel> {
        vec![
            GateKernel::One(0, standard::h()),
            GateKernel::One(2, standard::t()),
            GateKernel::X(1),
            GateKernel::Controlled(1, 3, standard::x()),
            GateKernel::Two(3, 0, standard::iswap_mat()),
            GateKernel::Diag1(1, crate::complex::ONE, C64::exp_i(0.4)),
            GateKernel::Diag2(
                0,
                2,
                [C64::exp_i(0.1), C64::exp_i(-0.1), C64::exp_i(-0.1), C64::exp_i(0.1)],
            ),
            GateKernel::Swap(2, 3),
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
                apply_blocked(be, None, SERIAL, b.amplitudes_mut(), &gates, block_qubits);
                assert_eq!(a.max_abs_diff(&b), 0.0, "{} block_qubits={block_qubits}", be.name);
            }
        }
    }

    #[test]
    fn block_equals_full_state_width() {
        let be = simd::active();
        let gates = vec![GateKernel::One(1, standard::ry(0.3))];
        let mut a = rand_state(5, 4);
        let mut b = a.clone();
        sequential(be, a.amplitudes_mut(), &gates);
        apply_blocked(be, None, SERIAL, b.amplitudes_mut(), &gates, 5);
        assert!(a.approx_eq(&b, EPS));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn gate_above_block_rejected() {
        let mut s = rand_state(6, 5);
        let gates = [GateKernel::One(4, standard::h())];
        apply_blocked(simd::active(), None, SERIAL, s.amplitudes_mut(), &gates, 3);
    }

    #[test]
    #[should_panic(expected = "block larger")]
    fn oversize_block_rejected() {
        let mut s = rand_state(3, 6);
        apply_blocked(simd::active(), None, SERIAL, s.amplitudes_mut(), &[], 5);
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
        let gates = vec![
            GateKernel::One(0, standard::h()),
            GateKernel::One(1, standard::sx()),
            GateKernel::Two(1, 0, standard::rxx_mat(0.8)),
        ];
        let mut s = rand_state(8, 7);
        apply_blocked(simd::active(), None, SERIAL, s.amplitudes_mut(), &gates, 4);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }
}
