//! Cache-blocked runs: the one tiled runner, [`run_tiled`], for serial
//! `blocked`/`planned` passes, a distributed rank's comm-free runs and
//! the calibration's probe. It applies a whole run of kernels to one
//! `2^w`-amplitude tile before the next, so each amplitude leaves memory
//! once per run, not once per kernel (cache blocking, for states beyond
//! L2). [`GateKernel::pin`] fixes a gate's high bits to its tile's, with
//! the product the full kernel applies, so the bits do not change.

use omp_par::{Schedule, ThreadPool};

use crate::complex::C64;
use crate::kernels::dispatch::GateKernel;
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
fn for_blocks(
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

/// One member of a tiled run: a gate's kernel, pinned per tile, or a
/// fused block whose qubits all lie below the run's width.
pub enum Member<'a> {
    Gate(GateKernel),
    Fused(PreparedFused<'a>),
}

impl Member<'_> {
    /// Whether the member acts within every `2^w`-amplitude tile.
    pub fn pins(&self, w: u32) -> bool {
        match self {
            Member::Gate(k) => k.pin(w, 0).is_some(),
            Member::Fused(op) => op.qubits().iter().all(|&q| q < w),
        }
    }

    /// One sweep of the member over all of `amps`: workshared across
    /// `pool`, or inline on the caller without one.
    pub fn apply(
        &self,
        be: &KernelBackend,
        pool: Option<&ThreadPool>,
        sched: Schedule,
        amps: &mut [C64],
    ) {
        match self {
            Member::Gate(k) => k.apply(be, pool, sched, amps),
            Member::Fused(op) => op.apply(be, pool, sched, amps),
        }
    }
}

/// Sweep `run` over `amps`: a lone member over the whole slice, more
/// tile by tile — the whole run on one `2^w`-amplitude tile before the
/// next, tiles workshared across `pool`, each gate pinned to its tile's
/// bits, and a tile every member pins to nothing left untouched.
///
/// Panics if `w` is 0 or a member does not act within a `2^w` tile.
pub fn run_tiled<'m, 'a: 'm>(
    be: &KernelBackend,
    pool: Option<&ThreadPool>,
    sched: Schedule,
    amps: &mut [C64],
    w: u32,
    run: impl Iterator<Item = &'m Member<'a>> + Clone + Sync,
) {
    assert!(w >= 1, "a tile needs at least one qubit");
    assert!(run.clone().all(|m| m.pins(w)), "member outside a {w}-qubit tile");
    if run.clone().nth(1).is_none() {
        return run.for_each(|m| m.apply(be, pool, sched, amps));
    }
    for_blocks(pool, sched, amps, 1 << w, |base, tile| {
        for member in run.clone() {
            match member {
                Member::Gate(k) => {
                    if let Some(k) = k.pin(w, base).flatten() {
                        k.apply(be, None, Schedule::default(), tile);
                    }
                }
                Member::Fused(op) => op.apply(be, None, Schedule::default(), tile),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, Gate};
    use crate::fusion::{fuse, FusedOp};
    use crate::gates::standard;
    use crate::kernels::simd;
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: u32 = 7;

    fn rand_state(seed: u64) -> StateVector {
        StateVector::random(N, &mut StdRng::seed_from_u64(seed))
    }

    /// A dense 2-qubit block on qubits {0, 1}: H·CX merged, so it runs
    /// the block kernel, not a gate's.
    fn dense_block() -> FusedOp {
        let mut c = Circuit::new(N);
        c.h(0).cx(0, 1);
        let mut ops = fuse(&c, 2);
        assert_eq!((ops.len(), ops[0].gate.is_none()), (1, true));
        ops.remove(0)
    }

    /// Gates whose kernels pin at width 3: all low; diagonals with one
    /// or both qubits high; a controlled gate with a high control.
    fn pinned_gates() -> Vec<Gate> {
        vec![
            Gate::H(2),
            Gate::CPhase(6, 1, 0.7),
            Gate::Rz(5, -0.4),
            Gate::Rzz(4, 6, 1.1),
            Gate::Cz(0, 3),
            Gate::Unitary1(1, standard::t()),
            Gate::Cx(5, 0),
            Gate::ISwap(2, 0),
        ]
    }

    fn bits(s: &StateVector) -> Vec<(u64, u64)> {
        s.amplitudes().iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
    }

    fn gates(gates: &[Gate]) -> Vec<Member<'static>> {
        gates.iter().map(|g| Member::Gate(GateKernel::from(g))).collect()
    }

    /// `run` at width `w`, pool-less on the active backend, over a
    /// seeded random state.
    fn tiled(run: &[Member], w: u32, seed: u64) -> StateVector {
        let mut s = rand_state(seed);
        run_tiled(simd::active(), None, Schedule::default(), s.amplitudes_mut(), w, run.iter());
        s
    }

    #[test]
    fn a_tiled_run_has_the_bits_of_its_members_swept_in_turn() {
        let block = dense_block();
        let mut run = gates(&pinned_gates());
        run.insert(3, Member::Fused(PreparedFused::new(&block)));
        for be in [simd::active()].into_iter().chain(simd::array::backends()) {
            let start = rand_state(3);
            let mut want = start.clone();
            for m in &run {
                m.apply(be, None, Schedule::default(), want.amplitudes_mut());
            }
            for w in 3..=N {
                let mut got = start.clone();
                run_tiled(be, None, Schedule::default(), got.amplitudes_mut(), w, run.iter());
                assert_eq!(bits(&got), bits(&want), "{} w={w}", be.name);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns worker threads; covered serially above
    fn a_pooled_run_has_the_bits_of_a_pool_less_one() {
        let pool = ThreadPool::new(2);
        let block = dense_block();
        let mut run = gates(&pinned_gates());
        run.push(Member::Fused(PreparedFused::new(&block)));
        let mut shared = rand_state(4);
        let sched = Schedule::Dynamic { chunk: 3 };
        run_tiled(simd::active(), Some(&pool), sched, shared.amplitudes_mut(), 3, run.iter());
        assert_eq!(bits(&shared), bits(&tiled(&run, 3, 4)));
    }

    #[test]
    fn a_lone_member_sweeps_the_whole_slice() {
        // X(6) moves amplitudes between 8-amplitude tiles, so it pins at
        // no width below 7, but alone it needs no tile.
        let run = [Member::Gate(GateKernel::X(6))];
        assert!(!run[0].pins(3));
        let mut want = rand_state(5);
        run[0].apply(simd::active(), None, Schedule::default(), want.amplitudes_mut());
        assert_eq!(bits(&tiled(&run, N, 5)), bits(&want));
    }

    #[test]
    fn a_tile_every_member_pins_to_nothing_is_untouched() {
        // A phase on |1⟩ of qubit 6 and a CX controlled by it: the lower
        // half of the state has the control clear on every tile.
        let got = bits(&tiled(&gates(&[Gate::S(6), Gate::Cx(6, 1)]), 2, 6));
        let start = bits(&rand_state(6));
        let half = 1 << (N - 1);
        assert_eq!(got[..half], start[..half]);
        assert_ne!(got[half..], start[half..]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn a_member_that_does_not_pin_is_rejected() {
        tiled(&gates(&[Gate::H(0), Gate::H(4)]), 3, 7);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn a_fused_block_above_the_tile_is_rejected() {
        let block = dense_block();
        tiled(&[Member::Fused(PreparedFused::new(&block)), Member::Gate(GateKernel::X(0))], 1, 8);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn a_zero_width_is_rejected() {
        tiled(&gates(&[Gate::Z(0)]), 0, 9);
    }

    #[test]
    #[should_panic(expected = "block larger")]
    fn a_tile_wider_than_the_state_is_rejected() {
        tiled(&gates(&[Gate::X(0), Gate::X(1)]), N + 1, 10);
    }
}
