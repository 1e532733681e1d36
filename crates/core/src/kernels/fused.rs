//! Fused-block execution: one stride-independent block kernel.
//!
//! A fused block is a `2^k × 2^k` matrix applied to every *group* of
//! `2^k` amplitudes that differ only in the block's target bits. Most
//! real blocks are far from dense — a QFT block is one Hadamard times
//! diagonal controlled-phases, CX/SWAP-heavy blocks are permutations,
//! Toffoli-style blocks are identity on most rows — so [`Block`] keeps
//! only the non-identity rows, as CSR over their exactly-nonzero
//! entries, and `block_range` is the one loop that executes it for
//! every structure class and every target stride:
//!
//! * a vector step covers `W` consecutive groups, one per lane, so the
//!   arithmetic per step is a broadcast matrix entry times a register of
//!   `W` groups' amplitudes, whatever the block's structure. `W` is the
//!   backend's: 1 portable, 2 NEON, 4 AVX2, 8 AVX-512F;
//! * when a target sits below `log2(W)` the lanes of a loaded vector
//!   span that target instead of `W` groups. The kernel then loads the
//!   vectors that differ in the lowest *non-target* address bits — up to
//!   three of them stand in for up to three low targets — and exchanges
//!   the lane bit with that address bit in registers (`Lanes::exchange`),
//!   after which every register again holds one local basis index of `W`
//!   groups; the same exchange precedes the store. Low-qubit blocks cost
//!   what high-qubit blocks cost plus a few shuffles;
//! * each row accumulates in eight independent chains (re·re, im·im,
//!   re·im, im·re, over even and odd entries), so the FMA pipes stay
//!   full on long rows;
//! * a chunk that starts or ends inside a step runs the same lane
//!   arithmetic on the lanes it owns, so a group's result bits never
//!   depend on how a sweep is chunked or workshared.
//!
//! Diagonal blocks need no gather at all and stream through
//! [`KernelBackend::scale_run`]; gate-backed singletons (see
//! [`FusedOp::gate`]) run their gate's own kernel. [`PreparedFused`]
//! picks among the three once per op, also for a tiled run's members.
//!
//! Blocks up to `k = 5` run with stack scratch only: zero heap
//! allocation in the hot loop (asserted by `tests/no_alloc.rs`).

use omp_par::{Schedule, ThreadPool};

use crate::complex::{C64, ONE};
use crate::fusion::{FusedClass, FusedOp};
use crate::gates::matrices::DenseMatrix;
use crate::kernels::dispatch::GateKernel;
use crate::kernels::index::{compress_bits, insert_zero_bits, spread_bits};
use crate::kernels::simd::lanes::Lanes;
use crate::kernels::simd::KernelBackend;
use crate::kernels::{for_range, AmpPtr, KQ_STACK_DIM};

/// A block matrix lowered for `block_range`: targets, per-local-index
/// amplitude offsets, and the non-identity rows as CSR.
///
/// Fields are private: `block_range` indexes its scratch with `rows`
/// and `cols` unchecked, on the strength of [`Block::new`] having drawn
/// them from `0..2^k`.
#[derive(Debug)]
pub struct Block {
    /// Ascending target qubits.
    sorted: Vec<u32>,
    /// Amplitude offset of each local basis index.
    offsets: Vec<usize>,
    /// Per local index: does its row differ from the identity's?
    active: Vec<bool>,
    /// The active rows, ascending, and their nonzeros.
    rows: Vec<u32>,
    ptr: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<C64>,
}

impl Block {
    /// Lower the `2^k × 2^k` matrix `m` over `qubits` (strictly
    /// ascending; local basis bit `j` is `qubits[j]`). Entries are
    /// dropped only when exactly zero and rows only when exactly an
    /// identity row, as [`crate::fusion::classify_matrix`] tests.
    pub fn new(qubits: &[u32], m: &DenseMatrix) -> Block {
        assert!(qubits.windows(2).all(|w| w[0] < w[1]), "block qubits must be strictly ascending");
        let dim = m.dim();
        assert_eq!(dim, 1usize << qubits.len(), "matrix dimension must match qubit count");
        let mut blk = Block {
            sorted: qubits.to_vec(),
            offsets: (0..dim).map(|local| spread_bits(local, qubits)).collect(),
            active: Vec::with_capacity(dim),
            rows: Vec::new(),
            ptr: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
        };
        for (r, row) in m.data().chunks_exact(dim).enumerate() {
            let start = blk.cols.len();
            for (c, &v) in row.iter().enumerate() {
                if v.re != 0.0 || v.im != 0.0 {
                    blk.cols.push(c as u32);
                    blk.vals.push(v);
                }
            }
            let identity = blk.cols[start..] == [r as u32] && blk.vals[start] == ONE;
            blk.active.push(!identity);
            if identity {
                blk.cols.truncate(start);
                blk.vals.truncate(start);
            } else {
                blk.rows.push(r as u32);
                blk.ptr.push(blk.cols.len() as u32);
            }
        }
        blk
    }

    /// Groups of `2^k` amplitudes in a state of `len` amplitudes.
    #[inline]
    fn groups(&self, len: usize) -> usize {
        len >> self.sorted.len()
    }
}

/// `Σ vals[t]·v[cols[t]]` over one CSR row, even entries in one chain
/// set and odd entries in the other.
///
/// # Safety
/// Every entry of `cols` must index into `v`.
#[inline(always)]
unsafe fn row_dot<V: Lanes>(cols: &[u32], vals: &[C64], v: &[V]) -> V {
    let (mut even, mut odd) = (V::acc_zero(), V::acc_zero());
    let mut pairs = cols.chunks_exact(2).zip(vals.chunks_exact(2));
    for (c, w) in &mut pairs {
        even = V::mul_acc(even, w[0], *v.get_unchecked(c[0] as usize));
        odd = V::mul_acc(odd, w[1], *v.get_unchecked(c[1] as usize));
    }
    if let ([c], [w]) = (cols.chunks_exact(2).remainder(), vals.chunks_exact(2).remainder()) {
        even = V::mul_acc(even, *w, *v.get_unchecked(*c as usize));
    }
    V::fold(even, odd)
}

/// How many steps ahead of its loads [`block_range`] prefetches: the
/// gather of a step walks `2^k` separate address streams, too many for
/// the hardware prefetchers to hide behind the arithmetic on their own.
const PREFETCH_STEPS: usize = 4;

/// One lane-bit/register-bit exchange per low target (`low[j]` is local
/// basis bit `j`) turns the vectors of a step, as loaded, into
/// per-local-index registers of `W` groups — and back.
#[inline(always)]
unsafe fn exchange_low<V: Lanes>(v: &mut [V], low: &[u32]) {
    for (j, &t) in low.iter().enumerate() {
        for i in (0..v.len()).filter(|i| (i >> j) & 1 == 0) {
            (v[i], v[i | (1 << j)]) = V::exchange(t, v[i], v[i | (1 << j)]);
        }
    }
}

/// Apply `blk` to groups `g0..g1` (group `g` has base address
/// `insert_zero_bits(g, targets)`), `V::W` groups per step. The one block
/// primitive: each backend instantiates it with its vector type.
///
/// # Safety
/// The caller must hold exclusive access to every amplitude of groups
/// `g0..g1`, and `g1` must not exceed the state's group count.
#[inline(always)]
pub(crate) unsafe fn block_range<V: Lanes>(amps: *mut C64, g0: usize, g1: usize, blk: &Block) {
    let (sorted, offsets) = (&blk.sorted[..], &blk.offsets[..]);
    let dim = offsets.len();
    let lane_bits = V::W.trailing_zeros();

    // The `lane_bits` lowest non-target address bits tell the groups of
    // one step apart; with the targets they are the zero bits of a step's
    // base address. Those at or above `lane_bits` stand in, in order, for
    // the targets below `lane_bits`: `stand_in[c]` is the address offset
    // of low-target pattern `c`.
    debug_assert!(V::W <= 8, "stand_in holds the patterns of at most three low targets");
    let n_low = sorted.iter().take_while(|&&t| t < lane_bits).count();
    let low_mask = (1usize << n_low) - 1;
    let mut step_bits = [0u32; usize::BITS as usize];
    let mut stand_in = [0usize; 8];
    let mut n_step = sorted.len();
    step_bits[..n_step].copy_from_slice(sorted);
    let mut n_stand = 0;
    for bit in (0..).filter(|b| !sorted.contains(b)).take(lane_bits as usize) {
        step_bits[n_step] = bit;
        n_step += 1;
        if bit >= lane_bits {
            for (c, offset) in stand_in.iter_mut().enumerate() {
                *offset |= ((c >> n_stand) & 1) << bit;
            }
            n_stand += 1;
        }
    }
    let step_bits = &mut step_bits[..n_step];
    step_bits.sort_unstable();
    // Address offset of vector `i` of a step: high targets as in the
    // group layout, low targets replaced by their stand-ins.
    let vector_offset = |i: usize| offsets[i & !low_mask] | stand_in[i & low_mask];

    let n_rows = blk.rows.len();
    let mut stack = [V::zero(); 2 * KQ_STACK_DIM];
    let mut heap = if dim > KQ_STACK_DIM { vec![V::zero(); 2 * dim] } else { Vec::new() };
    let scratch: &mut [V] = if dim <= KQ_STACK_DIM { &mut stack } else { &mut heap };
    let (v, out) = scratch.split_at_mut(scratch.len() / 2);
    let v = &mut v[..dim];

    let mut g = g0;
    while g < g1 {
        let step = g / V::W;
        let first = step * V::W;
        let (lo, hi) = (g - first, (g1 - first).min(V::W));
        let whole = hi - lo == V::W;
        let step_base = insert_zero_bits(step, step_bits);
        if whole {
            let ahead = insert_zero_bits(step + PREFETCH_STEPS, step_bits);
            for (i, x) in v.iter_mut().enumerate() {
                *x = V::load(amps.add(step_base | vector_offset(i)));
                V::prefetch(amps.wrapping_add(ahead | vector_offset(i)));
            }
            exchange_low(v, &sorted[..n_low]);
        } else {
            for l in lo..hi {
                let base = insert_zero_bits(first + l, sorted);
                for (x, &off) in v.iter_mut().zip(offsets) {
                    x.set_lane(l, *amps.add(base | off));
                }
            }
        }

        // All rows read the gathered amplitudes, so none is overwritten
        // before the last is computed.
        for (i, o) in out[..n_rows].iter_mut().enumerate() {
            let (start, end) = (blk.ptr[i] as usize, blk.ptr[i + 1] as usize);
            // SAFETY: `Block::new` drew every column from `0..dim`.
            *o = row_dot(&blk.cols[start..end], &blk.vals[start..end], v);
        }
        for (&row, &o) in blk.rows.iter().zip(&out[..n_rows]) {
            v[row as usize] = o;
        }

        if whole {
            exchange_low(v, &sorted[..n_low]);
            for (i, x) in v.iter().enumerate() {
                // A vector holds every low-target pattern of its row
                // family; identity-only vectors are still clean.
                if (0..=low_mask).any(|c| blk.active[(i & !low_mask) | c]) {
                    x.store(amps.add(step_base | vector_offset(i)));
                }
            }
        } else {
            for l in lo..hi {
                let base = insert_zero_bits(first + l, sorted);
                for &row in &blk.rows {
                    *amps.add(base | offsets[row as usize]) = v[row as usize].lane(l);
                }
            }
        }
        g = first + hi;
    }
}

/// Tile bits for [`DiagLoTable`]: a 2^10-amplitude tile keeps the
/// index table at 2 KB while amortizing the per-tile `compress_bits`
/// over 1024 sequential amplitudes.
const DIAG_TILE_BITS: u32 = 10;

/// Threshold below which the run-per-run diagonal path is replaced by
/// the tiled table: with `sorted[0] < 6` runs are under 64 amplitudes
/// and the per-run `compress_bits` dominates (measured 6 ns/amp at
/// `sorted[0] == 0` vs 0.8 at long runs).
const DIAG_RUN_MIN: u32 = 6;

/// Precomputed low-bit diagonal indices for short-run diagonal blocks.
///
/// `lo_idx[j]` is the compressed low-target part of address-bit
/// pattern `j` within a 2^[`DIAG_TILE_BITS`] tile; the sweep reads it
/// sequentially and combines it with the (per-tile constant) high part,
/// so no per-amplitude or per-tiny-run bit compression remains.
struct DiagLoTable {
    lo_idx: Vec<u16>,
    hi: Vec<u32>,
    n_lo: u32,
}

/// How a [`PreparedFused`] executes.
enum Lowered {
    /// A single original gate, through its own specialized sweep — the
    /// identical code path the naive strategy uses.
    Gate(GateKernel),
    /// The diagonal entries per local index, streamed.
    Diagonal {
        diag: Vec<C64>,
        lo: Option<DiagLoTable>,
    },
    Block(Block),
}

/// A fused op lowered for execution: the kernel chosen and its tables
/// built. Build once per op, sweep many times.
pub struct PreparedFused<'a> {
    sorted: &'a [u32],
    lowered: Lowered,
}

impl<'a> PreparedFused<'a> {
    /// Lower `op` for repeated execution.
    pub fn new(op: &'a FusedOp) -> PreparedFused<'a> {
        debug_assert!(
            op.qubits.windows(2).all(|w| w[0] < w[1]),
            "fused op qubits must be strictly ascending"
        );
        debug_assert_eq!(op.matrix.dim(), 1usize << op.qubits.len());
        let lowered = match (&op.gate, op.class) {
            (Some(g), _) => Lowered::Gate(GateKernel::from(&**g)),
            (None, FusedClass::Diagonal) => {
                let diag = (0..op.matrix.dim()).map(|i| op.matrix.get(i, i)).collect();
                let lo = (op.qubits[0] < DIAG_RUN_MIN).then(|| {
                    let (lo, hi): (Vec<u32>, Vec<u32>) =
                        op.qubits.iter().copied().partition(|&q| q < DIAG_TILE_BITS);
                    let tile = 1usize << DIAG_TILE_BITS;
                    let lo_idx = (0..tile).map(|j| compress_bits(j, &lo) as u16).collect();
                    DiagLoTable { lo_idx, hi, n_lo: lo.len() as u32 }
                });
                Lowered::Diagonal { diag, lo }
            }
            (None, _) => Lowered::Block(Block::new(&op.qubits, &op.matrix)),
        };
        PreparedFused { sorted: &op.qubits, lowered }
    }

    /// The op's qubits, ascending.
    pub fn qubits(&self) -> &[u32] {
        self.sorted
    }

    /// One sweep over a full state (or one cache-resident block slice;
    /// `amps.len()` must be a power of two above every target),
    /// workshared across `pool` or — without one — inline on the caller.
    /// Bit-identical at any thread count and schedule.
    pub fn apply(
        &self,
        be: &KernelBackend,
        pool: Option<&ThreadPool>,
        sched: Schedule,
        amps: &mut [C64],
    ) {
        debug_assert!(amps.len() >> self.sorted.len() >= 1);
        let p = AmpPtr(amps.as_mut_ptr());
        match &self.lowered {
            Lowered::Gate(kernel) => kernel.apply(be, pool, sched, amps),
            Lowered::Diagonal { diag, lo } => {
                if let Some(t) = lo_table_for(lo, amps.len()) {
                    let tiles = amps.len() >> DIAG_TILE_BITS;
                    for_range(pool, sched, 0..tiles, move |chunk| {
                        let p = p;
                        // SAFETY: tiles partition the index space; each
                        // tile index lands in exactly one chunk.
                        unsafe { diag_tiles(p.0, diag, t, chunk.start, chunk.end) }
                    });
                    return;
                }
                let runs = amps.len() >> self.sorted[0];
                for_range(pool, sched, 0..runs, move |chunk| {
                    let p = p;
                    // SAFETY: runs partition the index space; each run
                    // index lands in exactly one chunk.
                    unsafe { self.diag_range(be, p.0, diag, chunk.start, chunk.end) }
                });
            }
            Lowered::Block(blk) => {
                for_range(pool, sched, 0..blk.groups(amps.len()), move |chunk| {
                    let p = p;
                    // SAFETY: 2^k groups partition the index space; each
                    // group index lands in exactly one chunk.
                    unsafe { (be.block_range)(p.0, chunk.start, chunk.end, blk) }
                });
            }
        }
    }

    /// Diagonal pass over runs `r0..r1` (each `2^sorted[0]` amplitudes,
    /// over which every target bit — hence the diagonal entry — is
    /// constant).
    ///
    /// # Safety
    /// The caller must hold exclusive access to the runs.
    unsafe fn diag_range(
        &self,
        be: &KernelBackend,
        amps: *mut C64,
        diag: &[C64],
        r0: usize,
        r1: usize,
    ) {
        let s0 = self.sorted[0];
        if s0 == 0 {
            for i in r0..r1 {
                *amps.add(i) *= diag[compress_bits(i, self.sorted)];
            }
            return;
        }
        let runlen = 1usize << s0;
        for r in r0..r1 {
            let base = r << s0;
            let d = diag[compress_bits(base, self.sorted)];
            (be.scale_run)(std::slice::from_raw_parts_mut(amps.add(base), runlen), d);
        }
    }
}

/// The tiled diagonal table, when built and the slice is at least one
/// tile long (tiny test states fall back to the run path).
#[inline]
fn lo_table_for(lo: &Option<DiagLoTable>, len: usize) -> Option<&DiagLoTable> {
    lo.as_ref().filter(|_| len >= (1usize << DIAG_TILE_BITS))
}

/// Tiled diagonal pass over tiles `t0..t1` (each `2^DIAG_TILE_BITS`
/// amplitudes): the high-target diagonal part is constant per tile;
/// the low part streams from the precomputed `lo_idx` table.
///
/// # Safety
/// The caller must hold exclusive access to the tiles.
unsafe fn diag_tiles(amps: *mut C64, diag: &[C64], t: &DiagLoTable, t0: usize, t1: usize) {
    let tile = 1usize << DIAG_TILE_BITS;
    for ti in t0..t1 {
        let base = ti << DIAG_TILE_BITS;
        let d_hi = compress_bits(base, &t.hi) << t.n_lo;
        let run = std::slice::from_raw_parts_mut(amps.add(base), tile);
        for (a, &li) in run.iter_mut().zip(&t.lo_idx) {
            *a *= diag[d_hi | li as usize];
        }
    }
}

/// One-shot convenience: lower and apply a fused op on the caller.
pub fn apply_fused(be: &KernelBackend, amps: &mut [C64], op: &FusedOp) {
    PreparedFused::new(op).apply(be, None, Schedule::default(), amps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::fusion::fuse;
    use crate::kernels::{scalar, simd};
    use crate::state::StateVector;
    use crate::testing::class_circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use FusedClass::{Dense, Diagonal, Permutation, Sparse};

    const EPS: f64 = 1e-12;

    fn rand_state(n: u32, seed: u64) -> StateVector {
        let mut rng = StdRng::seed_from_u64(seed);
        StateVector::random(n, &mut rng)
    }

    /// One block of `class` over `qubits`.
    fn block(class: FusedClass, n: u32, qubits: &[u32]) -> FusedOp {
        let c = class_circuit(class, n, qubits).expect("the class exists at this width");
        let mut plan = fuse(&c, qubits.len() as u32);
        assert_eq!((plan.len(), plan[0].class), (1, class));
        plan.remove(0)
    }

    fn assert_matches_scalar_kq(op: &FusedOp, n: u32, what: &str) {
        for be in simd::available() {
            let mut a = rand_state(n, 77);
            let mut b = a.clone();
            scalar::apply_kq(a.amplitudes_mut(), &op.qubits, &op.matrix);
            apply_fused(be, b.amplitudes_mut(), op);
            assert!(a.approx_eq(&b, EPS), "{what} class={} be={}", op.class.name(), be.name);
        }
    }

    #[test]
    fn every_class_matches_generic_scalar_kq_at_every_lowest_target() {
        // Lowest target 0 and 1 (lane exchange on AVX2, 0 on NEON), then
        // 2 and up (contiguous lanes); a gap between the upper targets.
        for lowest in 0..4u32 {
            for class in [Diagonal, Permutation, Sparse, Dense] {
                let op = block(class, 9, &[lowest, lowest + 2, lowest + 4]);
                assert_matches_scalar_kq(&op, 9, &format!("lowest={lowest}"));
            }
        }
        // Both lane bits targets at once.
        for class in [Permutation, Sparse, Dense] {
            assert_matches_scalar_kq(&block(class, 8, &[0, 1, 5]), 8, "targets 0 and 1");
        }
    }

    #[test]
    fn a_state_smaller_than_one_vector_step_still_works() {
        // One or two groups: every step is a partial one.
        for class in [Diagonal, Permutation, Sparse, Dense] {
            for n in [3u32, 4] {
                assert_matches_scalar_kq(&block(class, n, &[0, 1, 2]), n, &format!("n={n}"));
            }
        }
    }

    #[test]
    fn ragged_chunks_produce_the_bits_of_whole_steps() {
        // The same sweep cut at every group boundary, serially: heads and
        // tails of steps run lane by lane and must not change a bit.
        for class in [Permutation, Sparse, Dense] {
            let op = block(class, 7, &[1, 2, 4]);
            let blk = Block::new(&op.qubits, &op.matrix);
            for be in simd::available() {
                let start = rand_state(7, 19);
                let mut whole = start.clone();
                apply_fused(be, whole.amplitudes_mut(), &op);
                let groups = blk.groups(start.len());
                for at in 0..=groups {
                    let mut pieces = start.clone();
                    let p = pieces.amplitudes_mut().as_mut_ptr();
                    // SAFETY: exclusive borrow; the two ranges cover the
                    // state's groups once.
                    unsafe {
                        (be.block_range)(p, 0, at, &blk);
                        (be.block_range)(p, at, groups, &blk);
                    }
                    assert_eq!(pieces.max_abs_diff(&whole), 0.0, "{class:?} cut at {at}");
                }
            }
        }
    }

    #[test]
    fn identity_rows_are_dropped_and_only_exact_zeros() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2).cz(0, 1);
        let op = fuse(&c, 3).remove(0);
        let blk = Block::new(&op.qubits, &op.matrix);
        // Only the two rows with both controls set act.
        assert_eq!(blk.rows, vec![3, 7]);
        assert_eq!(blk.ptr, vec![0, 1, 2]);
        assert_eq!(blk.cols, vec![7, 3]);
        assert_eq!(blk.cols.len(), op.active_nnz);
        assert_eq!(blk.active.iter().filter(|&&a| a).count(), 2);
    }

    #[test]
    fn wide_blocks_take_the_heap_scratch_path() {
        let op = block(Dense, 8, &[0, 2, 3, 4, 5, 6]);
        assert_matches_scalar_kq(&op, 8, "k=6");
    }

    #[test]
    fn low_qubit_diagonal_block_works_at_bit_zero() {
        // sorted[0] == 0 takes the per-amplitude multiply path.
        assert_matches_scalar_kq(&block(Diagonal, 4, &[0, 1]), 4, "diagonal at bit 0");
    }
}
