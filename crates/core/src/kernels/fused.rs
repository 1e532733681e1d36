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
//! * the bookkeeping is done once per call: each vector's offset and
//!   whether it is stored are two tables, and a step's base address
//!   advances by one carry over its zero bits, so a step costs its
//!   loads, exchanges, row dots and stores;
//! * a chunk that starts or ends inside a step runs the same lane
//!   arithmetic on the lanes it owns, so a group's result bits never
//!   depend on how a sweep is chunked or workshared.
//!
//! Diagonal blocks need no gather at all: those of one or two qubits run
//! the per-gate diagonal kernel (`GateKernel::Diag1`/`Diag2`), wider ones
//! stream through [`KernelBackend::scale_run`]; gate-backed singletons
//! (see [`FusedOp::gate`]) run their gate's own kernel. [`PreparedFused`]
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
    let step_mask = step_bits.iter().fold(0usize, |m, &b| m | 1 << b);

    // Per call: vector `i`'s offset (low targets by their stand-ins), and
    // whether it holds any active row of its low-target patterns.
    let mut stack = ([V::zero(); 2 * KQ_STACK_DIM], [0usize; KQ_STACK_DIM], [false; KQ_STACK_DIM]);
    let mut heap;
    let (scratch, voff, keep): (&mut [V], &mut [usize], &mut [bool]) = if dim <= KQ_STACK_DIM {
        (&mut stack.0[..2 * dim], &mut stack.1[..dim], &mut stack.2[..dim])
    } else {
        heap = (vec![V::zero(); 2 * dim], vec![0; dim], vec![false; dim]);
        (&mut heap.0, &mut heap.1, &mut heap.2)
    };
    let (v, out) = scratch.split_at_mut(dim);
    let out = &mut out[..blk.rows.len()];
    for (i, (o, k)) in voff.iter_mut().zip(keep.iter_mut()).enumerate() {
        *o = offsets[i & !low_mask] | stand_in[i & low_mask];
        *k = (0..=low_mask).any(|c| blk.active[(i & !low_mask) | c]);
    }

    // Each step's base (and prefetch) address: the next with `step_mask` clear.
    let mut first = g0 - g0 % V::W;
    let mut base = insert_zero_bits(first / V::W, step_bits);
    let mut ahead = insert_zero_bits(first / V::W + PREFETCH_STEPS, step_bits);
    let mut g = g0;
    while g < g1 {
        let (lo, hi) = (g - first, (g1 - first).min(V::W));
        let whole = hi - lo == V::W;
        if whole {
            for (x, &off) in v.iter_mut().zip(&*voff) {
                *x = V::load(amps.add(base | off));
                V::prefetch(amps.wrapping_add(ahead | off));
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
        for (i, o) in out.iter_mut().enumerate() {
            // SAFETY: `Block::new` bounds each row in `ptr`, all within `0..dim`.
            let (start, end) =
                (*blk.ptr.get_unchecked(i) as usize, *blk.ptr.get_unchecked(i + 1) as usize);
            *o = row_dot(blk.cols.get_unchecked(start..end), blk.vals.get_unchecked(start..end), v);
        }
        for (&row, &o) in blk.rows.iter().zip(&*out) {
            *v.get_unchecked_mut(row as usize) = o;
        }

        if whole {
            exchange_low(v, &sorted[..n_low]);
            for ((x, &off), &k) in v.iter().zip(&*voff).zip(&*keep) {
                if k {
                    x.store(amps.add(base | off));
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
        first += V::W;
        base = ((base | step_mask) + 1) & !step_mask;
        ahead = ((ahead | step_mask) + 1) & !step_mask;
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
        let d = |i| op.matrix.get(i, i);
        let lowered = match (&op.gate, op.class, &op.qubits[..]) {
            (Some(g), ..) => Lowered::Gate(GateKernel::from(&**g)),
            // The per-gate diagonal kernels, local index `h<<1|l`.
            (None, FusedClass::Diagonal, &[q]) => Lowered::Gate(GateKernel::Diag1(q, d(0), d(1))),
            (None, FusedClass::Diagonal, &[l, h]) => {
                Lowered::Gate(GateKernel::Diag2(h, l, [d(0), d(1), d(2), d(3)]))
            }
            (None, FusedClass::Diagonal, _) => diagonal_table(op),
            (None, ..) => Lowered::Block(Block::new(&op.qubits, &op.matrix)),
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

/// A diagonal op streamed run by run, or by a [`DiagLoTable`] if short.
fn diagonal_table(op: &FusedOp) -> Lowered {
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

    /// Every backend the host runs, then the array backends of 2, 4 and
    /// 8 lanes, which Miri runs too.
    fn backends() -> Vec<&'static KernelBackend> {
        let mut backends = simd::available();
        backends.extend(simd::array::backends());
        backends
    }

    fn assert_matches_scalar_kq(op: &FusedOp, n: u32, what: &str) {
        let start = rand_state(n, 77);
        let run = |be| {
            let mut got = start.clone();
            apply_fused(be, got.amplitudes_mut(), op);
            got
        };
        let mut expected = start.clone();
        scalar::apply_kq(expected.amplitudes_mut(), &op.qubits, &op.matrix);
        let portable = run(simd::backend_for(simd::BackendChoice::Scalar));
        for be in backends() {
            let got = run(be);
            let class = op.class.name();
            assert!(got.approx_eq(&expected, EPS), "{what} class={class} be={}", be.name);
            // The array lanes run `C64`'s own arithmetic, as portable does.
            if be.name.starts_with("array") {
                assert_eq!(got.max_abs_diff(&portable), 0.0, "{what} class={class} be={}", be.name);
            }
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
        // tails of steps run lane by lane and must not change a bit. At
        // every lowest target in and above the 8-lane window, k = 3 with a
        // gap and k = 5 (the widest stack scratch); 8 or 16 groups, one or
        // two 8-lane steps, so Miri gets through the dense k = 5 sweeps.
        for lowest in 0..4u32 {
            for qubits in [vec![0, 1, 3], vec![0, 1, 2, 3, 4]] {
                let qubits: Vec<u32> = qubits.iter().map(|q| q + lowest).collect();
                let n = (qubits.len() as u32 + 3).max(qubits[qubits.len() - 1] + 1);
                for class in [Permutation, Sparse, Dense] {
                    let op = block(class, n, &qubits);
                    let blk = Block::new(&op.qubits, &op.matrix);
                    for be in backends() {
                        let start = rand_state(n, 19);
                        let mut whole = start.clone();
                        apply_fused(be, whole.amplitudes_mut(), &op);
                        let groups = blk.groups(start.len());
                        for at in 0..=groups {
                            let mut pieces = start.clone();
                            let p = pieces.amplitudes_mut().as_mut_ptr();
                            // SAFETY: exclusive borrow; the two ranges
                            // cover the state's groups once.
                            unsafe {
                                (be.block_range)(p, 0, at, &blk);
                                (be.block_range)(p, at, groups, &blk);
                            }
                            let off = pieces.max_abs_diff(&whole);
                            assert_eq!(off, 0.0, "{class:?} {qubits:?} {} cut at {at}", be.name);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn small_diagonal_blocks_run_the_per_gate_kernel_with_the_table_bits() {
        // Every 1- and 2-qubit placement on 10 qubits: low first qubits
        // take the tiled table, the others the run-per-run path.
        let singles = (0..10u32).map(|q| vec![q]);
        let pairs = (0..10u32).flat_map(|a| (a + 1..10).map(move |b| vec![a, b]));
        for qubits in singles.chain(pairs) {
            let op = block(Diagonal, 10, &qubits);
            let gate = PreparedFused::new(&op);
            assert!(matches!(gate.lowered, Lowered::Gate(_)), "{qubits:?}");
            let table = PreparedFused { sorted: &op.qubits, lowered: diagonal_table(&op) };
            let start = rand_state(10, 3);
            for be in backends() {
                let [mut a, mut b] = [start.clone(), start.clone()];
                gate.apply(be, None, Schedule::default(), a.amplitudes_mut());
                table.apply(be, None, Schedule::default(), b.amplitudes_mut());
                assert_eq!(a.max_abs_diff(&b), 0.0, "{qubits:?} be={}", be.name);
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
