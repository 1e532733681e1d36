//! Axis layouts: physical axis `p` of a state holds logical qubit
//! `logical_at[p]` (`qcs-dist`'s planner absorbs swaps as relabels), and
//! [`gather`] writes a sharded state so laid out in logical order.

use std::mem::MaybeUninit;

use crate::align::AlignedAmps;
use crate::complex::C64;
use crate::state::StateVector;

/// Low physical bits of a tile, and the logical bits below which every
/// axis joins one: a tile stages at most `2^10` amplitudes (16 KiB).
const TILE_BITS: u32 = 5;

#[cfg(test)]
thread_local! {
    /// Helper threads [`gather`] spawned from this thread.
    static HELPERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The state whose physical index `rank · 2^k + x` holds `shards[rank][x]`
/// (every shard `2^k` amplitudes) in logical order under `logical_at`,
/// each amplitude written once, by at most `threads` threads.
///
/// One pass tiles the whole index, every shard at once. A tile is the
/// low `TILE_BITS` (5) physical bits plus every axis, local or global,
/// holding a logical bit below `TILE_BITS`: its rows are read in
/// physical order into a staging buffer in logical order, which is
/// written out as contiguous logical runs, so reads and writes stay in
/// L1 even for a reversed layout. The axes of the top logical bits that
/// lie outside the tile, as many as `threads` allows, cut the output
/// into contiguous slices: the caller fills the first, scoped helpers
/// the rest (it fills all when the top logical bit is in the tile).
pub fn gather(logical_at: &[u32], shards: &[&[C64]], threads: usize) -> StateVector {
    let n = logical_at.len() as u32;
    assert!((0..n).all(|l| logical_at.contains(&l)), "{logical_at:?} is not a permutation");
    let local = shards[0].len();
    assert!(shards.iter().all(|s| s.len() == local) && local * shards.len() == 1 << n);
    let logical = |x: usize| (0..).zip(logical_at).fold(0, |y, (p, &l)| y | (x >> p & 1) << l);
    let physical = |y: usize| (0..).zip(logical_at).fold(0, |x, (p, &l)| x | (y >> l & 1) << p);
    let t = TILE_BITS.min(n);
    let low = (1 << t) - 1;
    let (tile, image) = (low | physical(low), low | logical(low));
    // The tile's offsets in physical order, the staging slot of each (its
    // rank in logical order) and the logical offset of each staged run.
    let offsets: Vec<usize> = subsets(tile).collect();
    let slot =
        |y: usize| (0..n).rev().filter(|b| image >> b & 1 == 1).fold(0, |i, b| i << 1 | y >> b & 1);
    let slots: Vec<usize> = offsets.iter().map(|&s| slot(logical(s))).collect();
    let runs: Vec<usize> = subsets(image).step_by(1 << t).collect();
    let width = n - threads.ilog2().min(image.leading_zeros() + n - usize::BITS);
    let outers = ((1 << n) - 1) & !tile & !physical((1 << n) - (1 << width));
    let (n_local, row) = (local.trailing_zeros(), 1 << t.min(local.trailing_zeros()));
    let fill = |chunk: usize, out: &mut [MaybeUninit<C64>]| {
        let (mut stage, top) = (vec![C64::default(); offsets.len()], physical(chunk << width));
        let mut written =
            vec![0u64; if cfg!(debug_assertions) { out.len().div_ceil(64) } else { 0 }];
        for outer in subsets(outers) {
            for (&s, to) in offsets.iter().step_by(row).zip(slots.chunks(row)) {
                let x = top | outer | s;
                let src = &shards[x >> n_local][x & (local - 1)..][..row];
                src.iter().zip(to).for_each(|(&a, &i)| stage[i] = a);
            }
            let outer = logical(outer);
            for (&run, staged) in runs.iter().zip(stage.chunks(1 << t)) {
                for (o, &a) in out[outer | run..].iter_mut().zip(staged) {
                    o.write(a);
                }
                for i in (outer | run..).take(staged.len()).filter(|_| cfg!(debug_assertions)) {
                    assert!(written[i / 64] & 1 << (i % 64) == 0, "amplitude {i} written twice");
                    written[i / 64] |= 1 << (i % 64);
                }
            }
        }
        let once: u32 = written.iter().map(|w| w.count_ones()).sum();
        debug_assert_eq!(once as usize, out.len(), "slice {chunk} left amplitudes unwritten");
    };
    // SAFETY: `logical` is a bijection (`logical_at` is a permutation),
    // and each slice's outer indices and the tile's runs partition its
    // logical indices: every amplitude is written once (debug builds count).
    let amps = unsafe {
        AlignedAmps::from_fill(1 << n, |out| {
            std::thread::scope(|scope| {
                let mut slices = out.chunks_mut(1 << width).enumerate();
                let (_, first) = slices.next().expect("a state has amplitudes");
                for (chunk, slice) in slices {
                    #[cfg(test)]
                    HELPERS.with(|h| h.set(h.get() + 1));
                    scope.spawn(move || fill(chunk, slice));
                }
                fill(0, first);
            })
        })
    };
    StateVector::from_aligned(n, amps)
}

/// Every subset of `mask`'s bits, in increasing order.
fn subsets(mask: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(0), move |&s| (s != mask).then(|| s.wrapping_sub(mask) & mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::as_f64_slice;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Widths the suites sweep; Miri interprets every amplitude, so it
    /// stops short of several tiles.
    const MAX_N: u32 = if cfg!(miri) { 7 } else { 13 };

    /// The per-amplitude fold the tiled pass replaced, kept as its
    /// oracle: physical index `x` goes to logical index `y`.
    fn fold_reference(raw: &[C64], logical_at: &[u32]) -> Vec<C64> {
        let mut out = vec![C64::default(); raw.len()];
        for (x, &a) in raw.iter().enumerate() {
            let y = logical_at.iter().enumerate().fold(0, |y, (p, &l)| y | ((x >> p) & 1) << l);
            out[y] = a;
        }
        out
    }

    /// `2^n` distinct amplitudes, so a misplaced write shows.
    fn distinct(n: u32) -> Vec<C64> {
        (0..1usize << n).map(|i| C64::new(i as f64, -0.5 - i as f64)).collect()
    }

    /// `raw` (physical order) cut into `ranks` shards and gathered on
    /// `threads` threads must be the fold's state bit for bit. Returns
    /// the helper threads the pass spawned.
    fn check(logical_at: &[u32], ranks: usize, threads: usize) -> usize {
        let n = logical_at.len() as u32;
        let raw = distinct(n);
        let shards: Vec<&[C64]> = raw.chunks_exact(raw.len() / ranks).collect();
        let before = HELPERS.with(|h| h.get());
        let got = gather(logical_at, &shards, threads);
        let helpers = HELPERS.with(|h| h.get()) - before;
        let want = fold_reference(&raw, logical_at);
        let ctx = format!("{logical_at:?} over {ranks} ranks on {threads} threads");
        assert_eq!(as_f64_slice(got.amplitudes()), as_f64_slice(&want), "{ctx}");
        assert!(helpers < threads, "{ctx}: {helpers} helpers");
        helpers
    }

    fn shuffled(n: u32, rng: &mut StdRng) -> Vec<u32> {
        let mut logical_at: Vec<u32> = (0..n).collect();
        for i in (1..logical_at.len()).rev() {
            logical_at.swap(i, rng.gen_range(0..=i));
        }
        logical_at
    }

    /// The layout a reorder plan leaves QFT-`n` in over two ranks: bit 0
    /// in place, bits `n-2..=2` reversed above it, then `n-1` and 1.
    fn qft_layout(n: u32) -> Vec<u32> {
        let mut logical_at = vec![0];
        logical_at.extend((2..n - 1).rev());
        logical_at.extend([n - 1, 1]);
        logical_at
    }

    #[test]
    fn gather_matches_the_fold_on_random_permutations() {
        let mut rng = StdRng::seed_from_u64(45);
        for n in 1..=MAX_N {
            for ranks in [1usize, 2, 4, 8].into_iter().filter(|&r| r <= 1 << n) {
                for _ in 0..2 {
                    check(&shuffled(n, &mut rng), ranks, ranks);
                }
            }
        }
    }

    #[test]
    fn gather_matches_the_fold_from_below_one_tile_to_several() {
        // Reversed and QFT-shaped layouts at every width, shards from one
        // amplitude to several tiles wide.
        for n in 1..=MAX_N {
            for ranks in [1usize, 2, 4, 8].into_iter().filter(|&r| r <= 1 << n) {
                check(&(0..n).rev().collect::<Vec<_>>(), ranks, ranks);
                check(&(0..n).collect::<Vec<_>>(), ranks, ranks);
                if n >= 3 {
                    check(&qft_layout(n), ranks, ranks);
                }
            }
        }
    }

    #[test]
    fn a_top_bit_inside_the_tile_runs_on_one_thread() {
        // Logical bit n-1 on physical axis 0, always in the tile.
        let mut rng = StdRng::seed_from_u64(46);
        for n in 2..=MAX_N {
            let mut logical_at = shuffled(n, &mut rng);
            let top = logical_at.iter().position(|&l| l == n - 1).unwrap();
            logical_at.swap(0, top);
            for ranks in [1usize, 2, 4].into_iter().filter(|&r| r <= 1 << n) {
                assert_eq!(check(&logical_at, ranks, 4), 0, "{logical_at:?}");
            }
        }
    }

    #[test]
    fn the_pass_never_runs_more_threads_than_it_is_given() {
        // It splits by as many top logical bits as lie outside the tile
        // and as `threads` allows: every power of two up to 8 for the
        // identity at several tiles, one bit for QFT's layout past two.
        let mut rng = StdRng::seed_from_u64(47);
        for n in [3, 6, MAX_N] {
            for logical_at in [(0..n).collect(), qft_layout(n), shuffled(n, &mut rng)] {
                let low = &logical_at[..n.min(TILE_BITS) as usize];
                let in_tile = |l: u32| l < TILE_BITS || low.contains(&l);
                let free = (0..n).rev().take_while(|&l| !in_tile(l)).count() as u32;
                for threads in 1..=8usize {
                    let helpers = check(&logical_at, 2, threads);
                    let want = (1usize << threads.ilog2().min(free)) - 1;
                    assert_eq!(helpers, want, "{logical_at:?} on {threads} threads");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn a_repeated_axis_is_refused() {
        gather(&[0, 1, 1], &[&distinct(3)], 1);
    }
}
