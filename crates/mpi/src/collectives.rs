//! Collective operations built over point-to-point messaging.
//!
//! Algorithms follow the textbook implementations MPI libraries use at
//! small-to-medium scale: binomial trees for `bcast`/`reduce`, linear
//! gather, recursive-doubling barrier, and direct-exchange `alltoall`.
//! All collectives use a reserved high tag range so they never collide
//! with user point-to-point traffic.

use crate::comm::Comm;
use crate::datatype::Pod;

/// Reserved tag base for collective traffic.
const COLL_TAG: u32 = 0xC011_0000;

/// Element-wise reduction operators for numeric collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

impl ReduceOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

impl Comm {
    /// Synchronize all ranks (recursive doubling: ⌈log₂ n⌉ rounds).
    pub fn barrier(&mut self) {
        let n = self.size();
        let me = self.rank();
        let mut dist = 1;
        while dist < n {
            let peer = me ^ dist;
            // A rank left without a partner this round sits it out.
            if peer < n {
                let _ = self.sendrecv::<u8>(peer, COLL_TAG + 1, &[1]);
            }
            dist <<= 1;
        }
        // A final centralized confirmation round makes the barrier correct
        // for every world size (the doubling rounds above are then an
        // optimization, not a correctness requirement).
        if me == 0 {
            for r in 1..n {
                let _ = self.recv::<u8>(r, COLL_TAG + 2);
            }
            for r in 1..n {
                self.send(r, COLL_TAG + 3, &[1u8]);
            }
        } else {
            self.send(0, COLL_TAG + 2, &[1u8]);
            let _ = self.recv::<u8>(0, COLL_TAG + 3);
        }
    }

    /// Broadcast `data` from `root` to all ranks (binomial tree).
    pub fn bcast<T: Pod>(&mut self, root: usize, data: &mut Vec<T>) {
        let n = self.size();
        if n == 1 {
            return;
        }
        // Work in a root-relative rank space so any root works.
        let vrank = (self.rank() + n - root) % n;
        // Receive from parent (highest set bit).
        if vrank != 0 {
            let parent_v = vrank & (vrank - 1); // clear lowest set bit
            let parent = (parent_v + root) % n;
            *data = self.recv::<T>(parent, COLL_TAG + 4);
        }
        // Forward to children: vrank + 2^k for each k below our lowest
        // set bit (or all k for the root).
        let lowest = if vrank == 0 { usize::BITS } else { vrank.trailing_zeros() };
        for k in (0..lowest).take_while(|&k| 1usize << k < n) {
            let child_v = vrank | (1 << k);
            if child_v < n {
                self.send((child_v + root) % n, COLL_TAG + 4, data);
            }
        }
    }

    /// Gather each rank's `data` at `root`; returns `Some(concatenated)`
    /// at the root (rank order), `None` elsewhere.
    pub fn gather<T: Pod>(&mut self, root: usize, data: &[T]) -> Option<Vec<T>> {
        if self.rank() == root {
            let mut out = Vec::with_capacity(data.len() * self.size());
            for r in 0..self.size() {
                if r == root {
                    out.extend_from_slice(data);
                } else {
                    let part = self.recv::<T>(r, COLL_TAG + 5);
                    out.extend(part);
                }
            }
            Some(out)
        } else {
            self.send(root, COLL_TAG + 5, data);
            None
        }
    }

    /// All ranks receive the concatenation of every rank's `data`
    /// (gather at 0 + bcast).
    pub fn allgather<T: Pod>(&mut self, data: &[T]) -> Vec<T> {
        let gathered = self.gather(0, data);
        let mut buf = gathered.unwrap_or_default();
        self.bcast(0, &mut buf);
        buf
    }

    /// Element-wise reduce of equal-length `f64` slices to `root`.
    pub fn reduce(&mut self, root: usize, op: ReduceOp, data: &[f64]) -> Option<Vec<f64>> {
        if self.rank() == root {
            let mut acc = data.to_vec();
            for r in 0..self.size() {
                if r == root {
                    continue;
                }
                let part = self.recv::<f64>(r, COLL_TAG + 6);
                assert_eq!(part.len(), acc.len(), "reduce length mismatch from rank {r}");
                for (a, b) in acc.iter_mut().zip(part) {
                    *a = op.apply(*a, b);
                }
            }
            Some(acc)
        } else {
            self.send(root, COLL_TAG + 6, data);
            None
        }
    }

    /// Element-wise allreduce (reduce to 0 + bcast). Deterministic: the
    /// root combines contributions in rank order.
    pub fn allreduce(&mut self, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        let reduced = self.reduce(0, op, data);
        let mut buf = reduced.unwrap_or_default();
        self.bcast(0, &mut buf);
        buf
    }

    /// Scalar sum allreduce convenience.
    pub fn allreduce_scalar(&mut self, op: ReduceOp, x: f64) -> f64 {
        self.allreduce(op, &[x])[0]
    }

    /// Scatter: root splits `data` (one chunk per rank, equal length)
    /// and sends chunk `r` to rank `r`; every rank returns its chunk.
    pub fn scatter<T: Pod>(&mut self, root: usize, data: Option<&[T]>) -> Vec<T> {
        let n = self.size();
        if self.rank() == root {
            let data = data.expect("root must provide the scatter data");
            assert!(data.len().is_multiple_of(n), "scatter data must divide evenly across ranks");
            let chunk = data.len() / n;
            for r in 0..n {
                if r != root {
                    self.send(r, COLL_TAG + 8, &data[r * chunk..(r + 1) * chunk]);
                }
            }
            data[root * chunk..(root + 1) * chunk].to_vec()
        } else {
            self.recv::<T>(root, COLL_TAG + 8)
        }
    }

    /// Exclusive prefix scan (sum): rank `r` receives the sum of the
    /// values contributed by ranks `0..r` (rank 0 gets 0).
    pub fn exscan_sum(&mut self, x: f64) -> f64 {
        // Linear pipeline: rank r receives the prefix from r-1, forwards
        // prefix + x to r+1.
        let me = self.rank();
        let prefix = if me == 0 { 0.0 } else { self.recv::<f64>(me - 1, COLL_TAG + 9)[0] };
        if me + 1 < self.size() {
            self.send(me + 1, COLL_TAG + 9, &[prefix + x]);
        }
        prefix
    }

    /// Reduce-scatter (sum): element-wise sum of every rank's
    /// `data` (length = world size × `chunk`), with rank `r` receiving
    /// chunk `r` of the result.
    pub fn reduce_scatter_sum(&mut self, data: &[f64], chunk: usize) -> Vec<f64> {
        assert_eq!(data.len(), self.size() * chunk, "data must be world_size × chunk long");
        let summed = self.reduce(0, ReduceOp::Sum, data);
        let root_data = summed.unwrap_or_default();
        self.scatter(0, if self.rank() == 0 { Some(&root_data[..]) } else { None })
    }

    /// Personalized all-to-all: `chunks[r]` goes to rank `r`; returns the
    /// chunks received, indexed by source rank.
    #[allow(clippy::needless_range_loop)] // peer is a rank id, not just an index
    pub fn alltoall<T: Pod>(&mut self, chunks: &[Vec<T>]) -> Vec<Vec<T>> {
        let n = self.size();
        assert_eq!(chunks.len(), n, "alltoall needs one chunk per rank");
        let me = self.rank();
        let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        out[me] = chunks[me].clone();
        // Pairwise exchange rounds (XOR schedule for power-of-two, plus a
        // linear fallback for the rest): here every pair (me, peer) simply
        // exchanges directly; channels are buffered so ordering is free.
        for peer in 0..n {
            if peer == me {
                continue;
            }
            self.send(peer, COLL_TAG + 7, &chunks[peer]);
        }
        for peer in 0..n {
            if peer == me {
                continue;
            }
            out[peer] = self.recv::<T>(peer, COLL_TAG + 7);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;
    use crate::run_clean_and_faulted;

    #[test]
    fn barrier_completes_all_world_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8] {
            run_clean_and_faulted(n, |c| {
                for _ in 0..3 {
                    c.barrier();
                }
            });
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for n in [1usize, 2, 3, 4, 6, 8] {
            for root in 0..n {
                let results = run_clean_and_faulted(n, move |c| {
                    let mut data =
                        if c.rank() == root { vec![root as u64, 17, 23] } else { Vec::new() };
                    c.bcast(root, &mut data);
                    data
                });
                for r in results {
                    assert_eq!(r, vec![root as u64, 17, 23], "n={n} root={root}");
                }
            }
        }
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        let results = run_clean_and_faulted(4, |c| {
            c.gather(2, &[c.rank() as u32 * 2, c.rank() as u32 * 2 + 1])
        });
        for (r, res) in results.iter().enumerate() {
            if r == 2 {
                assert_eq!(res.as_deref(), Some(&[0u32, 1, 2, 3, 4, 5, 6, 7][..]));
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        let results = run_clean_and_faulted(5, |c| c.allgather(&[c.rank() as u64]));
        for r in results {
            assert_eq!(r, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn allreduce_sum_min_max() {
        let results = run_clean_and_faulted(6, |c| {
            let x = c.rank() as f64 + 1.0; // 1..=6
            (
                c.allreduce_scalar(ReduceOp::Sum, x),
                c.allreduce_scalar(ReduceOp::Min, x),
                c.allreduce_scalar(ReduceOp::Max, x),
            )
        });
        for (s, mn, mx) in results {
            assert_eq!(s, 21.0);
            assert_eq!(mn, 1.0);
            assert_eq!(mx, 6.0);
        }
    }

    #[test]
    fn allreduce_vector_elementwise() {
        let results = run_clean_and_faulted(3, |c| {
            let me = c.rank() as f64;
            c.allreduce(ReduceOp::Sum, &[me, 10.0 * me])
        });
        for r in results {
            assert_eq!(r, vec![3.0, 30.0]);
        }
    }

    #[test]
    fn allreduce_deterministic_ordering() {
        // Summation happens in rank order at the root: two runs give
        // bit-identical results even with rounding-sensitive values.
        let vals: Vec<f64> = (0..7).map(|r| 0.1 * (r as f64 + 1.0)).collect();
        let run = || {
            let vals = vals.clone();
            run_clean_and_faulted(7, move |c| c.allreduce_scalar(ReduceOp::Sum, vals[c.rank()]))
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn alltoall_transposes() {
        let results = run_clean_and_faulted(4, |c| {
            let me = c.rank() as u64;
            // chunk sent to rank r = [me*10 + r]
            let chunks: Vec<Vec<u64>> = (0..4).map(|r| vec![me * 10 + r as u64]).collect();
            c.alltoall(&chunks)
        });
        // Rank r receives from src s the value s*10 + r.
        for (r, recvd) in results.iter().enumerate() {
            for (s, chunk) in recvd.iter().enumerate() {
                assert_eq!(chunk, &vec![s as u64 * 10 + r as u64]);
            }
        }
    }

    #[test]
    fn alltoall_variable_sizes() {
        let results = run_clean_and_faulted(3, |c| {
            let me = c.rank();
            // Send r copies of `me` to rank r.
            let chunks: Vec<Vec<u64>> = (0..3).map(|r| vec![me as u64; r]).collect();
            c.alltoall(&chunks)
        });
        for (r, recvd) in results.iter().enumerate() {
            for (s, chunk) in recvd.iter().enumerate() {
                assert_eq!(chunk.len(), r, "rank {r} from {s}");
                assert!(chunk.iter().all(|&v| v == s as u64));
            }
        }
    }

    #[test]
    fn reduce_non_root_gets_none() {
        let results = run_clean_and_faulted(2, |c| c.reduce(0, ReduceOp::Sum, &[1.0]));
        assert_eq!(results[0], Some(vec![2.0]));
        assert_eq!(results[1], None);
    }

    #[test]
    fn scatter_distributes_chunks() {
        let results = run_clean_and_faulted(4, |c| {
            let data: Vec<u64> = (0..8).collect();

            c.scatter(1, if c.rank() == 1 { Some(&data[..]) } else { None })
        });
        for (r, chunk) in results.iter().enumerate() {
            assert_eq!(chunk, &vec![2 * r as u64, 2 * r as u64 + 1]);
        }
    }

    #[test]
    fn exscan_computes_exclusive_prefixes() {
        let results = run_clean_and_faulted(5, |c| c.exscan_sum((c.rank() + 1) as f64));
        // Contributions 1,2,3,4,5 → prefixes 0,1,3,6,10.
        assert_eq!(results, vec![0.0, 1.0, 3.0, 6.0, 10.0]);
    }

    #[test]
    fn reduce_scatter_sums_and_splits() {
        let results = run_clean_and_faulted(3, |c| {
            // Rank r contributes [r, r, r, r, r, r] (3 ranks × chunk 2).
            let data = vec![c.rank() as f64; 6];
            c.reduce_scatter_sum(&data, 2)
        });
        // Element-wise sum = 0+1+2 = 3 everywhere; each rank gets 2 of them.
        for r in results {
            assert_eq!(r, vec![3.0, 3.0]);
        }
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn scatter_uneven_rejected() {
        // Only the root participates: the length assert fires before any
        // message is sent, so the other rank must not block in recv
        // (a blocked peer would stall thread::scope's join until the
        // substrate's recv timeout).
        World::run(2, |c| {
            if c.rank() == 0 {
                let data = [1u8, 2, 3];
                let _ = c.scatter(0, Some(&data[..]));
            }
        });
    }
}
