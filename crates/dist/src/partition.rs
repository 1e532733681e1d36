//! Ownership arithmetic for the block-distributed state vector.

use crate::error::DistError;

/// The split of an `n`-qubit state across `2^g` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    n_qubits: u32,
    /// log₂ of the rank count.
    g: u32,
}

impl Partition {
    /// Build a partition of `n_qubits` over `n_ranks` ranks.
    ///
    /// `n_ranks` must be a power of two, and enough qubits must stay
    /// local for every gate to be executable (≥ 3 local); anything else
    /// is [`DistError::Partition`]. This is the only place the geometry
    /// is checked: whoever holds a `Partition` holds a valid one.
    pub fn new(n_qubits: u32, n_ranks: usize) -> Result<Partition, DistError> {
        let g = n_ranks.trailing_zeros();
        if !n_ranks.is_power_of_two() || g + 3 > n_qubits {
            return Err(DistError::Partition { n_qubits, n_ranks });
        }
        Ok(Partition { n_qubits, g })
    }

    /// Total qubits.
    #[inline]
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Local qubits per rank.
    #[inline]
    pub fn n_local(&self) -> u32 {
        self.n_qubits - self.g
    }

    /// Global (distributed) qubits.
    #[inline]
    pub fn n_global(&self) -> u32 {
        self.g
    }

    /// Number of ranks.
    #[inline]
    pub fn n_ranks(&self) -> usize {
        1usize << self.g
    }

    /// Amplitudes held by each rank.
    #[inline]
    pub fn local_len(&self) -> usize {
        1usize << self.n_local()
    }

    /// Is qubit `q` local?
    #[inline]
    pub fn is_local(&self, q: u32) -> bool {
        q < self.n_local()
    }

    /// The global-bit position of qubit `q` within the rank index
    /// (panics if `q` is local).
    #[inline]
    pub fn global_bit(&self, q: u32) -> u32 {
        assert!(!self.is_local(q), "qubit {q} is local");
        q - self.n_local()
    }

    /// The value global qubit `q`'s bit takes on every amplitude `rank`
    /// holds.
    #[inline]
    pub fn rank_bit(&self, rank: usize, q: u32) -> usize {
        (rank >> self.global_bit(q)) & 1
    }

    /// The rank owning global amplitude index `i`.
    #[inline]
    pub fn owner(&self, i: usize) -> usize {
        i >> self.n_local()
    }

    /// The local offset of global amplitude index `i`.
    #[inline]
    pub fn local_index(&self, i: usize) -> usize {
        i & (self.local_len() - 1)
    }

    /// Reassemble the global index from (rank, local offset).
    #[inline]
    pub fn global_index(&self, rank: usize, local: usize) -> usize {
        (rank << self.n_local()) | local
    }

    /// Partner rank for a pair exchange on global qubit `q`.
    #[inline]
    pub fn partner(&self, rank: usize, q: u32) -> usize {
        rank ^ (1usize << self.global_bit(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_arithmetic() {
        let p = Partition::new(10, 4).unwrap();
        assert_eq!(p.n_local(), 8);
        assert_eq!(p.n_global(), 2);
        assert_eq!(p.n_ranks(), 4);
        assert_eq!(p.local_len(), 256);
        assert!(p.is_local(7));
        assert!(!p.is_local(8));
        assert_eq!(p.global_bit(8), 0);
        assert_eq!(p.global_bit(9), 1);
    }

    #[test]
    fn ownership_roundtrip() {
        let p = Partition::new(8, 8).unwrap();
        for i in 0..(1usize << 8) {
            let r = p.owner(i);
            let l = p.local_index(i);
            assert_eq!(p.global_index(r, l), i);
            assert!(r < 8);
            assert!(l < p.local_len());
        }
    }

    #[test]
    fn single_rank_world() {
        let p = Partition::new(5, 1).unwrap();
        assert_eq!(p.n_global(), 0);
        assert_eq!(p.local_len(), 32);
        assert_eq!(p.owner(31), 0);
    }

    #[test]
    fn partner_flips_one_bit() {
        let p = Partition::new(10, 8).unwrap(); // local = 7
        assert_eq!(p.partner(0b000, 7), 0b001);
        assert_eq!(p.partner(0b101, 8), 0b111);
        assert_eq!(p.partner(0b101, 9), 0b001);
        // Partnering is an involution.
        for r in 0..8usize {
            for q in 7..10u32 {
                assert_eq!(p.partner(p.partner(r, q), q), r);
            }
        }
    }

    #[test]
    fn bad_geometries_are_typed_errors() {
        for (n_qubits, n_ranks, why) in
            [(10, 3, "power of two"), (10, 0, "power of two"), (4, 4, "fewer than 3 local")]
        {
            let err = Partition::new(n_qubits, n_ranks).unwrap_err();
            assert_eq!(err, DistError::Partition { n_qubits, n_ranks });
            assert!(err.to_string().contains(why), "{err}");
        }
    }
}
