//! A64FX chip parameters and peak rates.

use crate::cache::CacheParams;

/// Parameter set describing one A64FX-class chip.
///
/// Defaults ([`ChipParams::a64fx`]) reproduce the Fugaku node
/// configuration. Every field is public so experiments can model design
/// variants (the PPA-exploration methodology of the authors' Gem5/McPAT
/// study).
#[derive(Debug, Clone)]
pub struct ChipParams {
    /// Core memory groups on the chip.
    pub n_cmgs: usize,
    /// Compute cores per CMG.
    pub cores_per_cmg: usize,
    /// Base clock in GHz.
    pub freq_ghz: f64,
    /// SVE vector length in bits.
    pub simd_bits: u16,
    /// FMA-capable floating pipelines per core (FLA + FLB).
    pub fma_pipes_per_core: u32,
    /// Instructions decoded/committed per cycle per core.
    pub issue_width: u32,
    /// Per-core L1 data cache.
    pub l1d: CacheParams,
    /// Per-CMG shared L2 cache.
    pub l2: CacheParams,
    /// L1 load bandwidth per core, bytes/cycle (two 64 B ports).
    pub l1_load_bytes_per_cycle: f64,
    /// L1 store bandwidth per core, bytes/cycle.
    pub l1_store_bytes_per_cycle: f64,
    /// L2 bandwidth per CMG in bytes/s (aggregate to its 12 cores).
    pub l2_bw_per_cmg: f64,
    /// HBM2 bandwidth per CMG in bytes/s.
    pub hbm_bw_per_cmg: f64,
    /// HBM2 capacity per CMG in bytes.
    pub hbm_capacity_per_cmg: u64,
}

impl ChipParams {
    /// The Fugaku A64FX configuration.
    pub fn a64fx() -> ChipParams {
        ChipParams {
            n_cmgs: 4,
            cores_per_cmg: 12,
            freq_ghz: 2.0,
            simd_bits: 512,
            fma_pipes_per_core: 2,
            issue_width: 4,
            l1d: CacheParams { size_bytes: 64 * 1024, assoc: 4, line_bytes: 256 },
            l2: CacheParams { size_bytes: 8 * 1024 * 1024, assoc: 16, line_bytes: 256 },
            l1_load_bytes_per_cycle: 128.0,
            l1_store_bytes_per_cycle: 64.0,
            // ~0.8 TB/s L2 read bandwidth per CMG (measured figure from
            // public A64FX microbenchmark literature).
            l2_bw_per_cmg: 800.0e9,
            hbm_bw_per_cmg: 256.0e9,
            hbm_capacity_per_cmg: 8 * (1u64 << 30),
        }
    }

    /// Total compute cores.
    pub fn total_cores(&self) -> usize {
        self.n_cmgs * self.cores_per_cmg
    }

    /// DP flops per cycle per core: 2 pipes × (VL/64) lanes × 2 (FMA).
    pub fn flops_per_cycle_per_core(&self) -> f64 {
        self.fma_pipes_per_core as f64 * (self.simd_bits as f64 / 64.0) * 2.0
    }

    /// Peak double-precision FLOP/s for `cores` active cores at base clock.
    pub fn peak_flops(&self, cores: usize) -> f64 {
        cores as f64 * self.flops_per_cycle_per_core() * self.freq_ghz * 1e9
    }

    /// Peak DP FLOP/s of the full chip.
    pub fn peak_flops_chip(&self) -> f64 {
        self.peak_flops(self.total_cores())
    }

    /// Aggregate HBM2 bandwidth reachable when `active_cmgs` CMGs
    /// participate.
    pub fn peak_membw(&self, active_cmgs: usize) -> f64 {
        active_cmgs.min(self.n_cmgs) as f64 * self.hbm_bw_per_cmg
    }

    /// Aggregate L2 bandwidth for `active_cmgs` CMGs.
    pub fn peak_l2bw(&self, active_cmgs: usize) -> f64 {
        active_cmgs.min(self.n_cmgs) as f64 * self.l2_bw_per_cmg
    }

    /// Total HBM2 capacity in bytes.
    pub fn total_memory(&self) -> u64 {
        self.n_cmgs as u64 * self.hbm_capacity_per_cmg
    }

    /// Largest state-vector qubit count that fits in memory
    /// (16 bytes per amplitude, leaving `reserve_fraction` for the rest of
    /// the application).
    pub fn max_qubits(&self, reserve_fraction: f64) -> u32 {
        let usable = self.total_memory() as f64 * (1.0 - reserve_fraction);
        (usable / 16.0).log2().floor() as u32
    }

    /// Peak instruction issue rate (instructions/s) for `cores` cores.
    pub fn peak_issue_rate(&self, cores: usize) -> f64 {
        cores as f64 * self.issue_width as f64 * self.freq_ghz * 1e9
    }
}

impl Default for ChipParams {
    fn default() -> Self {
        ChipParams::a64fx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a64fx_peaks_match_public_figures() {
        let chip = ChipParams::a64fx();
        assert_eq!(chip.total_cores(), 48);
        // 32 DP flops/cycle/core.
        assert_eq!(chip.flops_per_cycle_per_core(), 32.0);
        // 3.072 TF/s DP at 2.0 GHz.
        assert!((chip.peak_flops_chip() - 3.072e12).abs() < 1e6);
        // 1.024 TB/s HBM2.
        assert!((chip.peak_membw(4) - 1.024e12).abs() < 1e6);
        // 32 GiB memory.
        assert_eq!(chip.total_memory(), 32 * (1u64 << 30));
    }

    #[test]
    fn membw_scales_with_cmgs() {
        let chip = ChipParams::a64fx();
        assert_eq!(chip.peak_membw(1), 256.0e9);
        assert_eq!(chip.peak_membw(2), 512.0e9);
        // Clamped at the chip's CMG count.
        assert_eq!(chip.peak_membw(9), chip.peak_membw(4));
    }

    #[test]
    fn max_qubits_in_32gib() {
        let chip = ChipParams::a64fx();
        // 2^31 amplitudes × 16 B = 32 GiB exactly; with zero reserve the
        // whole memory holds a 31-qubit state.
        assert_eq!(chip.max_qubits(0.0), 31);
        // With half reserved, 30 qubits.
        assert_eq!(chip.max_qubits(0.5), 30);
    }

    #[test]
    fn narrower_simd_variant_halves_peak() {
        let mut chip = ChipParams::a64fx();
        chip.simd_bits = 256;
        assert!((chip.peak_flops_chip() - 1.536e12).abs() < 1e6);
    }

    #[test]
    fn issue_rate() {
        let chip = ChipParams::a64fx();
        assert!((chip.peak_issue_rate(1) - 8.0e9).abs() < 1.0);
    }
}
