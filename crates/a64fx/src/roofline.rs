//! Roofline-model arithmetic.
//!
//! `attainable = min(peak_flops, AI × bandwidth)` — the single most-used
//! chart in A64FX performance analysis. The ridge point of the Fugaku
//! configuration is 3 flop/byte; every unfused state-vector kernel sits
//! far to its left, which is *the* reason the paper's analysis is a
//! bandwidth story.

use crate::chip::ChipParams;

/// Attainable performance (FLOP/s) at arithmetic intensity `ai`
/// (flop/byte) under the given peaks.
pub fn attainable_gflops(ai: f64, peak_flops: f64, bandwidth: f64) -> f64 {
    (ai * bandwidth).min(peak_flops)
}

/// The ridge point (flop/byte) where the memory roof meets the compute
/// roof.
pub fn ridge_point(peak_flops: f64, bandwidth: f64) -> f64 {
    peak_flops / bandwidth
}

/// One point on a roofline chart.
#[derive(Debug, Clone, Copy)]
pub struct RooflinePoint {
    /// Label-free kernel identifier supplied by the caller.
    pub ai: f64,
    /// Attainable FLOP/s at this AI.
    pub attainable: f64,
    /// Fraction of chip peak.
    pub efficiency: f64,
    /// True if on the slanted (memory) part of the roof.
    pub memory_bound: bool,
}

/// Evaluate a kernel's position on the chip roofline.
pub fn place(chip: &ChipParams, ai: f64, cores: usize, active_cmgs: usize) -> RooflinePoint {
    let peak = chip.peak_flops(cores);
    let bw = chip.peak_membw(active_cmgs);
    let attainable = attainable_gflops(ai, peak, bw);
    RooflinePoint {
        ai,
        attainable,
        efficiency: attainable / peak,
        memory_bound: ai < ridge_point(peak, bw),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a64fx_ridge_point_is_three() {
        let chip = ChipParams::a64fx();
        let r = ridge_point(chip.peak_flops_chip(), chip.peak_membw(4));
        assert!((r - 3.0).abs() < 1e-9);
    }

    #[test]
    fn attainable_clamps_at_peak() {
        assert_eq!(attainable_gflops(100.0, 3.0e12, 1.0e12), 3.0e12);
        assert_eq!(attainable_gflops(1.0, 3.0e12, 1.0e12), 1.0e12);
    }

    #[test]
    fn below_ridge_is_memory_bound() {
        let chip = ChipParams::a64fx();
        let p = place(&chip, 0.25, 48, 4);
        assert!(p.memory_bound);
        // 0.25 flop/byte × 1.024 TB/s = 256 GF/s = 1/12 of peak.
        assert!((p.attainable - 256.0e9).abs() < 1e3);
        assert!((p.efficiency - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn above_ridge_is_compute_bound() {
        let chip = ChipParams::a64fx();
        let p = place(&chip, 10.0, 48, 4);
        assert!(!p.memory_bound);
        assert_eq!(p.attainable, chip.peak_flops_chip());
        assert_eq!(p.efficiency, 1.0);
    }

    #[test]
    fn fewer_cmgs_lower_slanted_roof() {
        let chip = ChipParams::a64fx();
        let full = place(&chip, 0.25, 12, 4);
        let one = place(&chip, 0.25, 12, 1);
        assert!((full.attainable / one.attainable - 4.0).abs() < 1e-9);
    }
}
