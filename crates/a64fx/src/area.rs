//! First-order silicon-area model (the "A" of the PPA exploration).
//!
//! Calibrated loosely to the published A64FX physical design (~400 mm² at
//! TSMC 7 nm, 48+4 cores, 32 MiB L2, HBM2 interfaces): good enough to
//! rank design variants, which is all the E10 exploration asks of it.
//! The decomposition follows McPAT's structure: per-core area splits into
//! a SIMD-width-proportional FPU/register part and a fixed scalar part;
//! SRAM scales with capacity; uncore is constant.

use crate::chip::ChipParams;

/// Area model constants at the 7 nm reference node (mm²).
#[derive(Debug, Clone, Copy)]
pub struct AreaParams {
    /// Scalar core front-end + integer + L1 (SIMD-independent).
    pub core_fixed_mm2: f64,
    /// FPU + vector register file per 128 bits of SIMD per pipe.
    pub simd_mm2_per_128b_per_pipe: f64,
    /// SRAM density: mm² per MiB of L2.
    pub l2_mm2_per_mib: f64,
    /// Memory interfaces, network, ring — per chip.
    pub uncore_mm2: f64,
}

impl AreaParams {
    /// 7 nm reference values that reproduce ≈ 400 mm² for the A64FX
    /// configuration.
    pub fn tsmc7() -> AreaParams {
        AreaParams {
            core_fixed_mm2: 1.8,
            simd_mm2_per_128b_per_pipe: 0.3,
            l2_mm2_per_mib: 1.5,
            uncore_mm2: 150.0,
        }
    }

    /// Area scale factor for a technology shrink (published SRAM/logic
    /// compound scaling, 7 nm → 5 nm ≈ 0.6×, 7 nm → 3 nm ≈ 0.36×).
    pub fn node_scale(node_nm: u32) -> f64 {
        match node_nm {
            7 => 1.0,
            5 => 0.6,
            3 => 0.36,
            other => panic!("no scaling data for {other} nm"),
        }
    }
}

/// Area report for one chip variant.
#[derive(Debug, Clone, Copy)]
pub struct AreaReport {
    pub core_mm2: f64,
    pub cores_total_mm2: f64,
    pub l2_mm2: f64,
    pub uncore_mm2: f64,
    pub chip_mm2: f64,
}

/// Estimate the silicon area of `chip` at `node_nm`.
pub fn estimate(chip: &ChipParams, params: &AreaParams, node_nm: u32) -> AreaReport {
    let scale = AreaParams::node_scale(node_nm);
    let simd_units = (chip.simd_bits as f64 / 128.0) * chip.fma_pipes_per_core as f64;
    let core = (params.core_fixed_mm2 + simd_units * params.simd_mm2_per_128b_per_pipe) * scale;
    let cores_total = core * chip.total_cores() as f64;
    let l2_mib = chip.n_cmgs as f64 * chip.l2.size_bytes as f64 / (1u64 << 20) as f64;
    let l2 = l2_mib * params.l2_mm2_per_mib * scale;
    let uncore = params.uncore_mm2 * scale;
    AreaReport {
        core_mm2: core,
        cores_total_mm2: cores_total,
        l2_mm2: l2,
        uncore_mm2: uncore,
        chip_mm2: cores_total + l2 + uncore,
    }
}

/// GFLOP/s per mm² at peak — the figure of merit the PPA study ranks
/// variants by (together with perf/W).
pub fn peak_gflops_per_mm2(chip: &ChipParams, params: &AreaParams, node_nm: u32) -> f64 {
    chip.peak_flops_chip() / 1e9 / estimate(chip, params, node_nm).chip_mm2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a64fx_reference_area_is_about_400mm2() {
        let chip = ChipParams::a64fx();
        let r = estimate(&chip, &AreaParams::tsmc7(), 7);
        assert!(
            (350.0..450.0).contains(&r.chip_mm2),
            "A64FX estimate should be ≈400 mm², got {:.0}",
            r.chip_mm2
        );
        // Decomposition adds up.
        assert!((r.cores_total_mm2 + r.l2_mm2 + r.uncore_mm2 - r.chip_mm2).abs() < 1e-9);
    }

    #[test]
    fn wider_simd_costs_area() {
        let params = AreaParams::tsmc7();
        let mut narrow = ChipParams::a64fx();
        narrow.simd_bits = 128;
        let mut wide = ChipParams::a64fx();
        wide.simd_bits = 2048;
        let a_narrow = estimate(&narrow, &params, 7).chip_mm2;
        let a_wide = estimate(&wide, &params, 7).chip_mm2;
        assert!(a_wide > a_narrow + 50.0, "{a_narrow} vs {a_wide}");
    }

    #[test]
    fn node_shrink_scales_area() {
        let chip = ChipParams::a64fx();
        let params = AreaParams::tsmc7();
        let a7 = estimate(&chip, &params, 7).chip_mm2;
        let a3 = estimate(&chip, &params, 3).chip_mm2;
        assert!((a3 / a7 - 0.36).abs() < 1e-9);
    }

    #[test]
    fn perf_per_area_favors_wider_simd_at_peak() {
        // At *peak* (ignoring memory limits) wider SIMD always wins on
        // perf/area because FLOPs scale linearly but only part of the
        // area does. (E10 then shows why this is misleading for
        // memory-bound workloads.)
        let params = AreaParams::tsmc7();
        let mut base = ChipParams::a64fx();
        let f512 = peak_gflops_per_mm2(&base, &params, 7);
        base.simd_bits = 1024;
        let f1024 = peak_gflops_per_mm2(&base, &params, 7);
        assert!(f1024 > f512);
    }

    #[test]
    #[should_panic(expected = "no scaling data")]
    fn unknown_node_rejected() {
        let _ = AreaParams::node_scale(10);
    }
}
