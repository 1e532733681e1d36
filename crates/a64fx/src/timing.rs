//! Kernel execution-time prediction.
//!
//! The model is a three-way bottleneck race — the standard first-order
//! analysis for in-order-issue, wide-SIMD chips like the A64FX:
//!
//! ```text
//! T = max( flops / peak_flops,            — FP pipe limit
//!          bytes_level / bw_level,        — memory hierarchy limit
//!          instructions / issue_rate )    — decode/commit limit
//! ```
//!
//! The instruction term is what makes *vector length* matter: halving VL
//! doubles the dynamic instruction count of a VLA loop while flops and
//! bytes stay fixed, so short vectors lose exactly when the kernel is
//! issue-bound — the finding of the authors' SVE VL study.

use sve_sim::{InstrCounts, Vl};

use crate::chip::ChipParams;
use crate::power::PowerMode;

/// The resource profile of one kernel execution.
#[derive(Debug, Clone, Copy)]
pub struct KernelProfile {
    /// Double-precision FLOPs executed.
    pub flops: u64,
    /// Bytes crossing the L2/HBM2 boundary.
    pub mem_bytes: u64,
    /// Bytes crossing the L1/L2 boundary.
    pub l2_bytes: u64,
    /// Dynamic instruction count (scalar estimate; see
    /// [`KernelProfile::from_sve_counts`] for counted SVE kernels).
    pub instructions: u64,
    /// Gather/scatter instructions, which crack into one µop per 128-bit
    /// element pair on the A64FX sequencer.
    pub gather_scatter: u64,
}

impl KernelProfile {
    /// Build a profile from counted SVE instructions at a given VL.
    pub fn from_sve_counts(counts: &InstrCounts, vl: Vl) -> KernelProfile {
        let lanes = vl.lanes_f64() as u64;
        let flops = counts.fma * 2 * lanes
            + counts.farith * lanes
            + counts.reduce * lanes.saturating_sub(1);
        let mem_bytes = counts.mem_instrs() * lanes * 8;
        KernelProfile {
            flops,
            mem_bytes,
            l2_bytes: mem_bytes,
            instructions: counts.total(),
            gather_scatter: counts.gather + counts.scatter,
        }
    }
}

/// Execution context for a prediction: how much of the chip participates.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    pub cores: usize,
    pub active_cmgs: usize,
    pub mode: PowerMode,
}

impl ExecConfig {
    /// Full chip at normal power.
    pub fn full_chip() -> ExecConfig {
        ExecConfig { cores: 48, active_cmgs: 4, mode: PowerMode::Normal }
    }

    /// One core on one CMG.
    pub fn single_core() -> ExecConfig {
        ExecConfig { cores: 1, active_cmgs: 1, mode: PowerMode::Normal }
    }
}

/// The predicted time and its bottleneck decomposition.
#[derive(Debug, Clone, Copy)]
pub struct TimePrediction {
    /// Predicted wall seconds.
    pub seconds: f64,
    /// Time the FP pipes alone would need.
    pub fp_seconds: f64,
    /// Time the memory system alone would need.
    pub mem_seconds: f64,
    /// Time instruction issue alone would need.
    pub issue_seconds: f64,
    /// Which term dominated.
    pub bottleneck: Bottleneck,
}

/// The dominating resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    FloatingPoint,
    Memory,
    Issue,
}

/// Predict the execution time of `profile` on `chip` under `cfg`.
pub fn predict(chip: &ChipParams, profile: &KernelProfile, cfg: &ExecConfig) -> TimePrediction {
    let freq_scale = cfg.mode.frequency_scale();
    let pipe_scale = cfg.mode.fl_pipe_fraction(chip);

    let peak_flops = chip.peak_flops(cfg.cores) * freq_scale * pipe_scale;
    let mem_bw = chip.peak_membw(cfg.active_cmgs);
    let l2_bw = chip.peak_l2bw(cfg.active_cmgs);
    let issue = chip.peak_issue_rate(cfg.cores) * freq_scale;

    let fp_seconds = profile.flops as f64 / peak_flops;
    let mem_seconds = (profile.mem_bytes as f64 / mem_bw).max(profile.l2_bytes as f64 / l2_bw);
    // Gather/scatter cracking: one µop per 128-bit pair ⇒ (VL/128 - 1)
    // extra µops each; at 512-bit VL that's 3 extra µops per instruction.
    let cracked = profile.gather_scatter * (chip.simd_bits as u64 / 128).saturating_sub(1);
    let issue_seconds = (profile.instructions + cracked) as f64 / issue;

    let (seconds, bottleneck) = if fp_seconds >= mem_seconds && fp_seconds >= issue_seconds {
        (fp_seconds, Bottleneck::FloatingPoint)
    } else if mem_seconds >= issue_seconds {
        (mem_seconds, Bottleneck::Memory)
    } else {
        (issue_seconds, Bottleneck::Issue)
    };
    TimePrediction { seconds, fp_seconds, mem_seconds, issue_seconds, bottleneck }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> ChipParams {
        ChipParams::a64fx()
    }

    #[test]
    fn memory_bound_kernel_ignores_vl() {
        // A 1q dense gate on 2^26 amps: 2 GiB of traffic vs 0.5 GFLOP.
        let chip = chip();
        let amps = 1u64 << 26;
        let profile = KernelProfile {
            flops: amps * 8,
            mem_bytes: amps * 32,
            l2_bytes: amps * 32,
            instructions: amps / 8 * 6, // ~6 SVE instrs per 8 amps at VL512
            gather_scatter: 0,
        };
        let p = predict(&chip, &profile, &ExecConfig::full_chip());
        assert_eq!(p.bottleneck, Bottleneck::Memory);
        // Traffic 2 GiB at 1.024 TB/s ≈ 2.1 ms.
        assert!((p.seconds - (amps * 32) as f64 / 1.024e12).abs() < 1e-6);
    }

    #[test]
    fn issue_bound_at_short_vl_memory_bound_at_long() {
        // Same kernel counted at VL128 and VL2048: instruction count
        // shrinks 16×, flipping the bottleneck for an L1-resident kernel.
        let chip = chip();
        let cfg = ExecConfig::single_core();
        let make = |vl_bits: u16| {
            let vl = Vl::new(vl_bits).unwrap();
            let iters = 4096 / vl.lanes_f64() as u64;
            let mut c = InstrCounts::new();
            c.load = 2 * iters;
            c.store = iters;
            c.fma = 4 * iters;
            c.predop = 2 * iters;
            KernelProfile {
                l2_bytes: 0,
                mem_bytes: 0, // L1-resident
                ..KernelProfile::from_sve_counts(&c, vl)
            }
        };
        let short = predict(&chip, &make(128), &cfg);
        let long = predict(&chip, &make(2048), &cfg);
        assert!(short.seconds > long.seconds, "short VL must be slower when issue-bound");
        // FLOPs identical, so the gap is pure issue pressure.
        assert!((short.fp_seconds - long.fp_seconds).abs() / long.fp_seconds < 0.01);
    }

    #[test]
    fn compute_bound_kernel_hits_fp_roof() {
        let chip = chip();
        let profile = KernelProfile {
            flops: 1 << 34, // lots of flops
            mem_bytes: 1 << 20,
            l2_bytes: 1 << 20,
            instructions: 1 << 28,
            gather_scatter: 0,
        };
        let p = predict(&chip, &profile, &ExecConfig::full_chip());
        assert_eq!(p.bottleneck, Bottleneck::FloatingPoint);
        assert!((p.seconds - (1u64 << 34) as f64 / 3.072e12).abs() < 1e-9);
    }

    #[test]
    fn gather_scatter_cracking_penalizes_issue() {
        let chip = chip();
        let cfg = ExecConfig::single_core();
        let base = KernelProfile {
            flops: 1024,
            mem_bytes: 0,
            l2_bytes: 0,
            instructions: 1 << 20,
            gather_scatter: 0,
        };
        let gathered = KernelProfile { gather_scatter: 1 << 20, ..base };
        let p0 = predict(&chip, &base, &cfg);
        let p1 = predict(&chip, &gathered, &cfg);
        // At VL512 each gather cracks into 3 extra µops.
        assert!((p1.issue_seconds / p0.issue_seconds - 4.0).abs() < 1e-9);
    }

    #[test]
    fn eco_mode_leaves_memory_bound_time_unchanged() {
        let chip = chip();
        let amps = 1u64 << 26;
        let profile = KernelProfile {
            flops: amps * 8,
            mem_bytes: amps * 32,
            l2_bytes: amps * 32,
            instructions: amps / 8 * 6,
            gather_scatter: 0,
        };
        let normal = predict(&chip, &profile, &ExecConfig::full_chip());
        let eco = predict(
            &chip,
            &profile,
            &ExecConfig { mode: PowerMode::Eco, ..ExecConfig::full_chip() },
        );
        assert!((eco.seconds - normal.seconds).abs() / normal.seconds < 1e-9);
    }

    #[test]
    fn boost_mode_speeds_compute_bound() {
        let chip = chip();
        let profile = KernelProfile {
            flops: 1 << 34,
            mem_bytes: 1 << 20,
            l2_bytes: 1 << 20,
            instructions: 1 << 28,
            gather_scatter: 0,
        };
        let normal = predict(&chip, &profile, &ExecConfig::full_chip());
        let boost = predict(
            &chip,
            &profile,
            &ExecConfig { mode: PowerMode::Boost, ..ExecConfig::full_chip() },
        );
        assert!((normal.seconds / boost.seconds - 1.1).abs() < 1e-9, "boost = +10% clock");
    }

    #[test]
    fn more_cores_do_not_help_past_bandwidth() {
        let chip = chip();
        let amps = 1u64 << 26;
        let profile = KernelProfile {
            flops: amps * 8,
            mem_bytes: amps * 32,
            l2_bytes: amps * 32,
            instructions: amps / 8 * 6,
            gather_scatter: 0,
        };
        let twelve = predict(
            &chip,
            &profile,
            &ExecConfig { cores: 12, active_cmgs: 4, mode: PowerMode::Normal },
        );
        let fortyeight = predict(&chip, &profile, &ExecConfig::full_chip());
        // Both are memory-bound at the same 4-CMG bandwidth.
        assert!((twelve.seconds - fortyeight.seconds).abs() / fortyeight.seconds < 1e-9);
    }
}
