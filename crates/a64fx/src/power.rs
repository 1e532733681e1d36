//! A64FX power-management knobs and energy estimation.
//!
//! Follows the authors' Fugaku power-management evaluation, which
//! characterizes three chip modes:
//!
//! * **Normal** — 2.0 GHz, both FLA/FLB pipes.
//! * **Eco** — 2.0 GHz, one floating pipe with reduced supply voltage:
//!   roughly the same performance for memory-bound code at ~20% less
//!   core power.
//! * **Boost** — 2.2 GHz (+10% clock) at ~+17% power.
//!
//! Their study also covers *core retention* (parking unused cores), which
//! we model with the `parked_cores` term of [`EnergyEstimate::estimate`].

use crate::chip::ChipParams;

/// Chip power mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerMode {
    Normal,
    /// One floating pipe, reduced voltage.
    Eco,
    /// +10% clock, +17% power.
    Boost,
}

impl PowerMode {
    /// Clock multiplier relative to base.
    pub fn frequency_scale(self) -> f64 {
        match self {
            PowerMode::Normal | PowerMode::Eco => 1.0,
            PowerMode::Boost => 1.1,
        }
    }

    /// Fraction of the chip's FMA pipes that remain active.
    pub fn fl_pipe_fraction(self, chip: &ChipParams) -> f64 {
        match self {
            PowerMode::Normal | PowerMode::Boost => 1.0,
            PowerMode::Eco => 1.0 / chip.fma_pipes_per_core as f64,
        }
    }

    /// Active power per core in watts (calibrated to the ~120 W core-part
    /// envelope of the 48-core chip under HPL-like load).
    pub fn watts_per_core(self) -> f64 {
        match self {
            PowerMode::Normal => 2.5,
            PowerMode::Eco => 2.0,
            PowerMode::Boost => 2.5 * 1.17,
        }
    }
}

/// Power of a parked (retention) core in watts.
pub const RETENTION_WATTS: f64 = 0.25;

/// Uncore + HBM2 power floor for the chip in watts (memory controllers,
/// network interface, caches).
pub const UNCORE_WATTS: f64 = 60.0;

/// An energy estimate for one kernel/application run.
#[derive(Debug, Clone, Copy)]
pub struct EnergyEstimate {
    /// Average power draw in watts.
    pub watts: f64,
    /// Total energy in joules.
    pub joules: f64,
    /// Energy efficiency in flops/joule, if flops were reported.
    pub flops_per_joule: Option<f64>,
}

impl EnergyEstimate {
    /// Estimate energy for a run of `seconds` on `active_cores` cores in
    /// `mode`, with the chip's remaining cores in retention.
    pub fn estimate(
        chip: &ChipParams,
        mode: PowerMode,
        active_cores: usize,
        seconds: f64,
        flops: Option<u64>,
    ) -> EnergyEstimate {
        let parked = chip.total_cores().saturating_sub(active_cores);
        let watts = UNCORE_WATTS
            + active_cores as f64 * mode.watts_per_core()
            + parked as f64 * RETENTION_WATTS;
        let joules = watts * seconds;
        EnergyEstimate { watts, joules, flops_per_joule: flops.map(|f| f as f64 / joules) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> ChipParams {
        ChipParams::a64fx()
    }

    #[test]
    fn boost_is_ten_percent_clock_seventeen_percent_power() {
        assert!((PowerMode::Boost.frequency_scale() - 1.1).abs() < 1e-12);
        let ratio = PowerMode::Boost.watts_per_core() / PowerMode::Normal.watts_per_core();
        assert!((ratio - 1.17).abs() < 1e-12);
    }

    #[test]
    fn eco_halves_pipes_on_a64fx() {
        assert_eq!(PowerMode::Eco.fl_pipe_fraction(&chip()), 0.5);
        assert_eq!(PowerMode::Normal.fl_pipe_fraction(&chip()), 1.0);
    }

    #[test]
    fn eco_saves_power_at_full_chip() {
        let c = chip();
        let normal = EnergyEstimate::estimate(&c, PowerMode::Normal, 48, 1.0, None);
        let eco = EnergyEstimate::estimate(&c, PowerMode::Eco, 48, 1.0, None);
        assert!(eco.watts < normal.watts);
        // 48 cores × 0.5 W saved = 24 W out of 180 W ≈ 13%.
        assert!((normal.watts - eco.watts - 24.0).abs() < 1e-9);
    }

    #[test]
    fn retention_cheaper_than_active() {
        let c = chip();
        let all_active = EnergyEstimate::estimate(&c, PowerMode::Normal, 48, 2.0, None);
        let half_parked = EnergyEstimate::estimate(&c, PowerMode::Normal, 24, 2.0, None);
        assert!(half_parked.watts < all_active.watts);
        assert_eq!(half_parked.joules, half_parked.watts * 2.0);
    }

    #[test]
    fn flops_per_joule_reported() {
        let c = chip();
        let e = EnergyEstimate::estimate(&c, PowerMode::Normal, 48, 1.0, Some(3_072_000_000_000));
        let fpj = e.flops_per_joule.unwrap();
        // 3.072 TF in 1 s at 180 W = ~17 GF/J.
        assert!((fpj - 3.072e12 / e.watts).abs() < 1.0);
    }
}
