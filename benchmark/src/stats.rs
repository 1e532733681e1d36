//! Estimators.
//!
//! The host's interference comes in two kinds. Multi-second bursts slow
//! a repetition about 2x, which the minimum of R repetitions ignores;
//! and the DRAM-bound workload's floor itself moves with the
//! neighbours' memory traffic (its best-of-R shifted by 26 % between
//! two ten-run sets an hour apart, its median by 17 %). The median over
//! a window of many repetitions is the estimator that held up under
//! both, so every end-to-end timing is a median or a total over all
//! repetitions; the best one and the spread are printed beside them.

/// Smallest sample (the best-of-R estimator). `None` when empty.
pub fn best_of(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

/// Linear-interpolated quantile, `q` in `[0, 1]`, of unsorted samples.
/// `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Largest sample over smallest: 1.0 on a quiet host, ~2 when a burst
/// hit part of the window.
pub fn max_over_min(samples: &[f64]) -> Option<f64> {
    let min = best_of(samples)?;
    let max = samples.iter().copied().reduce(f64::max)?;
    (min > 0.0).then(|| max / min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_is_the_minimum_and_ignores_bursts() {
        let quiet = [0.33, 0.34, 0.33, 0.35];
        let burst = [0.33, 0.74, 0.88, 0.34];
        assert_eq!(best_of(&quiet), Some(0.33));
        assert_eq!(best_of(&burst), best_of(&quiet));
        assert_eq!(best_of(&[]), None);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.25), Some(1.75));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn max_over_min_flags_a_burst() {
        assert_eq!(max_over_min(&[2.0, 2.0]), Some(1.0));
        assert_eq!(max_over_min(&[0.4, 0.8, 0.5]), Some(2.0));
        assert_eq!(max_over_min(&[]), None);
    }
}
