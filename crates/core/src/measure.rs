//! Measurement: single-qubit collapse and multi-shot sampling.

use rand::Rng;

use crate::complex::C64;
use crate::state::StateVector;

/// Outcome of a projective single-qubit measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasurementResult {
    pub qubit: u32,
    /// Observed bit.
    pub outcome: u8,
}

/// Measure qubit `q` projectively, collapsing the state, using `rng` for
/// the Born-rule draw.
///
/// Exactly two state sweeps: one read-only probability pass, one
/// project-and-renormalize pass ([`collapse_with_prob`] reuses the
/// probability instead of recomputing it).
pub fn measure_qubit<R: Rng>(state: &mut StateVector, q: u32, rng: &mut R) -> MeasurementResult {
    let p1 = state.prob_qubit_one(q);
    let outcome = u8::from(rng.gen_range(0.0..1.0) < p1);
    let p = if outcome == 1 { p1 } else { 1.0 - p1 };
    collapse_with_prob(state, q, outcome, p);
    MeasurementResult { qubit: q, outcome }
}

/// Project qubit `q` onto `outcome` and renormalize.
///
/// Panics if the outcome has (near-)zero probability — projecting onto an
/// impossible branch is a caller bug.
pub fn collapse(state: &mut StateVector, q: u32, outcome: u8) {
    let p1 = state.prob_qubit_one(q);
    let p = if outcome == 1 { p1 } else { 1.0 - p1 };
    collapse_with_prob(state, q, outcome, p);
}

/// [`collapse`] with the outcome probability already known — the single
/// write sweep. Callers that just measured the qubit pass the Born
/// probability through instead of paying a second read sweep.
pub fn collapse_with_prob(state: &mut StateVector, q: u32, outcome: u8, p: f64) {
    let bit = 1usize << q;
    let keep_set = outcome == 1;
    assert!(p > 1e-14, "collapsing qubit {q} onto probability-{p} outcome {outcome}");
    let scale = 1.0 / p.sqrt();
    for (i, a) in state.amplitudes_mut().iter_mut().enumerate() {
        if ((i & bit) != 0) == keep_set {
            *a = a.scale(scale);
        } else {
            *a = C64::default();
        }
    }
}

/// Multi-shot register sampler with a reusable scratch of draws.
///
/// Inverse-transform sampling without a prefix-sum table: the draws are
/// sorted and met by one walk over the running prefix sum, so scratch
/// grows with the shots, not with the `2^n` amplitudes. A loop that
/// samples many states (the serve scheduler, trajectory batches) reuses
/// one allocation across calls.
#[derive(Debug, Default)]
pub struct Sampler {
    draws: Vec<f64>,
}

impl Sampler {
    pub fn new() -> Sampler {
        Sampler::default()
    }

    /// Draw `shots` full-register samples from the state's Born
    /// distribution *without* collapsing it: each draw `u` lands on the
    /// first index whose prefix sum of probabilities reaches `u` (the
    /// standard statevector sampler).
    pub fn sample<R: Rng>(
        &mut self,
        state: &StateVector,
        shots: usize,
        rng: &mut R,
    ) -> Vec<(usize, u64)> {
        let amps = state.amplitudes();
        let total = amps.iter().fold(0.0, |acc, a| acc + a.norm_sqr());
        self.draws.clear();
        self.draws.extend((0..shots).map(|_| rng.gen_range(0.0..total)));
        self.draws.sort_unstable_by(f64::total_cmp);
        // The prefix sums come out bit for bit as a table of them would,
        // and sorted draws only ever move the walk forward.
        let (mut idx, mut prefix) = (0, amps[0].norm_sqr());
        let mut counts: Vec<(usize, u64)> = Vec::new();
        for &u in &self.draws {
            while prefix < u && idx + 1 < amps.len() {
                idx += 1;
                prefix += amps[idx].norm_sqr();
            }
            match counts.last_mut() {
                Some((last, n)) if *last == idx => *n += 1,
                _ => counts.push((idx, 1)),
            }
        }
        counts
    }
}

/// One-shot convenience over [`Sampler`] (fresh scratch per call).
pub fn sample_counts<R: Rng>(state: &StateVector, shots: usize, rng: &mut R) -> Vec<(usize, u64)> {
    Sampler::new().sample(state, shots, rng)
}

/// Marginal probability distribution of a qubit subset (ascending order of
/// packed outcome bits: bit `j` of the outcome = qubit `qs[j]`).
pub fn marginal_probabilities(state: &StateVector, qs: &[u32]) -> Vec<f64> {
    for &q in qs {
        assert!(q < state.n_qubits());
    }
    let mut out = vec![0.0; 1 << qs.len()];
    for (i, a) in state.amplitudes().iter().enumerate() {
        let mut key = 0usize;
        for (j, &q) in qs.iter().enumerate() {
            if i & (1usize << q) != 0 {
                key |= 1 << j;
            }
        }
        out[key] += a.norm_sqr();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::standard;
    use crate::kernels::scalar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-12;

    fn bell() -> StateVector {
        let mut s = StateVector::zero(2);
        scalar::apply_1q(s.amplitudes_mut(), 0, &standard::h());
        scalar::apply_controlled_1q(s.amplitudes_mut(), 0, 1, &standard::x());
        s
    }

    #[test]
    fn collapse_to_zero_and_one() {
        let mut s = bell();
        collapse(&mut s, 0, 0);
        assert!((s.probability(0b00) - 1.0).abs() < EPS, "collapsed Bell → |00⟩");
        let mut s = bell();
        collapse(&mut s, 0, 1);
        assert!((s.probability(0b11) - 1.0).abs() < EPS, "collapsed Bell → |11⟩");
    }

    #[test]
    fn collapse_renormalizes() {
        let mut s = bell();
        collapse(&mut s, 1, 1);
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn collapse_onto_impossible_outcome_panics() {
        let mut s = StateVector::zero(2); // qubit 0 is certainly 0
        collapse(&mut s, 0, 1);
    }

    #[test]
    fn measurement_statistics_on_bell() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ones = 0;
        let trials = 2000;
        for _ in 0..trials {
            let mut s = bell();
            let r = measure_qubit(&mut s, 0, &mut rng);
            ones += r.outcome as u64;
            // Perfect correlation: qubit 1 must now agree.
            assert!((s.prob_qubit_one(1) - r.outcome as f64).abs() < EPS);
        }
        let frac = ones as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.05, "Bell qubit should be ~50/50, got {frac}");
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = bell();
        let counts = sample_counts(&s, 10_000, &mut rng);
        let total: u64 = counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 10_000);
        for &(idx, c) in &counts {
            assert!(idx == 0b00 || idx == 0b11, "Bell state only samples 00/11, got {idx:b}");
            let frac = c as f64 / 10_000.0;
            assert!((frac - 0.5).abs() < 0.03);
        }
    }

    #[test]
    fn sampling_does_not_modify_state() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = bell();
        let before = s.clone();
        let _ = sample_counts(&s, 100, &mut rng);
        assert!(s.approx_eq(&before, 0.0));
    }

    #[test]
    fn collapse_with_prob_matches_collapse() {
        let mut a = bell();
        let mut b = bell();
        let p = a.prob_qubit_one(1);
        collapse(&mut a, 1, 1);
        collapse_with_prob(&mut b, 1, 1, p);
        assert!(a.approx_eq(&b, 0.0), "passing the probability through must not change results");
    }

    #[test]
    fn sampler_scratch_reuse_matches_fresh() {
        let mut sampler = Sampler::new();
        let s3 = StateVector::basis(3, 5);
        let s2 = bell();
        // Reuse across widths: the scratch shrinks/grows with the state.
        let mut rng = StdRng::seed_from_u64(7);
        let first = sampler.sample(&s3, 50, &mut rng);
        assert_eq!(first, vec![(5, 50)]);
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut rng_b = StdRng::seed_from_u64(8);
        let reused = sampler.sample(&s2, 200, &mut rng_a);
        let fresh = sample_counts(&s2, 200, &mut rng_b);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn the_sorted_walk_lands_every_draw_where_a_prefix_table_would() {
        // Reference: the prefix-sum table and a binary search per draw.
        let table = |s: &StateVector, shots: usize, rng: &mut StdRng| {
            let mut acc = 0.0;
            let mut cdf = Vec::new();
            for a in s.amplitudes() {
                acc += a.norm_sqr();
                cdf.push(acc);
            }
            let mut counts = std::collections::BTreeMap::new();
            for _ in 0..shots {
                let u: f64 = rng.gen_range(0.0..acc);
                let idx = cdf.partition_point(|&c| c < u).min(s.len() - 1);
                *counts.entry(idx).or_insert(0u64) += 1;
            }
            counts.into_iter().collect::<Vec<_>>()
        };
        let mut sampler = Sampler::new();
        for seed in 0..40u64 {
            let n = 1 + (seed % 9) as u32;
            let mut s = StateVector::random(n, &mut StdRng::seed_from_u64(seed));
            // Zero-probability outcomes in between must never be drawn.
            for a in s.amplitudes_mut().iter_mut().step_by(3) {
                *a = C64::default();
            }
            let shots = [0, 1, 7, 256, 1000][seed as usize % 5];
            let mut a = StdRng::seed_from_u64(100 + seed);
            let mut b = StdRng::seed_from_u64(100 + seed);
            assert_eq!(sampler.sample(&s, shots, &mut a), table(&s, shots, &mut b), "seed {seed}");
        }
    }

    #[test]
    fn sampling_deterministic_state() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = StateVector::basis(3, 5);
        let counts = sample_counts(&s, 50, &mut rng);
        assert_eq!(counts, vec![(5, 50)]);
    }

    #[test]
    fn marginals_of_bell() {
        let s = bell();
        let m0 = marginal_probabilities(&s, &[0]);
        assert!((m0[0] - 0.5).abs() < EPS && (m0[1] - 0.5).abs() < EPS);
        let joint = marginal_probabilities(&s, &[0, 1]);
        assert!((joint[0b00] - 0.5).abs() < EPS);
        assert!((joint[0b11] - 0.5).abs() < EPS);
        assert!(joint[0b01] < EPS && joint[0b10] < EPS);
    }

    #[test]
    fn marginals_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = StateVector::random(5, &mut rng);
        for qs in [vec![0u32], vec![1, 3], vec![0, 2, 4]] {
            let m = marginal_probabilities(&s, &qs);
            let sum: f64 = m.iter().sum();
            assert!((sum - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn marginal_bit_order_matches_qs_order() {
        // |q1=1, q0=0⟩ = basis 0b10; ask for [1, 0]: outcome bit 0 = q1.
        let s = StateVector::basis(2, 0b10);
        let m = marginal_probabilities(&s, &[1, 0]);
        assert!((m[0b01] - 1.0).abs() < EPS);
    }
}
