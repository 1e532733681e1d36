//! Differential conformance of the variational layer.
//!
//! The parameter-shift rule is *exact* for the generator-squared-to-I
//! rotations the [`ParamCircuit`] vocabulary exposes, so its gradients
//! must match central finite differences to the truncation error of the
//! latter — rtol 1e-6 at eps 1e-5 — on every kernel backend. The
//! driver's batched energies are additionally cross-checked against
//! serial runs under every execution strategy, and the two optimizers
//! get TFIM convergence smoke tests (deterministic, seeded).

use a64fx_qcs::core::config::SimConfig;
use a64fx_qcs::core::expectation::Hamiltonian;
use a64fx_qcs::core::kernels::simd::BackendChoice;
use a64fx_qcs::core::prelude::*;
use a64fx_qcs::core::variational::hardware_efficient_ansatz;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tfim(n: u32) -> Hamiltonian {
    Hamiltonian::ising_chain(n, 1.0, 0.7)
}

fn random_theta(p: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..p).map(|_| rng.gen_range(-1.2..1.2)).collect()
}

/// rtol 1e-6 against a reference, with an absolute floor for
/// components that are themselves ~0.
fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len());
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-6 * w.abs().max(1.0);
        assert!((g - w).abs() <= tol, "{what}[{j}]: {g} vs {w} (tol {tol})");
    }
}

/// Parameter-shift ≡ central finite differences on every backend.
#[test]
fn parameter_shift_matches_finite_differences_on_every_backend() {
    let n = 4;
    let ansatz = hardware_efficient_ansatz(n, 2);
    let h = tfim(n);
    let theta = random_theta(ansatz.n_params(), 42);
    for backend in [BackendChoice::Auto, BackendChoice::Scalar, BackendChoice::Simd] {
        let engine = BatchSimulator::from_config(SimConfig::default().backend(backend)).unwrap();
        let driver = VqeDriver::with_engine(ansatz.clone(), &h, engine);
        let shift = driver.gradient(&theta).unwrap();
        let fd = driver.gradient_fd(&theta, 1e-5).unwrap();
        assert_close(&shift, &fd, &format!("gradient[{backend:?}]"));
    }
}

/// The shift rule is backend-independent well below the fd tolerance:
/// scalar and native gradients agree to 1e-12.
#[test]
fn gradients_agree_across_backends() {
    let n = 5;
    let ansatz = hardware_efficient_ansatz(n, 1);
    let h = tfim(n);
    let theta = random_theta(ansatz.n_params(), 7);
    let scalar = VqeDriver::with_engine(
        ansatz.clone(),
        &h,
        BatchSimulator::from_config(SimConfig::default().backend(BackendChoice::Scalar)).unwrap(),
    )
    .gradient(&theta)
    .unwrap();
    let native = VqeDriver::with_engine(
        ansatz.clone(),
        &h,
        BatchSimulator::from_config(SimConfig::default().backend(BackendChoice::Simd)).unwrap(),
    )
    .gradient(&theta)
    .unwrap();
    for (j, (s, v)) in scalar.iter().zip(&native).enumerate() {
        assert!((s - v).abs() <= 1e-12, "component {j}: scalar {s} vs simd {v}");
    }
}

/// The default driver's batched (naive) energies agree with a serial
/// run of the bound circuit under every strategy × backend combination
/// — the batched sweep is not a different simulator, just a different
/// schedule.
#[test]
fn batched_energies_agree_with_every_strategy_and_backend() {
    let n = 4;
    let ansatz = hardware_efficient_ansatz(n, 2);
    let h = tfim(n);
    let compiled = h.compile();
    let points: Vec<Vec<f64>> = (0..4).map(|i| random_theta(ansatz.n_params(), 50 + i)).collect();
    let driver = VqeDriver::new(ansatz.clone(), &h);
    let batched = driver.energies(&points).unwrap();

    for strategy in ["naive", "fused:2", "blocked:3", "planned:3:2", "auto"] {
        for backend in ["auto", "scalar"] {
            let cfg = SimConfig::default()
                .strategy(strategy.parse::<Strategy>().unwrap())
                .backend(backend.parse::<BackendChoice>().unwrap());
            let sim = cfg.build().unwrap();
            for (point, &want) in points.iter().zip(&batched) {
                let mut state = StateVector::zero(n);
                sim.run(&ansatz.bind(point), &mut state).unwrap();
                let got = compiled.expectation(&state);
                // Strategies reorder floating-point work; agreement is
                // to rounding, not to the bit.
                assert!(
                    (got - want).abs() <= 1e-9,
                    "{strategy}/{backend}: serial {got} vs batched {want}"
                );
            }
        }
    }
}

/// A driver sweeps *and reduces* on its engine's backend and strategy:
/// its energies are the bits a serial engine of the same configuration
/// leaves when its state is reduced on the same backend. (The bound
/// would not hold at 0 if the driver reduced on the process-wide
/// backend: scalar and AVX2 reductions round differently.)
#[test]
fn driver_energies_are_the_bits_of_a_serial_run_on_the_same_backend() {
    use a64fx_qcs::core::kernels::simd;
    let n = 6;
    let ansatz = hardware_efficient_ansatz(n, 2);
    let h = tfim(n);
    let compiled = h.compile();
    let points: Vec<Vec<f64>> = (0..5).map(|i| random_theta(ansatz.n_params(), 80 + i)).collect();
    for backend in [BackendChoice::Scalar, BackendChoice::Simd] {
        for strategy in ["naive", "fused:3"] {
            let cfg = SimConfig::default()
                .strategy(strategy.parse::<Strategy>().unwrap())
                .backend(backend);
            let serial = cfg.clone().build().unwrap();
            for threads in [1usize, 2] {
                let engine = BatchSimulator::from_config(cfg.clone().threads(threads)).unwrap();
                let driver = VqeDriver::with_engine(ansatz.clone(), &h, engine);
                let energies = driver.energies(&points).unwrap();
                for (i, (point, got)) in points.iter().zip(&energies).enumerate() {
                    let mut state = StateVector::zero(n);
                    serial.run(&ansatz.bind(point), &mut state).unwrap();
                    let want = compiled.expectation_with(simd::backend_for(backend), &state);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{backend:?}/{strategy}/threads={threads}: point {i}: {got} vs {want}"
                    );
                }
            }
        }
    }
}

/// Every entry point validates at the door: a wrong-length or
/// non-finite point, or a non-finite step size, is an error naming the
/// offender — never a panic, never a NaN energy.
#[test]
fn the_driver_rejects_bad_points_and_step_sizes() {
    let ansatz = hardware_efficient_ansatz(3, 1);
    let p = ansatz.n_params();
    let driver = VqeDriver::new(ansatz, &tfim(3));
    let good = vec![0.2; p];
    let short = vec![0.2; p - 1];
    let mut nan = good.clone();
    nan[2] = f64::NAN;
    let mut inf = good.clone();
    inf[0] = f64::INFINITY;
    let msg = |r: Result<(), SimError>| r.unwrap_err().to_string();

    let err = msg(driver.energies(&[good.clone(), short.clone()]).map(drop));
    assert!(err.contains("point 1") && err.contains(&format!("{p} parameters")), "{err}");
    let err = msg(driver.energies(&[nan.clone()]).map(drop));
    assert!(err.contains("point 0") && err.contains("parameter 2"), "{err}");
    for bad in [&short, &nan, &inf] {
        assert!(driver.energy(bad).is_err());
        assert!(driver.gradient(bad).is_err());
        assert!(driver.gradient_fd(bad, 1e-5).is_err());
        assert!(driver.minimize_gd(bad, 2, 0.1).is_err());
        assert!(driver.minimize_spsa(bad, 2, 0.2, 0.2, 1).is_err());
    }
    assert!(msg(driver.minimize_gd(&good, 2, f64::NAN).map(drop)).contains("`lr`"));
    assert!(msg(driver.minimize_spsa(&good, 2, f64::INFINITY, 0.2, 1).map(drop)).contains("`a`"));
    assert!(msg(driver.minimize_spsa(&good, 2, 0.2, f64::NAN, 1).map(drop)).contains("`c`"));
    assert!(msg(driver.gradient_fd(&good, f64::NAN).map(drop)).contains("`eps`"));
    assert!(driver.minimize_gd(&good, 2, 0.1).is_ok());
}

/// Gradient descent on the TFIM: monotone-ish descent to near the true
/// ground state, with the documented evaluation accounting.
#[test]
fn gradient_descent_converges_on_tfim() {
    let n = 4;
    let h = tfim(n);
    let ansatz = hardware_efficient_ansatz(n, 2);
    let p = ansatz.n_params();
    let driver = VqeDriver::new(ansatz, &h);
    let theta0 = random_theta(p, 11);
    let iters = 30;
    let result = driver.minimize_gd(&theta0, iters, 0.1).unwrap();

    assert_eq!(result.energies.len(), iters);
    assert_eq!(result.evals, iters * (2 * p + 1) + 1);
    let first = result.energies[0];
    assert!(result.energy < first, "no descent: {first} -> {}", result.energy);
    let ground = h.ground_energy(n);
    assert!(result.energy >= ground - 1e-9, "below the ground state: {} < {ground}", result.energy);
    assert!(
        result.energy - ground < 0.35,
        "too far from the ground state after {iters} iterations: {} vs {ground}",
        result.energy
    );
}

/// SPSA on the TFIM: deterministic per seed, descends, and never
/// undercuts the exact ground energy.
#[test]
fn spsa_converges_and_is_deterministic() {
    let n = 4;
    let h = tfim(n);
    let ansatz = hardware_efficient_ansatz(n, 1);
    let p = ansatz.n_params();
    let driver = VqeDriver::new(ansatz, &h);
    let theta0 = random_theta(p, 23);

    let a = driver.minimize_spsa(&theta0, 80, 0.4, 0.15, 5).unwrap();
    let b = driver.minimize_spsa(&theta0, 80, 0.4, 0.15, 5).unwrap();
    assert_eq!(a.energies, b.energies, "SPSA must be deterministic for a fixed seed");
    assert_eq!(a.theta, b.theta);
    assert_eq!(a.evals, 80 * 3 + 1);

    let other = driver.minimize_spsa(&theta0, 80, 0.4, 0.15, 6).unwrap();
    assert_ne!(a.energies, other.energies, "different seeds draw different directions");

    let ground = h.ground_energy(n);
    assert!(a.energy < a.energies[0], "no descent: {} -> {}", a.energies[0], a.energy);
    assert!(a.energy >= ground - 1e-9);
}
