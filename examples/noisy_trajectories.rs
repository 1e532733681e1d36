//! Noisy simulation via quantum trajectories: watch GHZ coherence decay
//! under depolarizing noise, and check entanglement with the analysis
//! tools.
//!
//! ```sh
//! cargo run --release --example noisy_trajectories
//! ```

use a64fx_qcs::core::analysis::{entanglement_entropy, purity};
use a64fx_qcs::core::library;
use a64fx_qcs::core::noise::{average_expectation, NoiseChannel};
use a64fx_qcs::core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 5u32;
    let circuit = library::ghz(n);
    let all_x = PauliString::new((0..n).map(|q| (q, Pauli::X)).collect());

    // Noiseless reference: the GHZ X-parity is exactly +1, and every
    // bipartition carries ln 2 of entanglement.
    let mut clean = StateVector::zero(n);
    Simulator::new().run(&circuit, &mut clean).unwrap();
    println!("noiseless GHZ({n}):");
    println!("  ⟨X⊗…⊗X⟩            = {:+.4}", all_x.expectation(&clean));
    println!(
        "  S(q0)               = {:.4} nats (ln 2 = {:.4})",
        entanglement_entropy(&clean, &[0]),
        std::f64::consts::LN_2
    );
    println!("  purity(q0)          = {:.4}", purity(&clean, &[0]));

    // Trajectory-averaged parity under increasing depolarizing strength.
    println!("\ndepolarizing noise after every gate (300 trajectories each):");
    println!("{:>8}  {:>12}", "p", "⟨X⊗…⊗X⟩");
    let mut rng = StdRng::seed_from_u64(7);
    for p in [0.0, 0.01, 0.05, 0.1, 0.2, 0.4] {
        let avg =
            average_expectation(&circuit, &all_x, NoiseChannel::Depolarizing { p }, 300, &mut rng);
        println!("{p:>8.2}  {avg:>+12.4}");
    }

    // Amplitude damping pushes the population toward |0…0⟩.
    println!("\namplitude damping (γ = 0.3) on one trajectory:");
    let mut s = StateVector::zero(n);
    let errors = a64fx_qcs::core::noise::run_trajectory(
        a64fx_qcs::core::kernels::simd::active(),
        &circuit,
        &mut s,
        NoiseChannel::AmplitudeDamping { gamma: 0.3 },
        &mut rng,
    );
    println!("  realized decay events: {errors}");
    println!("  P(|0…0⟩) = {:.4}", s.probability(0));
    println!("  norm²    = {:.6}", s.norm_sqr());
}
