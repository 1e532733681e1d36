//! Distributed simulation over the in-process MPI substrate, with the
//! Tofu-D α–β link model pricing the measured communication.
//!
//! ```sh
//! cargo run --release --example distributed_sim
//! ```

use a64fx_qcs::a64fx::LinkModel;
use a64fx_qcs::core::library;
use a64fx_qcs::core::prelude::*;
use a64fx_qcs::dist::run_distributed;

fn main() {
    let n = 14u32;
    let circuit = library::random_circuit(n, 8, 42);
    println!("random circuit: {} qubits, {} gates", n, circuit.len());

    // Single-process reference.
    let mut reference = StateVector::zero(n);
    Simulator::new().run(&circuit, &mut reference).unwrap();

    let link = LinkModel::default();
    println!(
        "\n{:>5}  {:>14}  {:>12}  {:>16}  {:>12}",
        "ranks", "bytes/rank", "messages", "Tofu-D comm time", "max |Δamp|"
    );
    for ranks in [1usize, 2, 4, 8] {
        let (state, stats) = run_distributed(&circuit, ranks).expect("distributed run");
        let diff = state.max_abs_diff(&reference);
        let worst = stats.iter().max_by_key(|s| s.bytes_sent).expect("ranks ≥ 1");
        let comm = link.exchange_time(worst.messages_sent, worst.bytes_sent);
        println!(
            "{:>5}  {:>14}  {:>12}  {:>13.1} µs  {:>12.2e}",
            ranks,
            format!("{:.2} MiB", worst.bytes_sent as f64 / (1 << 20) as f64),
            worst.messages_sent,
            comm * 1e6,
            diff,
        );
        assert!(diff < 1e-10, "distributed result must match the serial one");
    }
    println!("\nAll rank counts reproduce the single-process state exactly.");
}
