//! Communication-volume properties of the distributed engine: the byte
//! counts the E5 analysis depends on must follow the algorithm's
//! structure exactly.

use a64fx_qcs::a64fx::LinkModel;
use a64fx_qcs::core::circuit::Circuit;
use a64fx_qcs::core::library;
use a64fx_qcs::dist::{run_distributed, run_distributed_planned, DistPlanKind};

/// Communication of the circuit minus the harness's final gather.
/// Pinned to the naive per-gate plan: these tests assert the engine's
/// per-gate exchange regimes, which the reorder/overlap planners exist
/// to beat (their volumes are asserted in `dist_plan_conformance`).
fn algorithm_bytes(circuit: &Circuit, ranks: usize) -> Vec<u64> {
    let (_, with) = run_distributed_planned(circuit, ranks, DistPlanKind::Naive).unwrap();
    let empty = Circuit::new(circuit.n_qubits());
    let (_, base) = run_distributed_planned(&empty, ranks, DistPlanKind::Naive).unwrap();
    with.iter().zip(&base).map(|(a, b)| a.bytes_sent.saturating_sub(b.bytes_sent)).collect()
}

#[test]
fn one_global_dense_gate_costs_one_local_buffer() {
    let n = 10u32;
    for ranks in [2usize, 4, 8] {
        let local_amps = (1u64 << n) / ranks as u64;
        let mut c = Circuit::new(n);
        c.h(n - 1); // global for every rank count here
        let bytes = algorithm_bytes(&c, ranks);
        for (r, &b) in bytes.iter().enumerate() {
            assert_eq!(
                b,
                local_amps * 16,
                "rank {r} of {ranks}: one exchange of the local buffer expected"
            );
        }
    }
}

#[test]
fn local_and_diagonal_gates_cost_nothing() {
    let n = 10u32;
    let mut c = Circuit::new(n);
    // Local dense + global diagonal + global-control CX: all comm-free.
    c.h(0).ry(1, 0.4).rz(n - 1, 0.7).cz(n - 2, n - 1).cx(n - 1, 0);
    for ranks in [2usize, 4] {
        let bytes = algorithm_bytes(&c, ranks);
        assert!(bytes.iter().all(|&b| b == 0), "ranks={ranks}: {bytes:?}");
    }
}

#[test]
fn exchange_volume_scales_with_global_gate_count() {
    let n = 10u32;
    let ranks = 4usize;
    let local_bytes = ((1u64 << n) / ranks as u64) * 16;
    for gates in [1usize, 3, 5] {
        let mut c = Circuit::new(n);
        for _ in 0..gates {
            c.h(n - 1);
        }
        let bytes = algorithm_bytes(&c, ranks);
        for &b in &bytes {
            assert_eq!(b, gates as u64 * local_bytes, "gates={gates}");
        }
    }
}

#[test]
fn global_local_swap_moves_half_a_buffer_each_way() {
    // A dense 2q gate with one global qubit goes through the remap path:
    // swap in (half buffer), apply, swap out (half buffer) ⇒ one full
    // local buffer total.
    let n = 10u32;
    let ranks = 4usize;
    let local_bytes = ((1u64 << n) / ranks as u64) * 16;
    let mut c = Circuit::new(n);
    c.iswap(0, n - 1);
    let bytes = algorithm_bytes(&c, ranks);
    for &b in &bytes {
        assert_eq!(b, local_bytes, "two half-buffer swaps expected");
    }
}

#[test]
fn higher_rank_counts_shrink_per_rank_volume() {
    let n = 12u32;
    let c = library::qft(n);
    let mut per_rank_max = Vec::new();
    for ranks in [2usize, 4, 8] {
        let bytes = algorithm_bytes(&c, ranks);
        per_rank_max.push(*bytes.iter().max().unwrap());
    }
    // Local buffers halve with each doubling while the global gate count
    // grows slower: per-rank volume is non-increasing and eventually
    // strictly smaller. (For QFT the 2→4 step is exactly flat: one more
    // global dense gate on a half-sized buffer.)
    assert!(
        per_rank_max.windows(2).all(|w| w[1] <= w[0]),
        "per-rank bytes must not grow: {per_rank_max:?}"
    );
    assert!(
        per_rank_max.last().unwrap() < per_rank_max.first().unwrap(),
        "per-rank bytes should shrink overall: {per_rank_max:?}"
    );
}

#[test]
fn tofu_pricing_is_consistent_with_volume() {
    let n = 12u32;
    let c = library::qft(n);
    let link = LinkModel::default();
    let (_, stats) = run_distributed(&c, 4).unwrap();
    for s in &stats {
        let t = link.exchange_time(s.messages_sent, s.bytes_sent);
        // Bandwidth term alone bounds from below; plus latency bounds
        // from above for the observed message count.
        let bw_only = s.bytes_sent as f64 / link.params.injection_bw();
        assert!(t >= bw_only);
        assert!(t <= bw_only + s.messages_sent as f64 * link.params.latency_s + 1e-12);
    }
}

#[test]
fn ghz_exchange_volume_follows_control_bits() {
    // GHZ's CX chain over 8 ranks (3 global qubits, local width 7):
    //   cx(6,7): local control → every rank exchanges one buffer;
    //   cx(7,8): *global* control (qubit 7) → only ranks whose bit 7 is
    //            set participate;
    //   cx(8,9): global control (qubit 8) → only ranks with bit 8 set.
    let n = 10u32;
    let ranks = 8usize;
    let local_bytes = ((1u64 << n) / ranks as u64) * 16;
    let bytes = algorithm_bytes(&library::ghz(n), ranks);
    for (r, &b) in bytes.iter().enumerate() {
        let expected_exchanges = 1 + (r & 1) as u64 + ((r >> 1) & 1) as u64;
        assert_eq!(b, expected_exchanges * local_bytes, "rank {r}: control-gated exchange count");
    }
}
