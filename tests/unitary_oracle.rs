//! Dense-unitary oracle: an independent, deliberately naive reference
//! implementation. Every gate is expanded to its full `2^n × 2^n`
//! matrix (the Kronecker embedding of the gate's dense block into the
//! identity on the untouched qubits) and composed by plain dense
//! algebra. No kernels, no strided index tricks, no fusion — if the
//! simulator and this oracle agree on 200 generated circuits across
//! every execution strategy, the index arithmetic of the fast paths is
//! corroborated by construction rather than by self-comparison.

use a64fx_qcs::core::circuit::Gate;
use a64fx_qcs::core::complex::{ONE, ZERO};
use a64fx_qcs::core::prelude::*;
use a64fx_qcs::core::testing;

type Dense = Vec<Vec<C64>>;

/// A gate as `(qubits most-significant-first, dense 2^k × 2^k block)`.
fn gate_block(g: &Gate) -> (Vec<u32>, Dense) {
    if let Some((q, m)) = g.as_single() {
        let block = (0..2).map(|r| (0..2).map(|c| m.m[r][c]).collect()).collect();
        return (vec![q], block);
    }
    if let Some((hi, lo, m)) = g.as_two() {
        let block = (0..4).map(|r| (0..4).map(|c| m.m[r][c]).collect()).collect();
        return (vec![hi, lo], block);
    }
    // The three-qubit gates are permutations; `map[j]` is where basis
    // state `|j⟩` goes, with the qubit list read most-significant-first.
    match *g {
        Gate::Ccx(c1, c2, t) => (vec![c1, c2, t], permutation(&[0, 1, 2, 3, 4, 5, 7, 6])),
        Gate::CSwap(c, a, b) => (vec![c, a, b], permutation(&[0, 1, 2, 3, 4, 6, 5, 7])),
        ref other => unreachable!("gate {other:?} has no dense form"),
    }
}

fn permutation(map: &[usize]) -> Dense {
    let dim = map.len();
    let mut m = vec![vec![ZERO; dim]; dim];
    for (col, &row) in map.iter().enumerate() {
        m[row][col] = ONE;
    }
    m
}

/// Bits of `i` at the gate's qubits, most-significant-first.
fn local_index(i: usize, qs: &[u32]) -> usize {
    qs.iter().fold(0, |acc, &q| (acc << 1) | ((i >> q) & 1))
}

/// Expand a gate block to the full `2^n × 2^n` operator: the matrix is
/// the gate block on the gate's qubits tensored with the identity on
/// every other qubit (expressed entry-wise rather than as an explicit
/// Kronecker product chain, which is the same matrix without the qubit
/// reordering bookkeeping).
#[allow(clippy::needless_range_loop)] // entry-wise (row, col) indexing is the clearest form
fn embed(n: u32, qs: &[u32], block: &Dense) -> Dense {
    let dim = 1usize << n;
    let k = qs.len();
    let mut full = vec![vec![ZERO; dim]; dim];
    for col in 0..dim {
        let lc = local_index(col, qs);
        let rest = qs.iter().fold(col, |acc, &q| acc & !(1usize << q));
        for lr in 0..(1usize << k) {
            let mut row = rest;
            for (pos, &q) in qs.iter().enumerate() {
                row |= ((lr >> (k - 1 - pos)) & 1) << q;
            }
            full[row][col] = block[lr][lc];
        }
    }
    full
}

fn matvec(m: &Dense, v: &[C64]) -> Vec<C64> {
    m.iter().map(|row| row.iter().zip(v).fold(ZERO, |acc, (&a, &b)| acc + a * b)).collect()
}

fn matmul(a: &Dense, b: &Dense) -> Dense {
    let dim = a.len();
    let mut out = vec![vec![ZERO; dim]; dim];
    for r in 0..dim {
        for k in 0..dim {
            let x = a[r][k];
            for c in 0..dim {
                out[r][c] += x * b[k][c];
            }
        }
    }
    out
}

/// The oracle's final state: each embedded gate matrix applied in
/// circuit order to `|0…0⟩`.
fn oracle_state(circuit: &Circuit) -> Vec<C64> {
    let n = circuit.n_qubits();
    let mut v = vec![ZERO; 1 << n];
    v[0] = ONE;
    for g in circuit.gates() {
        let (qs, block) = gate_block(g);
        v = matvec(&embed(n, &qs, &block), &v);
    }
    v
}

fn max_diff(a: &[C64], b: &[C64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y).abs()).fold(0.0, f64::max)
}

#[test]
fn simulator_matches_the_dense_oracle_on_200_circuits() {
    let strategies = [
        Strategy::Naive,
        Strategy::Fused { max_k: 3 },
        Strategy::Blocked { block_qubits: 3 },
        Strategy::Planned { block_qubits: 3, max_k: 3 },
        Strategy::Fused { max_k: 4 },
    ];
    for seed in 0..200u64 {
        let n = 2 + (seed % 5) as u32; // 2..=6
        let gates = 8 + (seed % 9) as usize;
        let circuit = testing::random_circuit_seeded(n, gates, seed);
        let expected = oracle_state(&circuit);
        // Width cycles with `seed % 5`, the strategy with the next digit:
        // every strategy meets every width.
        let strategy = strategies[(seed / 5 % 5) as usize];
        let sim = SimConfig::new().strategy(strategy).build().unwrap();
        let mut s = StateVector::zero(n);
        sim.run(&circuit, &mut s).unwrap();
        let diff = max_diff(s.amplitudes(), &expected);
        assert!(
            diff < 1e-12,
            "seed {seed} (n={n}, {gates} gates, {strategy:?}): max |Δ| = {diff:e}"
        );
    }
}

#[test]
fn batched_members_match_the_dense_oracle() {
    // The batch engine against the oracle directly, not just against
    // the single-run engine: every member of a threaded batch must land
    // on the oracle's state.
    for seed in [3u64, 17, 99] {
        let circuit = testing::random_circuit_seeded(5, 24, seed);
        let expected = oracle_state(&circuit);
        let engine = BatchSimulator::from_config(
            SimConfig::new()
                .strategy(Strategy::Planned { block_qubits: 3, max_k: 3 })
                .threads(2)
                .batch(4),
        )
        .unwrap();
        let (states, _) = engine.run_fresh(&circuit).unwrap();
        for (m, s) in states.iter().enumerate() {
            let diff = max_diff(s.amplitudes(), &expected);
            assert!(diff < 1e-12, "seed {seed} member {m}: max |Δ| = {diff:e}");
        }
    }
}

#[test]
fn composed_oracle_matrix_is_unitary_and_matches_gatewise_application() {
    // For narrow registers, additionally compose the whole circuit into
    // one dense matrix by chained multiplication. Its first column must
    // be the gate-wise oracle state, and U†U must be the identity —
    // guarding the oracle itself against a broken embedding.
    for seed in 0..20u64 {
        let n = 2 + (seed % 3) as u32; // 2..=4
        let circuit = testing::random_circuit_seeded(n, 12, 1000 + seed);
        let dim = 1usize << n;
        let mut u: Dense =
            (0..dim).map(|r| (0..dim).map(|c| if r == c { ONE } else { ZERO }).collect()).collect();
        for g in circuit.gates() {
            let (qs, block) = gate_block(g);
            u = matmul(&embed(n, &qs, &block), &u);
        }
        let gatewise = oracle_state(&circuit);
        let first_column: Vec<C64> = u.iter().map(|row| row[0]).collect();
        assert!(max_diff(&first_column, &gatewise) < 1e-12, "seed {seed}");
        for r in 0..dim {
            for c in 0..dim {
                let dot = (0..dim).fold(ZERO, |acc, k| acc + u[k][r].conj() * u[k][c]);
                let expect = if r == c { ONE } else { ZERO };
                assert!((dot - expect).abs() < 1e-10, "seed {seed}: U†U[{r}][{c}] = {dot:?}");
            }
        }
    }
}
