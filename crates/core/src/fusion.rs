//! Gate fusion: collapse adjacent gates on overlapping qubit sets into
//! dense k-qubit unitaries.
//!
//! A state-vector simulator is bandwidth-bound: each gate costs a full
//! sweep over `2^n` amplitudes. Fusing a run of `g` gates whose combined
//! support fits in `k` qubits replaces `g` sweeps with one
//! [`apply_kq`](crate::kernels::scalar::apply_kq) sweep, multiplying
//! arithmetic intensity by ~`g` at identical memory traffic — the Qiskit
//! Aer optimization the paper uses as its optimized comparator.
//!
//! The grouping is the standard greedy adjacent-gates policy: extend the
//! current group while the union of supports stays ≤ `max_k`; flush
//! otherwise. (No commutation-based reordering — groups only contain
//! originally-adjacent gates, so correctness is by construction.)

use crate::circuit::{Circuit, Gate};
use crate::complex::{C64, ONE};
use crate::gates::matrices::DenseMatrix;
use crate::kernels::dispatch::apply_gate;

/// Structural class of a fused block's product matrix, detected once at
/// plan time so execution can route to a matching specialized kernel
/// instead of the general dense gather/mat-vec/scatter.
///
/// Detection uses *exact* zero tests (`re == 0.0 && im == 0.0`). The
/// product matrix is built by pushing basis vectors through the member
/// gates, so structural zeros propagate exactly — no epsilon needed, and
/// a near-zero-but-nonzero entry can never be silently dropped.
#[derive(Debug, Clone)]
pub enum FusedClass {
    /// Every off-diagonal entry is exactly zero: one streaming multiply
    /// per amplitude, no gather. `diag[local]` is the diagonal entry.
    Diagonal(Vec<C64>),
    /// Exactly one nonzero per row and per column (a monomial matrix —
    /// e.g. blocks of X/CX/SWAP with phases): a gather-permute pass,
    /// `out[row] = phase[row] · in[src[row]]`.
    Permutation {
        /// Source local index per row.
        src: Vec<usize>,
        /// The nonzero entry per row.
        phase: Vec<C64>,
    },
    /// Sparse but not monomial (controlled blocks: many identity rows):
    /// only the listed rows change; `rows[i] = (row, entries)` with
    /// `entries = [(col, val), …]`. Rows absent from the list are exact
    /// identity (`m[r][r] == 1`, rest zero) and are left untouched.
    Sparse(Vec<(usize, Vec<(usize, C64)>)>),
    /// No exploitable structure: dense mat-vec (SIMD-backed).
    Dense,
}

impl FusedClass {
    /// Short display name for traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FusedClass::Diagonal(_) => "diagonal",
            FusedClass::Permutation { .. } => "permutation",
            FusedClass::Sparse(_) => "sparse",
            FusedClass::Dense => "dense",
        }
    }
}

/// One fused operation: a dense unitary over a sorted qubit set.
#[derive(Debug, Clone)]
pub struct FusedOp {
    /// Ascending qubit indices; local basis bit `j` = `qubits[j]`.
    pub qubits: Vec<u32>,
    /// The `2^k × 2^k` product matrix.
    pub matrix: DenseMatrix,
    /// How many original gates this op absorbs.
    pub n_gates: usize,
    /// Structure class detected at build time.
    pub class: FusedClass,
    /// `Some` when the op is a single original gate (`n_gates == 1`):
    /// execution then routes to that gate's specialized kernel — the
    /// exact sweep the naive strategy would run — instead of the
    /// product-matrix path, so a block that didn't merge anything
    /// never costs more than not fusing at all.
    pub gate: Option<Box<Gate>>,
}

/// Fuse a circuit into dense groups of at most `max_k` qubits.
///
/// `max_k` must be ≥ the widest gate in the circuit (3 covers the whole
/// gate set) and is clamped to the circuit width.
pub fn fuse(circuit: &Circuit, max_k: u32) -> Vec<FusedOp> {
    let max_k = max_k.min(circuit.n_qubits());
    assert!(max_k >= 1);
    let mut out = Vec::new();
    let mut group: Vec<Gate> = Vec::new();
    let mut support: Vec<u32> = Vec::new();

    for gate in circuit.gates() {
        let mut union = support.clone();
        for q in gate.qubits() {
            if !union.contains(&q) {
                union.push(q);
            }
        }
        assert!(
            gate.qubits().len() as u32 <= max_k,
            "gate {} is wider than max_k = {max_k}",
            gate.name()
        );
        if union.len() as u32 <= max_k {
            support = union;
            group.push(gate.clone());
        } else {
            if !group.is_empty() {
                out.push(build_fused(&group, &support));
            }
            support = gate.qubits();
            support.sort_unstable();
            support.dedup();
            group = vec![gate.clone()];
        }
    }
    if !group.is_empty() {
        out.push(build_fused(&group, &support));
    }
    out
}

/// Per-amplitude sweep costs (nanoseconds) driving [`fuse_costed`]'s
/// merge decisions: one entry per per-gate kernel shape and per fused
/// block class, in the same taxonomy as
/// [`Calibration`](crate::calibrate::Calibration) (which is where the
/// numbers normally come from).
#[derive(Debug, Clone)]
pub struct FuseCosts {
    pub gate_1q_dense: f64,
    pub gate_1q_diag: f64,
    pub gate_controlled: f64,
    pub gate_2q_diag: f64,
    pub gate_2q_dense: f64,
    pub swap: f64,
    pub fused_diag: f64,
    pub fused_perm: f64,
    pub fused_sparse: f64,
    /// Dense block cost at k = 2, 3, 4, 5; wider doubles per qubit.
    pub fused_dense: [f64; 4],
}

impl FuseCosts {
    /// Cost of one naive sweep of `g` through its specialized kernel.
    pub fn gate(&self, g: &Gate) -> f64 {
        use a64fx_model::traffic::KernelKind;
        match crate::perf::classify(g) {
            KernelKind::OneQubitDiagonal => self.gate_1q_diag,
            KernelKind::OneQubitDense => self.gate_1q_dense,
            KernelKind::ControlledDense => self.gate_controlled,
            KernelKind::TwoQubitDiagonal => self.gate_2q_diag,
            KernelKind::TwoQubitDense => self.gate_2q_dense,
            KernelKind::Swap => self.swap,
            KernelKind::FusedDense { k } => self.dense(k as usize),
        }
    }

    /// Cost of one sweep of a fused `class` block over `k` qubits.
    pub fn block(&self, class: &FusedClass, k: usize) -> f64 {
        match class {
            FusedClass::Diagonal(_) => self.fused_diag,
            FusedClass::Permutation { .. } => self.fused_perm,
            FusedClass::Sparse(_) => self.fused_sparse,
            FusedClass::Dense => self.dense(k),
        }
    }

    fn dense(&self, k: usize) -> f64 {
        match k {
            0..=2 => self.fused_dense[0],
            3 => self.fused_dense[1],
            4 => self.fused_dense[2],
            5 => self.fused_dense[3],
            _ => self.fused_dense[3] * (1u64 << (k - 5)) as f64,
        }
    }
}

/// Cost-aware fusion: a gate joins the current group only when the
/// merged block's sweep is priced no dearer than emitting the group and
/// the gate separately — so the plan is never predicted slower than
/// naive execution, unlike the structure-blind greedy [`fuse`] (which
/// happily trades g cheap specialized sweeps for one dense `2^k × 2^k`
/// sweep that a compute-bound host cannot afford).
///
/// Groups that end up holding a single gate keep it (see
/// [`FusedOp::gate`]) and execute through the per-gate kernels.
/// `max_k` must be ≥ the widest gate, as for [`fuse`].
pub fn fuse_costed(circuit: &Circuit, max_k: u32, costs: &FuseCosts) -> Vec<FusedOp> {
    let max_k = max_k.min(circuit.n_qubits());
    assert!(max_k >= 1);
    let mut out: Vec<FusedOp> = Vec::new();
    let mut group: Vec<Gate> = Vec::new();
    let mut support: Vec<u32> = Vec::new();
    // Built op for the current group when it holds ≥ 2 gates (reused at
    // flush so accepted merges are never rebuilt).
    let mut current: Option<FusedOp> = None;
    let mut group_cost = 0.0;

    let flush = |out: &mut Vec<FusedOp>,
                 group: &mut Vec<Gate>,
                 support: &[u32],
                 current: Option<FusedOp>| {
        match group.len() {
            0 => {}
            1 => out.push(build_fused(group, support)),
            _ => out.push(current.expect("multi-gate group was built at merge time")),
        }
        group.clear();
    };

    for gate in circuit.gates() {
        assert!(
            gate.qubits().len() as u32 <= max_k,
            "gate {} is wider than max_k = {max_k}",
            gate.name()
        );
        let mut union = support.clone();
        for q in gate.qubits() {
            if !union.contains(&q) {
                union.push(q);
            }
        }
        if !group.is_empty() && union.len() as u32 <= max_k {
            let mut cand = group.clone();
            cand.push(gate.clone());
            let merged = build_fused(&cand, &union);
            let merged_cost = costs.block(&merged.class, merged.qubits.len());
            if merged_cost <= group_cost + costs.gate(gate) {
                group = cand;
                support = union;
                group_cost = merged_cost;
                current = Some(merged);
                continue;
            }
        }
        flush(&mut out, &mut group, &support, current.take());
        support = gate.qubits();
        support.sort_unstable();
        support.dedup();
        group = vec![gate.clone()];
        group_cost = costs.gate(gate);
    }
    flush(&mut out, &mut group, &support, current.take());
    out
}

/// Build the dense product matrix of `gates` over `support`.
fn build_fused(gates: &[Gate], support: &[u32]) -> FusedOp {
    let mut qubits: Vec<u32> = support.to_vec();
    qubits.sort_unstable();
    let k = qubits.len() as u32;
    let dim = 1usize << k;
    // Local position of each global qubit.
    let local = |q: u32| qubits.iter().position(|&x| x == q).expect("qubit in support") as u32;

    // Column c of the product = (g_m … g_1)|c⟩, computed by running the
    // remapped gates over a k-qubit basis vector.
    let mut data = vec![C64::default(); dim * dim];
    let mut col_state = vec![C64::default(); dim];
    for col in 0..dim {
        col_state.fill(C64::default());
        col_state[col] = ONE;
        for g in gates {
            let lg = g.remap(local);
            apply_gate(&mut col_state, &lg);
        }
        for (row, &v) in col_state.iter().enumerate() {
            data[row * dim + col] = v;
        }
    }
    let matrix = DenseMatrix::from_data(dim, data);
    let class = classify_matrix(&matrix);
    let gate = match gates {
        [only] => Some(Box::new(only.clone())),
        _ => None,
    };
    FusedOp { qubits, matrix, n_gates: gates.len(), class, gate }
}

#[inline]
fn is_zero(v: C64) -> bool {
    v.re == 0.0 && v.im == 0.0
}

/// Detect the structure class of a fused product matrix (see
/// [`FusedClass`]). Exact-zero tests only.
pub fn classify_matrix(m: &DenseMatrix) -> FusedClass {
    let dim = m.dim();
    // Row-wise nonzero census.
    let mut rows: Vec<Vec<(usize, C64)>> = Vec::with_capacity(dim);
    let mut nnz = 0usize;
    for r in 0..dim {
        let mut entries = Vec::new();
        for c in 0..dim {
            let v = m.get(r, c);
            if !is_zero(v) {
                entries.push((c, v));
            }
        }
        nnz += entries.len();
        rows.push(entries);
    }

    // Diagonal: every row's single nonzero sits on the diagonal.
    if rows.iter().enumerate().all(|(r, e)| e.len() == 1 && e[0].0 == r) {
        return FusedClass::Diagonal(rows.iter().map(|e| e[0].1).collect());
    }

    // Monomial: one nonzero per row AND per column.
    if rows.iter().all(|e| e.len() == 1) {
        let mut col_seen = vec![false; dim];
        if rows.iter().all(|e| !std::mem::replace(&mut col_seen[e[0].0], true)) {
            return FusedClass::Permutation {
                src: rows.iter().map(|e| e[0].0).collect(),
                phase: rows.iter().map(|e| e[0].1).collect(),
            };
        }
    }

    // Sparse: worthwhile when at most a quarter of the entries are
    // nonzero (identity rows are skipped entirely at execution time).
    if nnz * 4 <= dim * dim {
        let active: Vec<(usize, Vec<(usize, C64)>)> = rows
            .into_iter()
            .enumerate()
            .filter(|(r, e)| !(e.len() == 1 && e[0].0 == *r && e[0].1 == ONE))
            .collect();
        return FusedClass::Sparse(active);
    }

    FusedClass::Dense
}

/// Total sweep count of a fused plan (for the analytical speedup model).
pub fn sweep_count(plan: &[FusedOp]) -> usize {
    plan.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::dispatch::apply_gate as apply;
    use crate::kernels::scalar::apply_kq;
    use crate::library;
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-10;

    fn run_gate_by_gate(c: &Circuit, s: &mut StateVector) {
        for g in c.gates() {
            apply(s.amplitudes_mut(), g);
        }
    }

    fn run_fused(plan: &[FusedOp], s: &mut StateVector) {
        for op in plan {
            apply_kq(s.amplitudes_mut(), &op.qubits, &op.matrix);
        }
    }

    #[test]
    fn fused_matrices_are_unitary() {
        let mut c = Circuit::new(4);
        c.h(0).t(0).cx(0, 1).rz(1, 0.3).cx(1, 2).h(3).cp(2, 3, 0.9);
        for op in fuse(&c, 3) {
            assert!(op.matrix.is_unitary(1e-10));
            assert_eq!(op.matrix.dim(), 1 << op.qubits.len());
        }
    }

    #[test]
    fn fusion_preserves_semantics_ghz() {
        let c = library::ghz(5);
        for k in 2..=5u32 {
            let mut a = StateVector::zero(5);
            run_gate_by_gate(&c, &mut a);
            let mut b = StateVector::zero(5);
            run_fused(&fuse(&c, k), &mut b);
            assert!(a.approx_eq(&b, EPS), "k={k}");
        }
    }

    #[test]
    fn fusion_preserves_semantics_random_circuits() {
        for seed in 0..5u64 {
            let c = library::random_circuit(6, 20, seed);
            let mut rng = StdRng::seed_from_u64(seed + 99);
            let init = StateVector::random(6, &mut rng);
            for k in [2u32, 3, 4] {
                let mut a = init.clone();
                run_gate_by_gate(&c, &mut a);
                let mut b = init.clone();
                run_fused(&fuse(&c, k), &mut b);
                assert!(a.approx_eq(&b, EPS), "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn fusion_preserves_semantics_qft() {
        let c = library::qft(6);
        let mut rng = StdRng::seed_from_u64(7);
        let init = StateVector::random(6, &mut rng);
        let mut a = init.clone();
        run_gate_by_gate(&c, &mut a);
        let mut b = init.clone();
        run_fused(&fuse(&c, 4), &mut b);
        assert!(a.approx_eq(&b, EPS));
    }

    #[test]
    fn larger_k_never_more_sweeps() {
        let c = library::random_circuit(8, 60, 3);
        let mut last = usize::MAX;
        for k in 1..=5u32 {
            // k=1 would reject 2q gates; start at 2.
            if k < 2 {
                continue;
            }
            let sweeps = sweep_count(&fuse(&c, k));
            assert!(sweeps <= last, "k={k}: {sweeps} > {last}");
            last = sweeps;
        }
    }

    #[test]
    fn fusion_reduces_sweeps_substantially() {
        let c = library::random_circuit(10, 100, 11);
        let plan = fuse(&c, 4);
        let gates = c.len();
        let sweeps = sweep_count(&plan);
        assert!(
            sweeps * 2 <= gates,
            "fusion at k=4 should at least halve sweeps: {sweeps} of {gates}"
        );
        // Absorbed gate counts add up.
        let absorbed: usize = plan.iter().map(|op| op.n_gates).sum();
        assert_eq!(absorbed, gates);
    }

    #[test]
    fn groups_respect_max_k() {
        let c = library::random_circuit(9, 80, 5);
        for k in [2u32, 3, 5] {
            for op in fuse(&c, k) {
                assert!(op.qubits.len() as u32 <= k);
                let mut sorted = op.qubits.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, op.qubits, "qubits must be ascending");
            }
        }
    }

    #[test]
    fn single_gate_circuit() {
        let mut c = Circuit::new(2);
        c.h(1);
        let plan = fuse(&c, 2);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].qubits, vec![1]);
        assert_eq!(plan[0].n_gates, 1);
    }

    #[test]
    fn empty_circuit_fuses_to_nothing() {
        let c = Circuit::new(3);
        assert!(fuse(&c, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "wider than max_k")]
    fn gate_wider_than_k_rejected() {
        let mut c = Circuit::new(4);
        c.ccx(0, 1, 2);
        let _ = fuse(&c, 2);
    }

    #[test]
    fn diagonal_blocks_classify_as_diagonal() {
        let mut c = Circuit::new(3);
        c.rz(0, 0.3).t(1).cp(0, 1, 0.7).cz(1, 2).rzz(0, 2, 0.2);
        let plan = fuse(&c, 3);
        assert_eq!(plan.len(), 1);
        match &plan[0].class {
            FusedClass::Diagonal(d) => {
                assert_eq!(d.len(), 8);
                for (i, &v) in d.iter().enumerate() {
                    assert!(plan[0].matrix.get(i, i).approx_eq(v, 0.0));
                }
            }
            other => panic!("expected diagonal, got {}", other.name()),
        }
    }

    #[test]
    fn permutation_blocks_classify_as_permutation() {
        let mut c = Circuit::new(3);
        c.x(0).cx(0, 1).swap(1, 2).y(2);
        let plan = fuse(&c, 3);
        assert_eq!(plan.len(), 1);
        match &plan[0].class {
            FusedClass::Permutation { src, phase } => {
                assert_eq!(src.len(), 8);
                assert_eq!(phase.len(), 8);
                // Every source index used exactly once.
                let mut seen = [false; 8];
                for &s in src {
                    assert!(!std::mem::replace(&mut seen[s], true));
                }
            }
            other => panic!("expected permutation, got {}", other.name()),
        }
    }

    #[test]
    fn controlled_blocks_classify_as_sparse() {
        // Rx(2)·CCX over 3 qubits: two nonzeros per row — a quarter of
        // the 8×8 entries — sparse but neither diagonal nor monomial.
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2).rx(2, 0.5);
        let plan = fuse(&c, 3);
        assert_eq!(plan.len(), 1);
        match &plan[0].class {
            FusedClass::Sparse(rows) => {
                assert!(!rows.is_empty());
                // Listed rows reproduce the matrix.
                for (r, entries) in rows {
                    for (cidx, v) in entries {
                        assert!(plan[0].matrix.get(*r, *cidx).approx_eq(*v, 0.0));
                    }
                }
            }
            other => panic!("expected sparse, got {}", other.name()),
        }
    }

    #[test]
    fn dense_blocks_classify_as_dense() {
        let mut c = Circuit::new(2);
        c.ry(0, 0.3).ry(1, 0.4).cx(0, 1).ry(0, 0.5);
        let plan = fuse(&c, 2);
        assert_eq!(plan.len(), 1);
        assert!(matches!(plan[0].class, FusedClass::Dense), "{}", plan[0].class.name());
    }

    #[test]
    fn hadamard_sandwich_collapses_to_permutation() {
        // H⊗H · CX · H⊗H is exactly a reversed CX; the classifier sees
        // through the dense-looking member gates to the permutation.
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1).h(0).h(1);
        let plan = fuse(&c, 2);
        assert_eq!(plan.len(), 1);
        assert!(
            matches!(plan[0].class, FusedClass::Permutation { .. }),
            "{}",
            plan[0].class.name()
        );
    }

    fn analytic_costs() -> FuseCosts {
        crate::calibrate::Calibration::analytic().fuse_costs()
    }

    #[test]
    fn costed_fusion_preserves_semantics() {
        let costs = analytic_costs();
        for seed in 0..4u64 {
            let c = library::random_circuit(6, 24, seed);
            let mut rng = StdRng::seed_from_u64(seed + 31);
            let init = StateVector::random(6, &mut rng);
            let mut a = init.clone();
            run_gate_by_gate(&c, &mut a);
            let mut b = init.clone();
            run_fused(&fuse_costed(&c, 4, &costs), &mut b);
            assert!(a.approx_eq(&b, EPS), "seed={seed}");
        }
    }

    #[test]
    fn costed_fusion_keeps_singleton_gates_and_absorbs_all() {
        let costs = analytic_costs();
        let c = library::random_circuit(8, 40, 2);
        let plan = fuse_costed(&c, 4, &costs);
        let absorbed: usize = plan.iter().map(|op| op.n_gates).sum();
        assert_eq!(absorbed, c.len());
        for op in &plan {
            assert!(op.qubits.len() as u32 <= 4);
            assert_eq!(op.gate.is_some(), op.n_gates == 1, "gate iff singleton");
            if let Some(g) = &op.gate {
                let mut qs = g.qubits();
                qs.sort_unstable();
                qs.dedup();
                assert_eq!(qs, op.qubits);
            }
        }
    }

    #[test]
    fn cost_table_steers_the_merge_decision() {
        let c = library::random_circuit(7, 30, 4);
        // Free blocks: merge whenever the support fits, i.e. exactly the
        // structure-blind greedy grouping.
        let mut free = analytic_costs();
        free.fused_diag = 0.0;
        free.fused_perm = 0.0;
        free.fused_sparse = 0.0;
        free.fused_dense = [0.0; 4];
        assert_eq!(fuse_costed(&c, 4, &free).len(), fuse(&c, 4).len());
        // Prohibitive blocks: nothing merges, every op is a gate-backed
        // singleton (the naive sweep in fused clothing).
        let mut dear = analytic_costs();
        dear.fused_diag = 1e9;
        dear.fused_perm = 1e9;
        dear.fused_sparse = 1e9;
        dear.fused_dense = [1e9; 4];
        let plan = fuse_costed(&c, 4, &dear);
        assert_eq!(plan.len(), c.len());
        assert!(plan.iter().all(|op| op.gate.is_some()));
    }

    #[test]
    fn costed_fusion_merges_diagonal_runs() {
        // Diagonal merges are priced below the members' separate sweeps
        // by the analytic table, so a phase-only circuit still collapses.
        let costs = analytic_costs();
        let mut c = Circuit::new(4);
        c.rz(0, 0.3).cp(0, 1, 0.7).t(1).cz(1, 2).rz(3, 0.1).cp(2, 3, 0.4);
        let plan = fuse_costed(&c, 4, &costs);
        assert!(plan.len() < c.len(), "{} !< {}", plan.len(), c.len());
        assert!(plan.iter().all(|op| matches!(op.class, FusedClass::Diagonal(_))));
    }

    #[test]
    fn plain_fuse_singletons_carry_their_gate() {
        let mut c = Circuit::new(5);
        c.h(0).ccx(2, 3, 4).h(0);
        let plan = fuse(&c, 3);
        for op in &plan {
            assert_eq!(op.gate.is_some(), op.n_gates == 1);
        }
    }

    #[test]
    fn single_x_is_a_permutation_not_diagonal() {
        let mut c = Circuit::new(1);
        c.x(0);
        let plan = fuse(&c, 1);
        match &plan[0].class {
            FusedClass::Permutation { src, .. } => assert_eq!(src, &vec![1, 0]),
            other => panic!("expected permutation, got {}", other.name()),
        }
    }
}
