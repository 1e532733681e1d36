//! Gate fusion: collapse gates into k-qubit blocks, one state sweep each.
//!
//! A state-vector simulator is bandwidth-bound: each gate costs a full
//! sweep over `2^n` amplitudes. Fusing `g` gates whose combined support
//! fits in `k` qubits replaces `g` sweeps with one block sweep
//! ([`crate::kernels::fused`]), multiplying arithmetic intensity by ~`g`
//! at identical memory traffic — the Qiskit Aer optimization the paper
//! uses as its optimized comparator.
//!
//! The pass ([`fuse_costed`]) is commutation-aware and cost-aware:
//!
//! * gates on disjoint qubits commute, so a gate may join *any* group it
//!   can slide back to past groups on other qubits — the latest group
//!   sharing a qubit with it (a per-qubit frontier finds it), or any
//!   open group after that one as a tensor product;
//! * single-qubit gates are held until the next multi-qubit gate on
//!   their qubit arrives and are priced together with it as one
//!   candidate, so a rotation layer rides along with its entangling
//!   layer instead of opening groups of its own;
//! * a candidate joins a group only when the merged block's sweep is
//!   priced ([`FuseCosts`]) no dearer than sweeping the two separately,
//!   so the plan is never predicted slower than naive execution.
//!
//! Each group carries its product matrix and extends it in place when a
//! candidate joins (one small sweep over the `4^k` matrix entries per
//! gate), so the pass stays near-linear in the gate count: it runs
//! inside every `run`. Emission order is group creation order, which is
//! a topological order of the groups by construction; flattening the
//! blocks preserves every qubit's gate order.
//!
//! [`Gate::Measure`] and [`Gate::Cif`] are not unitary and never enter a
//! block: [`crate::program::lower`] splits the circuit at them.

use crate::align::AlignedAmps;
use crate::circuit::{Circuit, Gate};
use crate::complex::{C64, ONE};
use crate::gates::matrices::DenseMatrix;
use crate::kernels::dispatch::apply_gate_with;
use crate::kernels::index::spread_bits;
use crate::kernels::simd::{self, BackendChoice};

/// Structural class of a fused block's product matrix: the label traces
/// and cost tables use. Execution reads the structure itself off the
/// matrix ([`crate::kernels::fused::Block`]).
///
/// Detection uses *exact* zero tests (`re == 0.0 && im == 0.0`). The
/// product matrix is built by pushing the member gates through the
/// portable kernels, so structural zeros propagate exactly — no epsilon
/// needed, and a near-zero-but-nonzero entry can never be silently
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedClass {
    /// Every off-diagonal entry is exactly zero: one streaming multiply
    /// per amplitude, no gather.
    Diagonal,
    /// Exactly one nonzero per row and per column (a monomial matrix —
    /// e.g. blocks of X/CX/SWAP with phases).
    Permutation,
    /// At most a quarter of the entries are nonzero (controlled blocks,
    /// tensor products with a diagonal factor).
    Sparse,
    /// No exploitable structure.
    Dense,
}

impl FusedClass {
    /// Short display name for traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FusedClass::Diagonal => "diagonal",
            FusedClass::Permutation => "permutation",
            FusedClass::Sparse => "sparse",
            FusedClass::Dense => "dense",
        }
    }
}

/// One fused operation: a unitary over a sorted qubit set.
#[derive(Debug, Clone)]
pub struct FusedOp {
    /// Ascending qubit indices; local basis bit `j` = `qubits[j]`.
    pub qubits: Vec<u32>,
    /// The `2^k × 2^k` product matrix.
    pub matrix: DenseMatrix,
    /// How many original gates this op absorbs (`members.len()`).
    pub n_gates: usize,
    /// Indices, into the fused circuit's gate list, of the gates this op
    /// absorbs, in the order their matrices were multiplied. Across a
    /// plan the member lists partition the circuit, and reading them
    /// off op by op keeps every qubit's gates in circuit order.
    pub members: Vec<usize>,
    /// Structure class detected at build time.
    pub class: FusedClass,
    /// Nonzero entries in the rows that are not exact identity rows: the
    /// multiply-adds the block kernel performs per group, which is what
    /// [`FuseCosts::block`] prices.
    pub active_nnz: usize,
    /// `Some` when the op is a single original gate (`n_gates == 1`):
    /// execution then routes to that gate's specialized kernel — the
    /// exact sweep the naive strategy would run — instead of the
    /// product-matrix path, so a block that didn't merge anything
    /// never costs more than not fusing at all.
    pub gate: Option<Box<Gate>>,
}

/// Per-amplitude sweep costs (nanoseconds) driving [`fuse_costed`]'s
/// merge decisions: one entry per per-gate kernel shape, plus the three
/// constants the block kernel is priced from. The engines' table is
/// [`Calibration::analytic`](crate::calibrate::Calibration::analytic)'s.
#[derive(Debug, Clone)]
pub struct FuseCosts {
    pub gate_1q_dense: f64,
    pub gate_1q_diag: f64,
    pub gate_controlled: f64,
    pub gate_2q_diag: f64,
    pub gate_2q_dense: f64,
    pub swap: f64,
    pub fused_diag: f64,
    /// A block sweep with one nonzero per row (a permutation block): the
    /// floor of the block kernel, gather and scatter with next to no
    /// arithmetic.
    pub fused_perm: f64,
    /// Dense block cost at k = 2, 3, 4, 5; wider doubles per qubit.
    pub fused_dense: [f64; 4],
}

impl FuseCosts {
    /// The table under which every merge that fits is taken: blocks are
    /// free, gates are not.
    const ACCEPT_EVERY_FIT: FuseCosts = FuseCosts {
        gate_1q_dense: 1.0,
        gate_1q_diag: 1.0,
        gate_controlled: 1.0,
        gate_2q_diag: 1.0,
        gate_2q_dense: 1.0,
        swap: 1.0,
        fused_diag: 0.0,
        fused_perm: 0.0,
        fused_dense: [0.0; 4],
    };

    /// Every entry rewritten by `f`.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> FuseCosts {
        FuseCosts {
            gate_1q_dense: f(self.gate_1q_dense),
            gate_1q_diag: f(self.gate_1q_diag),
            gate_controlled: f(self.gate_controlled),
            gate_2q_diag: f(self.gate_2q_diag),
            gate_2q_dense: f(self.gate_2q_dense),
            swap: f(self.swap),
            fused_diag: f(self.fused_diag),
            fused_perm: f(self.fused_perm),
            fused_dense: self.fused_dense.map(&f),
        }
    }

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

    /// Cost of one sweep of a `class` block over `k` qubits with
    /// `active_nnz` nonzeros in its non-identity rows. Diagonal blocks
    /// stream; every other block runs the one block kernel, whose work
    /// is its multiply-adds per row: `max(floor, nnz per row × cost per
    /// nonzero)`, the cost per nonzero read off the dense block of the
    /// same width (which has `2^k` of them per row).
    pub fn block(&self, class: FusedClass, k: usize, active_nnz: usize) -> f64 {
        if class == FusedClass::Diagonal {
            return self.fused_diag;
        }
        let dim = (1u64 << k) as f64;
        let nnz_per_row = active_nnz as f64 / dim;
        (nnz_per_row * self.dense(k) / dim).max(self.fused_perm)
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

/// Fuse a circuit into blocks of at most `max_k` qubits, taking every
/// merge that fits: [`fuse_costed`] under a table where blocks are free.
pub fn fuse(circuit: &Circuit, max_k: u32) -> Vec<FusedOp> {
    fuse_costed(circuit, max_k, &FuseCosts::ACCEPT_EVERY_FIT)
}

/// Fuse a circuit into blocks of at most `max_k` qubits, merging only
/// where `costs` prices the merged sweep no dearer than the separate
/// ones (see the module docs for the grouping rules).
///
/// Groups that end up holding a single gate keep it (see
/// [`FusedOp::gate`]) and execute through the per-gate kernels.
/// `max_k` is raised to the widest gate (a gate always fits its own
/// block) and clamped to the circuit width; the circuit must be unitary.
pub fn fuse_costed(circuit: &Circuit, max_k: u32, costs: &FuseCosts) -> Vec<FusedOp> {
    let n = circuit.n_qubits() as usize;
    let gates = circuit.gates();
    let widest = gates.iter().map(|g| g.qubits().len()).max().unwrap_or(1);
    let max_k = (max_k as usize).max(widest).min(n);
    let mut pass = Pass { gates, groups: Vec::new(), frontier: vec![None; n], max_k, costs };
    // Single-qubit gates wait here, per qubit, for the next multi-qubit
    // gate on their qubit (or the end of the circuit).
    let mut held: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, gate) in gates.iter().enumerate() {
        assert!(
            gate.is_unitary(),
            "{} cannot be fused; lower splits the circuit at it",
            gate.name()
        );
        let qubits = gate.qubits();
        if let [q] = qubits[..] {
            held[q as usize].push(i);
            continue;
        }
        let mut candidate = Vec::new();
        for &q in &qubits {
            candidate.append(&mut held[q as usize]);
        }
        candidate.push(i);
        pass.place(candidate);
    }
    for run in held {
        if !run.is_empty() {
            pass.place(run);
        }
    }
    pass.groups.into_iter().map(|group| group.into_op(gates)).collect()
}

/// A group under construction: the gates absorbed so far as one product
/// matrix over their joint support.
struct Group {
    /// Ascending.
    qubits: Vec<u32>,
    /// Row-major `2^k × 2^k` product. Cache-line aligned, because the
    /// gate kernels that extend it assert that of any sizeable buffer.
    product: AlignedAmps,
    /// Circuit indices of the gates absorbed, in the order multiplied.
    members: Vec<usize>,
    shape: Shape,
    /// Priced sweep of this group as it would execute now.
    cost: f64,
    /// Priced sweeps of the members, each on its own.
    members_cost: f64,
}

impl Group {
    /// The group of no gates: the 1 × 1 identity over no qubits.
    fn empty() -> Group {
        let mut product = AlignedAmps::zeroed(1);
        product[0] = ONE;
        Group {
            qubits: Vec::new(),
            product,
            members: Vec::new(),
            shape: Shape::of(&[ONE], 1),
            cost: 0.0,
            members_cost: 0.0,
        }
    }

    fn into_op(self, gates: &[Gate]) -> FusedOp {
        let dim = 1usize << self.qubits.len();
        FusedOp {
            qubits: self.qubits,
            matrix: DenseMatrix::from_data(dim, self.product.to_vec()),
            n_gates: self.members.len(),
            class: self.shape.class,
            active_nnz: self.shape.active_nnz,
            gate: match self.members[..] {
                [only] => Some(Box::new(gates[only].clone())),
                _ => None,
            },
            members: self.members,
        }
    }
}

/// The grouping state: groups in emission order and, per qubit, the
/// last group touching it.
struct Pass<'a> {
    gates: &'a [Gate],
    groups: Vec<Group>,
    frontier: Vec<Option<usize>>,
    max_k: usize,
    costs: &'a FuseCosts,
}

impl Pass<'_> {
    /// `group` followed by the gates `candidate` indexes, as one group —
    /// `None` when that would span more than `max_k` qubits.
    fn absorb(&self, group: &Group, candidate: &[usize]) -> Option<Group> {
        let gates = || candidate.iter().map(|&i| &self.gates[i]);
        let mut qubits = group.qubits.clone();
        qubits.extend(gates().flat_map(Gate::qubits));
        qubits.sort_unstable();
        qubits.dedup();
        if qubits.len() > self.max_k {
            return None;
        }
        let k = qubits.len() as u32;
        let dim = 1usize << k;

        // Embed the product in the wider support: identity on the new
        // qubits, i.e. entries only where row and column agree on them.
        let position = |q: u32| qubits.binary_search(&q).expect("qubit in support") as u32;
        let old: Vec<u32> = group.qubits.iter().map(|&q| position(q)).collect();
        let new: Vec<u32> = (0..k).filter(|p| !old.contains(p)).collect();
        let old_dim = 1usize << old.len();
        let spread_old: Vec<usize> = (0..old_dim).map(|i| spread_bits(i, &old)).collect();
        let mut product = AlignedAmps::zeroed(dim * dim);
        for e in 0..1usize << new.len() {
            let extra = spread_bits(e, &new);
            for (r, &row) in spread_old.iter().enumerate() {
                for (c, &col) in spread_old.iter().enumerate() {
                    product[(row | extra) * dim + (col | extra)] = group.product[r * old_dim + c];
                }
            }
        }
        // Left-multiply each gate into every column at once: read as a
        // state of 2k qubits, the row-major matrix keeps its row index in
        // the high k bits. The portable kernels, whatever backend the
        // engine runs: a product matrix must not depend on the backend.
        let portable = simd::backend_for(BackendChoice::Scalar);
        for g in gates() {
            apply_gate_with(portable, &mut product, &g.remap(|q| k + position(q)));
        }

        let members = [&group.members[..], candidate].concat();
        let shape = Shape::of(&product, dim);
        // A lone gate sweeps through its own kernel, not the block's.
        let cost = match members[..] {
            [only] => self.costs.gate(&self.gates[only]),
            _ => self.costs.block(shape.class, k as usize, shape.active_nnz),
        };
        let members_cost = group.members_cost + gates().map(|g| self.costs.gate(g)).sum::<f64>();
        Some(Group { qubits, product, members, shape, cost, members_cost })
    }

    /// Place `candidate` (gate indices in circuit order) into the group
    /// list.
    ///
    /// The candidate slides back from the end of the list past every
    /// group on other qubits, down to `last` — the latest group sharing
    /// a qubit with it. It may join `last` or any group it slid past;
    /// either way the list stays a topological order, because every
    /// group the candidate depends on sits at or before `last` and no
    /// group after `last` touches its qubits. Hosts are tried oldest
    /// first, among the groups still on some qubit's frontier.
    fn place(&mut self, candidate: Vec<usize>) {
        let alone = self
            .absorb(&Group::empty(), &candidate)
            .expect("a candidate spans the qubits of one gate");
        let last = alone.qubits.iter().filter_map(|&q| self.frontier[q as usize]).max();
        let mut hosts: Vec<usize> =
            self.frontier.iter().flatten().copied().filter(|&g| Some(g) >= last).collect();
        hosts.sort_unstable();
        hosts.dedup();
        // Left alone the candidate sweeps as one block or gate by gate,
        // whichever is cheaper.
        let alone_cost = alone.cost.min(alone.members_cost);
        for host in hosts {
            let group = &self.groups[host];
            let Some(merged) = self.absorb(group, &candidate) else {
                continue;
            };
            if merged.cost <= group.cost + alone_cost {
                for &q in &alone.qubits {
                    self.frontier[q as usize] = Some(host);
                }
                self.groups[host] = merged;
                return;
            }
        }
        if candidate.len() > 1 && alone.cost > alone.members_cost {
            // Not worth a block of its own either: place gate by gate.
            for gate in candidate {
                self.place(vec![gate]);
            }
            return;
        }
        for &q in &alone.qubits {
            self.frontier[q as usize] = Some(self.groups.len());
        }
        self.groups.push(alone);
    }
}

#[inline]
fn is_zero(v: C64) -> bool {
    v.re == 0.0 && v.im == 0.0
}

/// Nonzero census of a product matrix. Exact-zero tests only.
struct Shape {
    class: FusedClass,
    /// Nonzeros outside the rows that are exactly a row of the identity,
    /// which the block kernel skips.
    active_nnz: usize,
}

impl Shape {
    fn of(data: &[C64], dim: usize) -> Shape {
        let (mut nnz, mut identity_rows) = (0, 0);
        let (mut diagonal, mut monomial) = (true, true);
        let mut col_seen = vec![false; dim];
        for (r, row) in data.chunks_exact(dim).enumerate() {
            let mut in_row = 0;
            let mut col = 0;
            for (c, &v) in row.iter().enumerate() {
                if !is_zero(v) {
                    in_row += 1;
                    col = c;
                }
            }
            nnz += in_row;
            diagonal &= in_row == 1 && col == r;
            monomial &= in_row == 1 && !std::mem::replace(&mut col_seen[col], true);
            identity_rows += usize::from(in_row == 1 && col == r && row[r] == ONE);
        }
        let class = if diagonal {
            FusedClass::Diagonal
        } else if monomial {
            FusedClass::Permutation
        } else if nnz * 4 <= dim * dim {
            FusedClass::Sparse
        } else {
            FusedClass::Dense
        };
        Shape { class, active_nnz: nnz - identity_rows }
    }
}

/// Detect the structure class of a fused product matrix (see
/// [`FusedClass`]). Exact-zero tests only.
pub fn classify_matrix(m: &DenseMatrix) -> FusedClass {
    Shape::of(m.data(), m.dim()).class
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

    fn analytic_costs() -> FuseCosts {
        crate::calibrate::Calibration::analytic().fuse_costs()
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
    fn fusion_preserves_semantics_ghz_and_qft() {
        for c in [library::ghz(5), library::qft(6)] {
            let n = c.n_qubits();
            let mut rng = StdRng::seed_from_u64(7);
            let init = StateVector::random(n, &mut rng);
            for k in 2..=5u32 {
                let mut a = init.clone();
                run_gate_by_gate(&c, &mut a);
                let mut b = init.clone();
                run_fused(&fuse(&c, k), &mut b);
                assert!(a.approx_eq(&b, EPS), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn fusion_preserves_semantics_random_circuits() {
        for seed in 0..5u64 {
            let c = library::random_circuit(6, 20, seed);
            let mut rng = StdRng::seed_from_u64(seed + 99);
            let init = StateVector::random(6, &mut rng);
            let mut a = init.clone();
            run_gate_by_gate(&c, &mut a);
            for k in [2u32, 3, 4] {
                for plan in [fuse(&c, k), fuse_costed(&c, k, &analytic_costs())] {
                    let mut b = init.clone();
                    run_fused(&plan, &mut b);
                    assert!(a.approx_eq(&b, EPS), "seed={seed} k={k}");
                }
            }
        }
    }

    #[test]
    fn a_gate_slides_past_groups_on_other_qubits() {
        // cx(0,1) | cx(2,3) | cx(0,1): adjacent-only grouping at k = 2
        // needs three sweeps; the third gate slides past the second.
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3).cz(0, 1);
        let plan = fuse(&c, 2);
        assert_eq!(plan.len(), 2);
        assert_eq!((plan[0].qubits.clone(), plan[0].n_gates), (vec![0, 1], 2));
        assert_eq!((plan[1].qubits.clone(), plan[1].n_gates), (vec![2, 3], 1));
    }

    #[test]
    fn single_qubit_gates_ride_with_the_next_gate_on_their_qubit() {
        // A rotation layer, then an entangling layer: the rotations open
        // no groups of their own.
        let mut c = Circuit::new(4);
        c.rx(0, 0.1).ry(1, 0.2).rx(2, 0.3).ry(3, 0.4).cx(0, 1).cx(2, 3);
        let plan = fuse_costed(&c, 2, &analytic_costs());
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|op| op.n_gates == 3 && op.class == FusedClass::Dense));
        // Trailing rotations join the last group on their qubit.
        c.rz(1, 0.5);
        let plan = fuse_costed(&c, 2, &analytic_costs());
        assert_eq!((plan.len(), plan[0].n_gates), (2, 4));
    }

    #[test]
    fn disjoint_groups_merge_as_tensor_products_when_priced_to() {
        // A diagonal pair next to a dense pair: 4 nonzeros per row at
        // k = 4 is priced like the dense pair alone, so the diagonal one
        // rides for free; two dense pairs (16 per row) stay apart.
        let costs = analytic_costs();
        let mut c = Circuit::new(4);
        c.rx(0, 0.3).ry(1, 0.2).cx(0, 1).rz(2, 0.1).cz(2, 3);
        let plan = fuse_costed(&c, 4, &costs);
        assert_eq!(plan.len(), 1);
        assert_eq!((plan[0].class, plan[0].active_nnz), (FusedClass::Sparse, 64));
        let mut c = Circuit::new(4);
        c.rx(0, 0.3).ry(1, 0.2).cx(0, 1).rx(2, 0.1).ry(3, 0.7).cx(2, 3);
        assert_eq!(fuse_costed(&c, 4, &costs).len(), 2);
        assert_eq!(fuse(&c, 4).len(), 1);
    }

    #[test]
    fn larger_k_never_more_sweeps() {
        let c = library::random_circuit(8, 60, 3);
        let mut last = usize::MAX;
        for k in 2..=5u32 {
            let sweeps = fuse(&c, k).len();
            assert!(sweeps <= last, "k={k}: {sweeps} > {last}");
            last = sweeps;
        }
    }

    #[test]
    fn fusion_reduces_sweeps_substantially() {
        let c = library::random_circuit(10, 100, 11);
        for plan in [fuse(&c, 4), fuse_costed(&c, 4, &analytic_costs())] {
            assert!(
                plan.len() * 4 <= c.len(),
                "fusion at k=4 should cut sweeps fourfold: {} of {}",
                plan.len(),
                c.len()
            );
            let absorbed: usize = plan.iter().map(|op| op.n_gates).sum();
            assert_eq!(absorbed, c.len());
        }
    }

    #[test]
    fn groups_respect_max_k() {
        let c = library::random_circuit(9, 80, 5);
        for k in [2u32, 3, 5] {
            for op in fuse(&c, k) {
                assert!(op.qubits.len() as u32 <= k);
                assert!(op.qubits.windows(2).all(|w| w[0] < w[1]), "qubits must be ascending");
            }
        }
    }

    #[test]
    fn single_gate_and_empty_circuits() {
        let mut c = Circuit::new(2);
        assert!(fuse(&c, 2).is_empty());
        c.h(1);
        let plan = fuse(&c, 2);
        assert_eq!(plan.len(), 1);
        assert_eq!((plan[0].qubits.clone(), plan[0].n_gates), (vec![1], 1));
        assert_eq!(plan[0].gate.as_deref(), Some(&Gate::H(1)));
    }

    #[test]
    fn a_gate_wider_than_k_raises_k_to_its_width() {
        // A Toffoli under k = 1 and k = 2 fuses as under k = 3.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 3).ccx(0, 1, 2).t(2);
        let mut reference = StateVector::zero(4);
        run_gate_by_gate(&c, &mut reference);
        for k in [1u32, 2] {
            let plan = fuse(&c, k);
            assert_eq!(plan.iter().map(|op| op.qubits.len()).max(), Some(3), "k={k}");
            let mut s = StateVector::zero(4);
            run_fused(&plan, &mut s);
            assert!(s.approx_eq(&reference, EPS), "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot be fused")]
    fn non_unitary_gates_rejected() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0);
        let _ = fuse(&c, 2);
    }

    /// The circuit as one block at `k`, with its class.
    fn one_block(c: &Circuit, k: u32) -> FusedOp {
        let mut plan = fuse(c, k);
        assert_eq!(plan.len(), 1);
        plan.remove(0)
    }

    #[test]
    fn blocks_classify_by_exact_structure() {
        let mut diag = Circuit::new(3);
        diag.rz(0, 0.3).t(1).cp(0, 1, 0.7).cz(1, 2).rzz(0, 2, 0.2);
        let op = one_block(&diag, 3);
        assert_eq!((op.class, op.active_nnz), (FusedClass::Diagonal, 8));

        let mut perm = Circuit::new(3);
        perm.x(0).cx(0, 1).swap(1, 2).y(2);
        let op = one_block(&perm, 3);
        assert_eq!((op.class, op.active_nnz), (FusedClass::Permutation, 8));

        // Rx(2)·CCX over 3 qubits: two nonzeros per row — a quarter of
        // the 8×8 entries — sparse but neither diagonal nor monomial.
        let mut sparse = Circuit::new(3);
        sparse.ccx(0, 1, 2).rx(2, 0.5);
        let op = one_block(&sparse, 3);
        assert_eq!((op.class, op.active_nnz), (FusedClass::Sparse, 16));

        // CZ·CCX: only the two rows with both controls set differ from
        // the identity's.
        let mut controlled = Circuit::new(3);
        controlled.ccx(0, 1, 2).cz(0, 1);
        let op = one_block(&controlled, 3);
        assert_eq!((op.class, op.active_nnz), (FusedClass::Permutation, 2));

        let mut dense = Circuit::new(2);
        dense.ry(0, 0.3).ry(1, 0.4).cx(0, 1).ry(0, 0.5);
        let op = one_block(&dense, 2);
        assert_eq!((op.class, op.active_nnz), (FusedClass::Dense, 16));

        // H⊗H · CX · H⊗H is exactly a reversed CX; the classifier sees
        // through the dense-looking member gates to the permutation.
        let mut sandwich = Circuit::new(2);
        sandwich.h(0).h(1).cx(0, 1).h(0).h(1);
        assert_eq!(one_block(&sandwich, 2).class, FusedClass::Permutation);

        let mut x = Circuit::new(1);
        x.x(0);
        assert_eq!(one_block(&x, 1).class, FusedClass::Permutation);
    }

    #[test]
    fn product_matrices_do_not_depend_on_the_active_backend() {
        // Whatever `simd::active()` is in this process, the product is
        // the portable kernels': gate by gate on basis columns. (No
        // single-qubit gate here is held past a gate it precedes, so the
        // block multiplies in circuit order.)
        let mut c = Circuit::new(3);
        c.ry(0, 0.3).u3(1, 0.4, 0.1, 0.9).cx(0, 1).rx(2, 0.5).cp(1, 2, 1.1).ry(0, 0.7);
        let op = one_block(&c, 3);
        let portable = simd::backend_for(BackendChoice::Scalar);
        for col in 0..8 {
            let mut state = vec![C64::default(); 8];
            state[col] = ONE;
            for g in c.gates() {
                apply_gate_with(portable, &mut state, g);
            }
            for (row, &v) in state.iter().enumerate() {
                assert_eq!(op.matrix.get(row, col), v, "entry ({row}, {col})");
            }
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
                assert_eq!(qs, op.qubits);
            }
        }
    }

    #[test]
    fn cost_table_steers_the_merge_decision() {
        let c = library::random_circuit(7, 30, 4);
        // Prohibitive blocks: nothing merges, every op is a gate-backed
        // singleton (the naive sweep in fused clothing).
        let mut dear = analytic_costs();
        dear.fused_diag = 1e9;
        dear.fused_perm = 1e9;
        dear.fused_dense = [1e9; 4];
        let plan = fuse_costed(&c, 4, &dear);
        assert_eq!(plan.len(), c.len());
        assert!(plan.iter().all(|op| op.gate.is_some()));
        // The analytic table sits between that and taking every fit.
        let priced = fuse_costed(&c, 4, &analytic_costs()).len();
        assert!(fuse(&c, 4).len() <= priced && priced < c.len());
    }

    #[test]
    fn block_price_follows_nonzeros_per_row() {
        let costs = analytic_costs();
        // A dense block prices at the table's entry for its width…
        assert_eq!(costs.block(FusedClass::Dense, 4, 256), costs.fused_dense[2]);
        // …a quarter-full one at a quarter of it, a near-empty one at the
        // floor, and a diagonal one streams whatever its fill.
        assert_eq!(costs.block(FusedClass::Sparse, 4, 64), costs.fused_dense[2] / 4.0);
        assert_eq!(costs.block(FusedClass::Sparse, 3, 4), costs.fused_perm);
        assert_eq!(costs.block(FusedClass::Diagonal, 4, 16), costs.fused_diag);
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
        assert!(plan.iter().all(|op| op.class == FusedClass::Diagonal));
    }
}
