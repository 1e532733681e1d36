//! The planned execution strategy: qubit remapping + cache-blocked runs.
//!
//! [`crate::sim::Strategy::Blocked`] only wins when the circuit happens
//! to keep its gates below the block width — a gate mixing amplitudes
//! across a high qubit (not a diagonal or a high control, which pin)
//! forces a full-state fallback sweep. This pass removes that luck
//! factor: it walks the circuit with a logical→physical qubit
//! [`Permutation`] (the local analogue of `qcs-dist`'s exchange plans),
//! and when a run of gates fits in `block_qubits`
//! *logical* qubits but sits on high *physical* axes, it inserts cheap
//! axis-swap relabeling sweeps that pull the run down onto low physical
//! qubits. The run then executes as one cache-resident block pass, with
//! its gates fused into ≤ `max_k`-qubit dense unitaries.
//!
//! Unlike the distributed case, relabeling here is not free: a physical
//! axis swap costs one (half-state) sweep — and on cache-hostile hosts
//! a wide (low↔high) axis swap costs several times a gate sweep, while
//! a block pass is nowhere near one cheap sweep. The planner therefore
//! prices each run in *calibrated nanoseconds*: relocation swaps (each
//! charged twice, since normalization must eventually undo it) plus the
//! fused block pass, versus one naive sweep per gate, all from the same
//! [`Calibration`] the auto-tuner uses. It only relocates when the
//! block side wins. A final normalization restores the identity layout
//! so callers see logical amplitudes.

use crate::calibrate::{block_pass_ns, fused_per_amp, gate_per_amp, Calibration};
use crate::circuit::{Circuit, Gate};
use crate::fusion::{fuse_costed, FusedOp};

/// A logical→physical qubit permutation.
///
/// `phys_of[logical]` is the physical axis currently holding that
/// logical qubit, exactly as in `qcs-dist::plan`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    phys_of: Vec<u32>,
}

impl Permutation {
    /// The identity layout on `n` qubits.
    pub fn identity(n: u32) -> Permutation {
        Permutation { phys_of: (0..n).collect() }
    }

    /// Number of qubits.
    pub fn len(&self) -> usize {
        self.phys_of.len()
    }

    pub fn is_empty(&self) -> bool {
        self.phys_of.is_empty()
    }

    /// Physical axis of a logical qubit.
    pub fn phys(&self, logical: u32) -> u32 {
        self.phys_of[logical as usize]
    }

    /// Logical qubit currently on a physical axis.
    pub fn logical_at(&self, phys: u32) -> u32 {
        self.phys_of.iter().position(|&p| p == phys).expect("permutation is total") as u32
    }

    /// Record a physical axis swap: the logical qubits on axes `a` and
    /// `b` trade places.
    pub fn swap_phys(&mut self, a: u32, b: u32) {
        for p in &mut self.phys_of {
            if *p == a {
                *p = b;
            } else if *p == b {
                *p = a;
            }
        }
    }

    /// Does every logical qubit sit on its own axis?
    pub fn is_identity(&self) -> bool {
        self.phys_of.iter().enumerate().all(|(l, &p)| l as u32 == p)
    }

    /// The permutation applying `self` first, then `then`:
    /// `(self ∘ then).phys(q) = then.phys(self.phys(q))`.
    pub fn compose(&self, then: &Permutation) -> Permutation {
        assert_eq!(self.len(), then.len());
        Permutation { phys_of: self.phys_of.iter().map(|&p| then.phys(p)).collect() }
    }

    /// The inverse permutation: `p.compose(&p.invert())` is the identity.
    pub fn invert(&self) -> Permutation {
        let mut inv = vec![0u32; self.phys_of.len()];
        for (logical, &phys) in self.phys_of.iter().enumerate() {
            inv[phys as usize] = logical as u32;
        }
        Permutation { phys_of: inv }
    }
}

/// One step of a planned execution. Gates inside are already remapped to
/// *physical* qubit indices under the layout in force at that step.
#[derive(Debug, Clone)]
pub enum PlanOp {
    /// Relabeling sweep: swap two physical amplitude axes.
    SwapAxes(u32, u32),
    /// One cache-blocked pass applying fused ops (all on physical qubits
    /// below the block width) block by block.
    Block(Vec<FusedOp>),
    /// Full-state fallback sweep for a gate not worth blocking.
    Gate(Box<Gate>),
}

/// A planned execution of a circuit.
#[derive(Debug, Clone)]
pub struct Plan {
    pub ops: Vec<PlanOp>,
    pub n_qubits: u32,
    pub block_qubits: u32,
    /// Full-state sweeps the plan executes (swap and fallback sweeps
    /// count 1 each; a block pass counts 1 regardless of its gate count).
    pub sweeps: usize,
    /// Relabeling sweeps inserted (relocation + final normalization).
    pub swaps_inserted: usize,
}

impl Plan {
    /// Original gates absorbed into block passes.
    pub fn gates_blocked(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                PlanOp::Block(fops) => fops.iter().map(|f| f.n_gates).sum(),
                _ => 0,
            })
            .sum()
    }

    /// Fallback full-state gate sweeps.
    pub fn gates_fallback(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, PlanOp::Gate(_))).count()
    }

    /// Block passes in the plan.
    pub fn blocks(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, PlanOp::Block(_))).count()
    }
}

/// Plan `circuit` for blocked execution with `block_qubits`-wide blocks,
/// fusing ≤ `max_k`-qubit sub-runs inside each block. Run pricing uses
/// the process-wide machine [`Calibration`].
pub fn plan_circuit(circuit: &Circuit, block_qubits: u32, max_k: u32) -> Plan {
    plan_circuit_with(circuit, block_qubits, max_k, Calibration::get())
}

/// [`plan_circuit`] with an explicit cost table — the auto-tuner passes
/// the calibration it is pricing with so prediction and execution agree,
/// and tests pass [`Calibration::analytic`] for deterministic shapes.
pub fn plan_circuit_with(
    circuit: &Circuit,
    block_qubits: u32,
    max_k: u32,
    cal: &Calibration,
) -> Plan {
    let n = circuit.n_qubits();
    let block_qubits = block_qubits.min(n);
    let mut planner = Planner {
        perm: Permutation::identity(n),
        ops: Vec::new(),
        sweeps: 0,
        swaps_inserted: 0,
        block_qubits,
        max_k,
        cal,
    };

    let mut run: Vec<Gate> = Vec::new();
    let mut support: Vec<u32> = Vec::new();
    for gate in circuit.gates() {
        let mut union = support.clone();
        for q in gate.qubits() {
            if !union.contains(&q) {
                union.push(q);
            }
        }
        if union.len() as u32 <= block_qubits {
            support = union;
            run.push(gate.clone());
            continue;
        }
        planner.flush(&mut run, &mut support);
        if gate.qubits().len() as u32 <= block_qubits {
            support = gate.qubits();
            support.sort_unstable();
            support.dedup();
            run.push(gate.clone());
        } else {
            // Wider than a block: nothing to gain, fall straight back.
            planner.emit_fallback(gate);
        }
    }
    planner.flush(&mut run, &mut support);
    planner.normalize();

    Plan {
        ops: planner.ops,
        n_qubits: n,
        block_qubits,
        sweeps: planner.sweeps,
        swaps_inserted: planner.swaps_inserted,
    }
}

struct Planner<'c> {
    perm: Permutation,
    ops: Vec<PlanOp>,
    sweeps: usize,
    swaps_inserted: usize,
    block_qubits: u32,
    max_k: u32,
    cal: &'c Calibration,
}

impl Planner<'_> {
    fn emit_fallback(&mut self, gate: &Gate) {
        let perm = &self.perm;
        self.ops.push(PlanOp::Gate(Box::new(gate.remap(|q| perm.phys(q)))));
        self.sweeps += 1;
    }

    /// Price and emit the pending run, then clear it.
    fn flush(&mut self, run: &mut Vec<Gate>, support: &mut Vec<u32>) {
        if run.is_empty() {
            return;
        }
        let cal = self.cal;
        // Logical support qubits currently on high physical axes.
        let high: Vec<u32> =
            support.iter().copied().filter(|&q| self.perm.phys(q) >= self.block_qubits).collect();
        // Hypothetically relocate: compute the swap list and would-be
        // layout without committing anything yet.
        let mut perm = self.perm.clone();
        let mut swaps: Vec<(u32, u32)> = Vec::new();
        for &hq in &high {
            let target = (0..self.block_qubits)
                .find(|&p| !support.contains(&perm.logical_at(p)))
                .expect("support fits below the block width");
            let from = perm.phys(hq);
            swaps.push((from, target));
            perm.swap_phys(from, target);
        }
        // Rewrite the run onto the would-be physical axes and fuse it
        // inside the block. In-block costed fusion: the pass shares one
        // memory stream, so members are priced by their arithmetic above
        // the stream floor.
        let mut block_circuit = Circuit::new(self.block_qubits);
        for g in run.iter() {
            block_circuit.push(g.remap(|q| perm.phys(q)));
        }
        let widest =
            block_circuit.gates().iter().map(|g| g.qubits().len() as u32).max().unwrap_or(1);
        let fused = fuse_costed(&block_circuit, self.max_k.max(widest), &cal.block_fuse_costs());
        // Price both executions in calibrated nanoseconds. Each
        // relocation swap is charged twice: normalization (or a later
        // run's relocation) must eventually swap the layout back.
        let amps = (1u64 << self.perm.len()) as f64;
        let sweep = |per_amp: f64| cal.sweep_overhead_ns + amps * per_amp;
        let naive_ns: f64 = run.iter().map(|g| sweep(gate_per_amp(cal, g))).sum();
        let block_ns = 2.0 * swaps.len() as f64 * sweep(cal.swap)
            + block_pass_ns(cal, amps, fused.iter().map(|op| fused_per_amp(cal, op)));
        // Relocation risk is asymmetric under calibration noise: a wrong
        // fallback forgoes a small win, a wrong commit pays the swaps
        // AND the low-stride block passes. Swap-bearing routes must
        // therefore be predicted to win by a clear margin; in-place
        // blocks (no swaps) commit on any predicted win.
        let margin = if swaps.is_empty() { 1.0 } else { 1.25 };
        if naive_ns <= block_ns * margin {
            for g in run.drain(..) {
                self.emit_fallback(&g);
            }
            support.clear();
            return;
        }
        for (from, target) in swaps {
            self.ops.push(PlanOp::SwapAxes(from, target));
            self.sweeps += 1;
            self.swaps_inserted += 1;
        }
        self.perm = perm;
        run.clear();
        self.ops.push(PlanOp::Block(fused));
        self.sweeps += 1;
        support.clear();
    }

    /// Restore the identity layout with explicit axis swaps.
    fn normalize(&mut self) {
        for logical in 0..self.perm.len() as u32 {
            let phys = self.perm.phys(logical);
            if phys != logical {
                self.ops.push(PlanOp::SwapAxes(phys, logical));
                self.perm.swap_phys(phys, logical);
                self.sweeps += 1;
                self.swaps_inserted += 1;
            }
        }
        debug_assert!(self.perm.is_identity());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    /// Deterministic shape tests: pin the analytic cost table so the
    /// expected plan shapes don't depend on host timing.
    fn plan(c: &Circuit, block_qubits: u32, max_k: u32) -> Plan {
        plan_circuit_with(c, block_qubits, max_k, &Calibration::analytic())
    }

    #[test]
    fn identity_permutation_maps_straight_through() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        for q in 0..5 {
            assert_eq!(p.phys(q), q);
            assert_eq!(p.logical_at(q), q);
        }
    }

    #[test]
    fn swap_phys_trades_two_axes() {
        let mut p = Permutation::identity(4);
        p.swap_phys(1, 3);
        assert_eq!(p.phys(1), 3);
        assert_eq!(p.phys(3), 1);
        assert_eq!(p.phys(0), 0);
        assert_eq!(p.logical_at(3), 1);
        assert!(!p.is_identity());
        p.swap_phys(1, 3);
        assert!(p.is_identity());
    }

    #[test]
    fn inversion_round_trips() {
        let mut p = Permutation::identity(6);
        p.swap_phys(0, 4);
        p.swap_phys(2, 5);
        p.swap_phys(4, 1);
        let inv = p.invert();
        assert!(p.compose(&inv).is_identity());
        assert!(inv.compose(&p).is_identity());
        assert_eq!(p.invert().invert(), p);
    }

    #[test]
    fn composition_associates_and_respects_order() {
        let mut a = Permutation::identity(5);
        a.swap_phys(0, 3);
        let mut b = Permutation::identity(5);
        b.swap_phys(3, 4);
        // Apply a then b: logical 0 goes 0→3 under a, 3→4 under b.
        let ab = a.compose(&b);
        assert_eq!(ab.phys(0), 4);
        let mut c = Permutation::identity(5);
        c.swap_phys(1, 2);
        assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
    }

    #[test]
    fn plan_ends_in_identity_layout() {
        // Any circuit: the net effect of all SwapAxes ops must be the
        // identity (relocations undone by normalization).
        for seed in 0..4u64 {
            let c = library::random_circuit(8, 40, seed);
            let plan = plan(&c, 4, 4);
            let mut p = Permutation::identity(8);
            for op in &plan.ops {
                if let PlanOp::SwapAxes(a, b) = op {
                    p.swap_phys(*a, *b);
                }
            }
            assert!(p.is_identity(), "seed={seed}");
        }
    }

    #[test]
    fn low_circuit_plans_to_single_block_without_swaps() {
        // All gates already below the block width: one block, no swaps.
        let c = library::rotation_layers(10, 3, 0.2);
        let plan = plan(&c, 10, 4);
        assert_eq!(plan.sweeps, 1);
        assert_eq!(plan.swaps_inserted, 0);
        assert_eq!(plan.blocks(), 1);
        assert_eq!(plan.gates_fallback(), 0);
        assert_eq!(plan.gates_blocked(), c.len());
    }

    #[test]
    fn high_qubit_run_is_relocated_not_fallen_back() {
        // 24 dense gates confined to qubits {8, 9, 10} of a 12-qubit
        // state, block width 4. Blocked would sweep 24 times; the plan
        // pays 3 relocation swaps + 1 block + 3 normalization swaps.
        let mut c = Circuit::new(12);
        for _ in 0..8 {
            c.h(8).cx(8, 9).cx(9, 10);
        }
        let plan = plan(&c, 4, 4);
        assert_eq!(plan.gates_fallback(), 0);
        assert_eq!(plan.blocks(), 1);
        assert_eq!(plan.swaps_inserted, 6);
        assert_eq!(plan.sweeps, 7);
        assert!(plan.sweeps < c.len());
    }

    #[test]
    fn unprofitable_runs_fall_back() {
        // A single high gate per run: relocation (1 swap + 1 block ≥ 2
        // sweeps) never beats one naive sweep.
        let mut c = Circuit::new(10);
        c.h(9);
        let plan = plan(&c, 4, 4);
        assert_eq!(plan.gates_fallback(), 1);
        assert_eq!(plan.swaps_inserted, 0);
        assert_eq!(plan.sweeps, 1);
    }

    #[test]
    fn wide_gates_fall_back() {
        let mut c = Circuit::new(8);
        c.ccx(0, 3, 6);
        let plan = plan(&c, 2, 2);
        assert_eq!(plan.gates_fallback(), 1);
        assert_eq!(plan.blocks(), 0);
    }

    #[test]
    fn plan_never_sweeps_more_than_naive_plus_normalization() {
        for seed in 0..4u64 {
            let c = library::random_circuit(9, 50, seed);
            for b in [2u32, 4, 6, 9] {
                let plan = plan(&c, b, 4);
                // The pricing rule guarantees each flushed run costs no
                // more than its gate count; only final normalization can
                // add sweeps beyond naive.
                assert!(
                    plan.sweeps <= c.len() + plan.n_qubits as usize,
                    "seed={seed} b={b}: {} sweeps for {} gates",
                    plan.sweeps,
                    c.len()
                );
            }
        }
    }

    #[test]
    fn block_ops_stay_below_block_width() {
        for seed in 0..4u64 {
            let c = library::random_circuit(8, 60, seed);
            let plan = plan(&c, 5, 3);
            for op in &plan.ops {
                if let PlanOp::Block(fops) = op {
                    for f in fops {
                        assert!(f.qubits.iter().all(|&q| q < 5), "{:?}", f.qubits);
                        assert!(f.qubits.len() <= 3, "{:?}", f.qubits);
                    }
                }
            }
        }
    }
}
