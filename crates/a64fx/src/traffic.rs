//! Closed-form memory-traffic and FLOP formulas for state-vector gate
//! kernels.
//!
//! These are the analytical backbone of the performance analysis: a
//! state-vector kernel is almost always bandwidth-bound, so predicting its
//! runtime reduces to predicting how many bytes cross the L2/HBM2 boundary
//! per applied gate.
//!
//! Conventions: `n` qubits ⇒ `2^n` amplitudes of 16 bytes (two `f64`).
//! Qubit `t` has stride `2^t` amplitudes between paired indices.

use crate::chip::ChipParams;

/// Bytes per amplitude of one `f64`-pair complex value.
pub const AMP_BYTES: u64 = 16;

/// The kind of kernel whose traffic is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// General dense 2×2 unitary on one target qubit.
    OneQubitDense,
    /// Diagonal 1-qubit gate (RZ, S, T, Z, phase): no pairing needed.
    OneQubitDiagonal,
    /// Controlled dense 1-qubit gate (one control).
    ControlledDense,
    /// Diagonal 2-qubit gate (CZ, CPhase): touches only |11⟩ amplitudes.
    TwoQubitDiagonal,
    /// General dense 4×4 two-qubit unitary.
    TwoQubitDense,
    /// Fused dense k-qubit unitary applied in one sweep.
    FusedDense { k: u8 },
    /// SWAP sweep: a pure amplitude permutation with no arithmetic.
    Swap,
}

/// Traffic/flop prediction for one whole-state application of a kernel.
#[derive(Debug, Clone, Copy)]
pub struct GateTraffic {
    /// Amplitudes read (counted at element granularity).
    pub amps_read: u64,
    /// Amplitudes written.
    pub amps_written: u64,
    /// Cache lines touched (at `line_bytes` granularity) — what actually
    /// crosses the memory boundary when the state exceeds L2.
    pub lines_touched: u64,
    /// Bytes crossing the L2/memory boundary for a cold, out-of-cache
    /// state (fills + dirty writebacks).
    pub mem_bytes: u64,
    /// Double-precision FLOPs executed.
    pub flops: u64,
    /// Arithmetic intensity against memory traffic (flop/byte).
    pub arithmetic_intensity: f64,
}

/// Model instance binding the formulas to a chip's line size and cache
/// capacities.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    chip: ChipParams,
}

impl TrafficModel {
    pub fn new(chip: ChipParams) -> TrafficModel {
        TrafficModel { chip }
    }

    pub fn a64fx() -> TrafficModel {
        TrafficModel::new(ChipParams::a64fx())
    }

    pub fn chip(&self) -> &ChipParams {
        &self.chip
    }

    /// Amplitudes per cache line.
    fn amps_per_line(&self) -> u64 {
        self.chip.l2.line_bytes as u64 / AMP_BYTES
    }

    /// Predict traffic for `kind` applied to an `n`-qubit state.
    ///
    /// `low_qubits` is the list of *participating* qubit indices that are
    /// below `log2(amps_per_line)` — for controlled/diagonal kernels the
    /// position of the control/target decides whether skipping indices
    /// actually skips cache lines.
    pub fn predict(&self, kind: KernelKind, n: u32, qubits: &[u32]) -> GateTraffic {
        let amps = 1u64 << n;
        let apl = self.amps_per_line(); // 16 for 256 B lines
        let line_qubits = apl.trailing_zeros(); // 4
        let total_lines = amps / apl.min(amps);

        let (amps_read, amps_written, lines_touched, flops) = match kind {
            KernelKind::OneQubitDense => {
                // Every amplitude is read and written once; pairs (i, i+2^t)
                // both updated. 2×2 complex mat-vec per pair:
                // 4 cmul (6 flops each w/ separate add) + 2 cadd — standard
                // count: 14 flops per pair... use FMA form: per output
                // amplitude 2 complex-fma = 8 FMA-flops ⇒ 16 flops/pair.
                (amps, amps, total_lines, amps * 8)
            }
            KernelKind::OneQubitDiagonal => {
                // One complex multiply per amplitude (6 flops).
                (amps, amps, total_lines, amps * 6)
            }
            KernelKind::ControlledDense => {
                // Only amplitudes with the control bit set participate:
                // half the elements. Whether half the *lines* are skipped
                // depends on the control qubit's position.
                let control = qubits.get(1).copied().unwrap_or(qubits[0]);
                let lines = if control >= line_qubits { total_lines / 2 } else { total_lines };
                (amps / 2, amps / 2, lines.max(1), (amps / 2) * 8)
            }
            KernelKind::TwoQubitDiagonal => {
                // Only |11⟩ amplitudes: a quarter of elements. Lines skipped
                // only for qubits above the line boundary.
                let above = qubits.iter().filter(|&&q| q >= line_qubits).count() as u32;
                let lines = (total_lines >> above.min(2)).max(1);
                (amps / 4, amps / 4, lines, (amps / 4) * 6)
            }
            KernelKind::TwoQubitDense => {
                // All amplitudes read+written; 4×4 complex mat-vec per
                // quadruple: per output amplitude 4 complex-fma = 16 flops.
                (amps, amps, total_lines, amps * 16)
            }
            KernelKind::FusedDense { k } => {
                // One sweep regardless of k; per output amplitude 2^k
                // complex-fma = 4·2^k FMA ⇒ 8·2^k flops.
                let per_amp = 8u64 << k;
                (amps, amps, total_lines, amps * per_amp)
            }
            KernelKind::Swap => {
                // Only the (01, 10) pairs move: half the amplitudes are
                // read and rewritten, zero flops. Whole lines are skipped
                // only when both swap qubits sit above the line boundary.
                let above = qubits.iter().filter(|&&q| q >= line_qubits).count();
                let lines = if above == 2 { (total_lines / 2).max(1) } else { total_lines };
                (amps / 2, amps / 2, lines, 0)
            }
        };

        let line_bytes = self.chip.l2.line_bytes as u64;
        // Cold state: every touched line is filled once and (being dirtied)
        // written back once.
        let mem_bytes = lines_touched * line_bytes * 2;
        let flops_f = flops as f64;
        GateTraffic {
            amps_read,
            amps_written,
            lines_touched,
            mem_bytes,
            flops,
            arithmetic_intensity: if mem_bytes == 0 { 0.0 } else { flops_f / mem_bytes as f64 },
        }
    }

    /// Which memory level the working set of an `n`-qubit state resides in
    /// for a single-threaded sweep: 0 = L1, 1 = L2, 2 = HBM2.
    pub fn residency(&self, n: u32) -> u8 {
        let bytes = (1u64 << n) * AMP_BYTES;
        self.residency_of(bytes, bytes)
    }

    /// The level a working set lives at when a core revisits `per_core`
    /// bytes of its own (its private L1) and the cores of one CMG
    /// revisit `per_cmg` bytes between them (their shared L2).
    pub fn residency_of(&self, per_core: u64, per_cmg: u64) -> u8 {
        if per_core <= self.chip.l1d.size_bytes as u64 {
            0
        } else if per_cmg <= self.chip.l2.size_bytes as u64 {
            1
        } else {
            2
        }
    }

    /// Effective sequential-stream bandwidth (bytes/s) available to a
    /// sweep over an `n`-qubit state with `active_cmgs` CMGs and
    /// `cores` cores participating.
    ///
    /// The strided-pair access of a high target qubit defeats the L1
    /// prefetcher's single-stream assumption; public A64FX measurements
    /// show roughly a 15–25% penalty for dual-stream strided access, which
    /// we model with `strided`.
    pub fn effective_bandwidth(
        &self,
        n: u32,
        cores: usize,
        active_cmgs: usize,
        strided: bool,
    ) -> f64 {
        let level = self.residency(n);
        let raw = match level {
            0 => {
                // L1-resident: each core streams from its own L1.
                cores as f64 * self.chip.l1_load_bytes_per_cycle * self.chip.freq_ghz * 1e9
            }
            1 => self.chip.peak_l2bw(active_cmgs),
            _ => self.chip.peak_membw(active_cmgs),
        };
        if strided && level == 2 {
            raw * 0.8
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TrafficModel {
        TrafficModel::a64fx()
    }

    #[test]
    fn one_qubit_dense_touches_everything() {
        let t = model().predict(KernelKind::OneQubitDense, 20, &[5]);
        assert_eq!(t.amps_read, 1 << 20);
        assert_eq!(t.amps_written, 1 << 20);
        // 2^20 amps × 16 B / 256 B per line = 65536 lines.
        assert_eq!(t.lines_touched, 65536);
        // Cold traffic: fills + writebacks = 2 × 16 MiB.
        assert_eq!(t.mem_bytes, 2 * (1 << 24));
        assert_eq!(t.flops, (1 << 20) * 8);
    }

    #[test]
    fn traffic_independent_of_target_qubit_for_dense() {
        // The headline analytical fact: a dense 1q gate touches all
        // amplitudes no matter the target, so HBM traffic is flat in t.
        let m = model();
        let t0 = m.predict(KernelKind::OneQubitDense, 24, &[0]);
        let t23 = m.predict(KernelKind::OneQubitDense, 24, &[23]);
        assert_eq!(t0.mem_bytes, t23.mem_bytes);
    }

    #[test]
    fn high_control_halves_line_traffic_low_control_does_not() {
        let m = model();
        // Control qubit above line boundary (≥4): half the lines skipped.
        let hi = m.predict(KernelKind::ControlledDense, 20, &[10, 12]);
        // Control qubit inside a line (<4): every line still touched.
        let lo = m.predict(KernelKind::ControlledDense, 20, &[10, 2]);
        assert_eq!(hi.lines_touched * 2, lo.lines_touched);
        assert_eq!(hi.amps_read, lo.amps_read, "element work is identical");
    }

    #[test]
    fn fused_kernel_raises_arithmetic_intensity() {
        let m = model();
        let single = m.predict(KernelKind::OneQubitDense, 22, &[3]);
        let fused3 = m.predict(KernelKind::FusedDense { k: 3 }, 22, &[1, 2, 3]);
        let fused5 = m.predict(KernelKind::FusedDense { k: 5 }, 22, &[1, 2, 3, 4, 5]);
        assert!(fused3.arithmetic_intensity > single.arithmetic_intensity);
        assert!(fused5.arithmetic_intensity > fused3.arithmetic_intensity);
        // Same memory traffic as one sweep.
        assert_eq!(fused5.mem_bytes, single.mem_bytes);
    }

    #[test]
    fn diagonal_two_qubit_skips_lines_only_above_boundary() {
        let m = model();
        let both_hi = m.predict(KernelKind::TwoQubitDiagonal, 20, &[8, 12]);
        let both_lo = m.predict(KernelKind::TwoQubitDiagonal, 20, &[1, 2]);
        let mixed = m.predict(KernelKind::TwoQubitDiagonal, 20, &[2, 12]);
        assert_eq!(both_hi.lines_touched * 4, both_lo.lines_touched);
        assert_eq!(mixed.lines_touched * 2, both_lo.lines_touched);
    }

    #[test]
    fn residency_levels() {
        let m = model();
        // 64 KiB L1 holds 2^12 amps.
        assert_eq!(m.residency(12), 0);
        assert_eq!(m.residency(13), 1);
        // 8 MiB L2 holds 2^19 amps.
        assert_eq!(m.residency(19), 1);
        assert_eq!(m.residency(20), 2);
    }

    #[test]
    fn effective_bandwidth_hierarchy_ordering() {
        let m = model();
        let l1 = m.effective_bandwidth(10, 12, 1, false);
        let l2 = m.effective_bandwidth(18, 12, 1, false);
        let mem = m.effective_bandwidth(26, 12, 1, false);
        assert!(l1 > l2, "L1 {l1} should beat L2 {l2}");
        assert!(l2 > mem, "L2 {l2} should beat HBM {mem}");
    }

    #[test]
    fn strided_penalty_applies_only_out_of_cache() {
        let m = model();
        assert_eq!(m.effective_bandwidth(16, 12, 1, true), m.effective_bandwidth(16, 12, 1, false));
        assert!(m.effective_bandwidth(26, 12, 1, true) < m.effective_bandwidth(26, 12, 1, false));
    }

    #[test]
    fn bandwidth_scales_with_cmgs_when_memory_bound() {
        let m = model();
        let one = m.effective_bandwidth(26, 12, 1, false);
        let four = m.effective_bandwidth(26, 48, 4, false);
        assert!((four / one - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ai_below_ridge_point_for_all_unfused_kernels() {
        // State-vector kernels are memory-bound on A64FX: the ridge point
        // is peak_flops / peak_bw = 3.072e12/1.024e12 = 3 flop/byte, and
        // every unfused kernel must sit well below it.
        let m = model();
        for kind in
            [KernelKind::OneQubitDense, KernelKind::OneQubitDiagonal, KernelKind::TwoQubitDense]
        {
            let t = m.predict(kind, 24, &[5, 9]);
            assert!(t.arithmetic_intensity < 3.0, "{kind:?} AI = {}", t.arithmetic_intensity);
        }
    }
}
