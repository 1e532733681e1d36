//! E1 — Gate-kernel throughput vs target qubit index.
//!
//! The signature figure of any state-vector performance analysis: sweep
//! the target qubit of a dense 1-qubit gate and plot effective bandwidth.
//! Reproduced at three state sizes spanning the cache hierarchy
//! (L1-resident, L2-resident, memory-resident), with host-measured
//! bandwidth next to the A64FX model's prediction.
//!
//! Expected shape: flat within a residency level, with a drop when the
//! paired access stride leaves the L1-friendly window; the absolute
//! plateau is set by the level's bandwidth.
//!
//! E1c times the engine's own diagonal kernels (the `GateKernel` each
//! gate resolves to, on the host's default SIMD backend, pool-less) by
//! qubit position at n = 14 and n = 22, with the A64FX model's time per
//! amplitude in columns of its own.

use a64fx_model::traffic::{KernelKind, TrafficModel};
use omp_par::Schedule;
use qcs_bench::{bench_state, checksum, fmt_gbs, sweep_bytes, time_best, Table};
use qcs_core::circuit::Gate;
use qcs_core::gates::standard;
use qcs_core::kernels::dispatch::GateKernel;
use qcs_core::kernels::scalar::apply_1q;
use qcs_core::kernels::simd;

fn main() {
    let model = TrafficModel::a64fx();
    let h = standard::h();

    for &n in &[14u32, 18, 22] {
        let residency = match model.residency(n) {
            0 => "L1",
            1 => "L2",
            _ => "HBM2",
        };
        println!();
        println!(
            "E1: dense 1q gate, n = {n} ({} MiB state, A64FX residency: {residency})",
            (1u64 << n) * 16 / (1 << 20)
        );
        let mut table =
            Table::new(&["target t", "host time", "host BW", "model BW (1 CMG)", "model time"]);
        let mut state = bench_state(n, 7);
        for t in (0..n).step_by(2) {
            let secs = time_best(5, || {
                apply_1q(state.amplitudes_mut(), t, &h);
            });
            std::hint::black_box(checksum(state.amplitudes()));
            let bytes = sweep_bytes(n);
            let host_bw = bytes as f64 / secs;
            // Model: effective bandwidth for this residency, with the
            // strided penalty above the line-qubit window.
            let strided = t >= 4 && model.residency(n) == 2;
            let model_bw = model.effective_bandwidth(n, 12, 1, strided);
            let traffic = model.predict(KernelKind::OneQubitDense, n, &[t]);
            let model_secs = traffic.mem_bytes as f64 / model_bw;
            table.row(&[
                t.to_string(),
                qcs_bench::fmt_secs(secs),
                fmt_gbs(host_bw),
                fmt_gbs(model_bw),
                qcs_bench::fmt_secs(model_secs),
            ]);
        }
        table.print();
    }

    println!();
    println!("E1b: controlled gate line-traffic effect (n = 20, CX control position)");
    let mut table = Table::new(&["control c", "lines touched", "vs dense 1q", "note"]);
    let dense_lines = model.predict(KernelKind::OneQubitDense, 20, &[5]).lines_touched;
    for c in [0u32, 2, 4, 8, 16] {
        let t = model.predict(KernelKind::ControlledDense, 20, &[5, c]);
        let frac = t.lines_touched as f64 / dense_lines as f64;
        let note =
            if c < 4 { "control inside cache line: no skip" } else { "half the lines skipped" };
        table.row(&[
            c.to_string(),
            t.lines_touched.to_string(),
            format!("{frac:.2}×"),
            note.to_string(),
        ]);
    }
    table.print();

    diagonals_by_position(&model);
}

/// E1c: host ns/amp of the diagonal kernels at each qubit position,
/// beside the model's.
fn diagonals_by_position(model: &TrafficModel) {
    const SIZES: [u32; 2] = [14, 22];
    // Label, and the gate at register size n.
    type Row = (String, Box<dyn Fn(u32) -> Gate>);
    let mut rows: Vec<Row> = Vec::new();
    for t in [0u32, 1, 2, 3, 5] {
        rows.push((
            format!("CPhase({}, {t})", t + 1),
            Box::new(move |_| Gate::CPhase(t + 1, t, 0.7)),
        ));
    }
    rows.push(("CPhase(n-1, n-2)".into(), Box::new(|n| Gate::CPhase(n - 1, n - 2, 0.7))));
    for t in 0u32..4 {
        rows.push((format!("Phase({t})"), Box::new(move |_| Gate::Phase(t, 0.7))));
    }
    rows.push(("Phase(n-1)".into(), Box::new(|n| Gate::Phase(n - 1, 0.7))));

    let be = simd::active();
    println!();
    println!(
        "E1c: diagonal kernels by qubit position, ns/amp (host: {} backend, pool-less, best of \
         several sweeps; model: A64FX, 1 CMG, cold state)",
        be.name
    );
    let mut table = Table::new(&["gate", "host n=14", "host n=22", "model n=14", "model n=22"]);
    let mut states: Vec<_> = SIZES.iter().map(|&n| bench_state(n, 7)).collect();
    for (label, gate) in rows {
        let (mut host, mut modelled) = (Vec::new(), Vec::new());
        for (&n, state) in SIZES.iter().zip(&mut states) {
            let g = gate(n);
            let kernel = GateKernel::from(&g);
            // Short sweeps repeat inside one timing so the clock resolves them.
            let (reps, inner) = if n <= 16 { (20, 50) } else { (7, 1) };
            let secs = time_best(reps, || {
                for _ in 0..inner {
                    kernel.apply(be, None, Schedule::default(), state.amplitudes_mut());
                }
            }) / inner as f64;
            let amps = (1u64 << n) as f64;
            host.push(format!("{:.3}", secs / amps * 1e9));
            let kind = match g.qubits().len() {
                1 => KernelKind::OneQubitDiagonal,
                _ => KernelKind::TwoQubitDiagonal,
            };
            let traffic = model.predict(kind, n, &g.qubits());
            let model_secs = traffic.mem_bytes as f64 / model.effective_bandwidth(n, 12, 1, false);
            modelled.push(format!("{:.4}", model_secs / amps * 1e9));
        }
        std::hint::black_box(states.iter().map(|s| checksum(s.amplitudes())).sum::<f64>());
        table.row(&[vec![label], host, modelled].concat());
    }
    table.print();
}
