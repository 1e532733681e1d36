//! E1 — Gate-kernel throughput vs target qubit index.
//!
//! The signature figure of any state-vector performance analysis: sweep
//! the target qubit of a dense 1-qubit gate and plot effective bandwidth.
//! Reproduced at three state sizes spanning the cache hierarchy
//! (L1-resident, L2-resident, memory-resident), with host-measured
//! bandwidth next to the A64FX model's prediction. The host column times
//! the kernel the engine ships: `GateKernel::One` on the active backend,
//! pool-less.
//!
//! Expected shape: flat within a residency level, with a drop when the
//! paired access stride leaves the L1-friendly window; the absolute
//! plateau is set by the level's bandwidth.
//!
//! E1c times the engine's own per-gate kernels (the `GateKernel` each
//! gate resolves to, pool-less, once per native backend the host runs)
//! by qubit position at n = 14 and n = 22, with the A64FX model's time
//! per amplitude in columns of its own.

use a64fx_model::traffic::{KernelKind, TrafficModel};
use omp_par::Schedule;
use qcs_bench::{bench_state, checksum, fmt_gbs, sweep_bytes, time_best, Table};
use qcs_core::circuit::Gate;
use qcs_core::gates::standard;
use qcs_core::kernels::dispatch::GateKernel;
use qcs_core::kernels::simd;
use qcs_core::perf::classify;

fn main() {
    let model = TrafficModel::a64fx();
    let h = standard::h();
    let be = simd::active();

    for &n in &[14u32, 18, 22] {
        let residency = match model.residency(n) {
            0 => "L1",
            1 => "L2",
            _ => "HBM2",
        };
        println!();
        println!(
            "E1: dense 1q gate on {}, n = {n} ({} MiB state, A64FX residency: {residency})",
            be.name,
            (1u64 << n) * 16 / (1 << 20)
        );
        let mut table =
            Table::new(&["target t", "host time", "host BW", "model BW (1 CMG)", "model time"]);
        let mut state = bench_state(n, 7);
        for t in (0..n).step_by(2) {
            let kernel = GateKernel::One(t, h);
            let secs = time_best(5, || {
                kernel.apply(be, None, Schedule::default(), state.amplitudes_mut());
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

    kernels_by_position(&model);
}

/// E1c: host ns/amp of the per-gate kernels at each qubit position, one
/// column per native backend, beside the model's.
fn kernels_by_position(model: &TrafficModel) {
    const SIZES: [u32; 2] = [14, 22];
    // Label, and the gate at register size n.
    type Row = (String, Box<dyn Fn(u32) -> Gate>);
    let mut rows: Vec<Row> = Vec::new();
    // Two-qubit rows pair `t` with `t + 1`; `Cx` targets `t`.
    for t in [0u32, 1, 2, 3, 5, 8, 12] {
        let gates = [
            Gate::Ry(t, 0.7),
            Gate::Rz(t, 0.7),
            Gate::X(t),
            Gate::Cz(t, t + 1),
            Gate::Cx(t + 1, t),
            Gate::Swap(t, t + 1),
            Gate::Rxx(t, t + 1, 0.7),
        ];
        rows.extend(gates.map(|g| -> Row {
            let qubits: Vec<String> = g.qubits().iter().map(u32::to_string).collect();
            (format!("{}({})", g.name(), qubits.join(", ")), Box::new(move |_| g.clone()))
        }));
    }
    rows.push(("Swap(0, n-1)".into(), Box::new(|n| Gate::Swap(0, n - 1))));

    let natives: Vec<_> = simd::available().into_iter().skip(1).collect();
    println!();
    println!(
        "E1c: per-gate kernels by qubit position, ns/amp (host: each native backend, pool-less, \
         best of several sweeps; model: A64FX, 1 CMG, cold state)"
    );
    let mut header = vec!["gate".to_string()];
    for n in SIZES {
        header.extend(natives.iter().map(|be| format!("{} n={n}", be.name)));
    }
    header.extend(SIZES.iter().map(|n| format!("model n={n}")));
    let mut table = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let mut states: Vec<_> = SIZES.iter().map(|&n| bench_state(n, 7)).collect();
    for (label, gate) in rows {
        let (mut host, mut modelled) = (Vec::new(), Vec::new());
        for (&n, state) in SIZES.iter().zip(&mut states) {
            let kernel = GateKernel::from(&gate(n));
            // Short sweeps repeat inside one timing so the clock resolves
            // them; the backends alternate, each keeping its best.
            let (reps, inner) = if n <= 16 { (10, 50) } else { (3, 1) };
            let mut best = vec![f64::MAX; natives.len()];
            for _ in 0..3 {
                for (best, be) in best.iter_mut().zip(&natives) {
                    *best = best.min(time_best(reps, || {
                        for _ in 0..inner {
                            kernel.apply(be, None, Schedule::default(), state.amplitudes_mut());
                        }
                    }));
                }
            }
            let amps = (1u64 << n) as f64;
            host.extend(best.iter().map(|s| format!("{:.3}", s / inner as f64 / amps * 1e9)));
            let g = gate(n);
            let traffic = model.predict(classify(&g), n, &g.qubits());
            let model_secs = traffic.mem_bytes as f64 / model.effective_bandwidth(n, 12, 1, false);
            modelled.push(format!("{:.4}", model_secs / amps * 1e9));
        }
        std::hint::black_box(states.iter().map(|s| checksum(s.amplitudes())).sum::<f64>());
        table.row(&[vec![label], host, modelled].concat());
    }
    table.print();
}
