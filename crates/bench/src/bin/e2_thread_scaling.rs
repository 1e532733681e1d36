//! E2 — Single-node thread scaling and CMG placement.
//!
//! Host side: workshared dense-gate sweeps at 1..host-cores threads under
//! static and dynamic schedules (measured speedup). Model side: predicted
//! A64FX scaling to 48 cores for compact vs scatter CMG placement — the
//! placement decides how many HBM2 stacks the threads can reach, so
//! scatter wins at low thread counts and both saturate at 4 CMGs.

use a64fx_model::traffic::TrafficModel;
use omp_par::affinity::AffinityMap;
use omp_par::{CmgTopology, Placement, Schedule, ThreadPool};
use qcs_bench::{bench_state, checksum, fmt_secs, sweep_bytes, time_best, Table};
use qcs_core::gates::standard;
use qcs_core::kernels::simd;
use qcs_core::kernels::sweep::apply_1q;

fn main() {
    let n = 22u32;
    let h = standard::h();
    let be = simd::active();
    let host_cores = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(4);

    println!("E2a: measured thread scaling on the host (n = {n}, dense 1q sweep ×{})", n);
    if host_cores == 1 {
        println!("(host exposes a single CPU: measured scaling is necessarily flat; the");
        println!(" worksharing correctness still holds and E2b carries the A64FX analysis)");
    }
    let mut table = Table::new(&["threads", "static", "dynamic(4096)", "speedup(static)"]);
    let mut base = 0.0;
    let mut threads = 1usize;
    while threads <= host_cores {
        let pool = ThreadPool::new(threads);
        let mut state = bench_state(n, 3);
        let t_static = time_best(3, || {
            for t in 0..n {
                let sched = Schedule::Static { chunk: None };
                apply_1q(be, Some(&pool), sched, state.amplitudes_mut(), t, &h);
            }
        });
        let t_dyn = time_best(3, || {
            for t in 0..n {
                let sched = Schedule::Dynamic { chunk: 4096 };
                apply_1q(be, Some(&pool), sched, state.amplitudes_mut(), t, &h);
            }
        });
        std::hint::black_box(checksum(state.amplitudes()));
        if threads == 1 {
            base = t_static;
        }
        table.row(&[
            threads.to_string(),
            fmt_secs(t_static),
            fmt_secs(t_dyn),
            format!("{:.2}×", base / t_static),
        ]);
        threads *= 2;
    }
    table.print();

    println!();
    println!("E2b: modelled A64FX scaling, n = 26 (1 GiB state), compact vs scatter placement");
    let model = TrafficModel::a64fx();
    let bytes = sweep_bytes(26) as f64;
    let mut table = Table::new(&[
        "threads",
        "CMGs (compact)",
        "time (compact)",
        "CMGs (scatter)",
        "time (scatter)",
        "scatter gain",
    ]);
    for threads in [1usize, 2, 4, 8, 12, 16, 24, 32, 48] {
        let mut row = vec![threads.to_string()];
        let mut times = Vec::new();
        for placement in [Placement::Compact, Placement::Scatter] {
            let map = AffinityMap::new(CmgTopology::A64FX, threads, placement);
            let cmgs = map.active_cmgs();
            let bw = model.effective_bandwidth(26, threads, cmgs, false);
            // Per-core L1/L2 limits also cap low thread counts: a single
            // core cannot saturate a CMG's HBM stack (~1/4 of it in
            // public STREAM measurements).
            let per_core_cap = threads as f64 * 64.0e9;
            let eff = bw.min(per_core_cap);
            let t = bytes / eff;
            times.push(t);
            row.push(cmgs.to_string());
            row.push(fmt_secs(t));
        }
        row.push(format!("{:.2}×", times[0] / times[1]));
        table.row(&row);
    }
    table.print();
    println!();
    println!("Expected shape: scatter ≥ compact until 48 threads where both saturate 4 CMGs;");
    println!("per-CMG bandwidth saturates at ~4 cores/CMG for this streaming kernel.");
}
