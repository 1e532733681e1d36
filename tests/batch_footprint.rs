//! The heap claim of the member-major schedule, as a test.
//!
//! `VqeDriver::energies` streams its points through
//! `BatchSimulator::sweep_map`: each worker owns one scratch state for
//! the call and reduces a point's energy before it moves on, so the
//! call's peak heap is the bound circuits plus one state per thread —
//! not one state per point. This binary installs a counting global
//! allocator (live bytes and their high-water mark, every thread) and
//! holds a 64-point sweep at n = 12 on 2 threads to that bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use a64fx_qcs::core::prelude::*;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

#[test]
fn a_sweep_holds_one_state_per_thread_not_one_per_point() {
    const N: u32 = 12;
    const THREADS: usize = 2;
    const POINTS: usize = 64;
    const SLACK: usize = 64 << 10;
    let state_bytes = 16usize << N;

    let ansatz = hardware_efficient_ansatz(N, 2);
    let points: Vec<Vec<f64>> = (0..POINTS)
        .map(|i| (0..ansatz.n_params()).map(|j| 0.01 * (i * 31 + j) as f64).collect())
        .collect();
    let engine = BatchSimulator::from_config(SimConfig::default().threads(THREADS)).unwrap();
    let driver =
        VqeDriver::with_engine(ansatz.clone(), &Hamiltonian::ising_chain(N, 1.0, 0.7), engine);
    // Warm the pool's threads and any lazy statics outside the window.
    driver.energies(&points[..THREADS]).unwrap();

    // What the bound circuits of the sweep weigh, measured not guessed.
    let before = LIVE.load(Ordering::Relaxed);
    let circuits: Vec<Circuit> = points.iter().map(|p| ansatz.bind(p)).collect();
    let circuit_bytes = LIVE.load(Ordering::Relaxed) - before;
    drop(circuits);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let energies = driver.energies(&points).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - base;

    assert_eq!(energies.len(), POINTS);
    let bound = (THREADS + 1) * state_bytes + circuit_bytes + SLACK;
    assert!(
        peak < bound,
        "peak heap {peak} B over {POINTS} points: bound {bound} B = ({THREADS} + 1) states of \
         {state_bytes} B + {circuit_bytes} B of bound circuits + {SLACK} B slack; one state \
         per point would be {} B",
        POINTS * state_bytes
    );
}
