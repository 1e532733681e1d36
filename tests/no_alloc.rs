//! Proof that the fused hot loop never touches the heap.
//!
//! The seed regression that motivated the specialized kernels was partly
//! allocator traffic: the generic fused path built scratch vectors per
//! block application. This binary installs a counting global allocator
//! and asserts that [`PreparedFused::apply`] performs **zero**
//! allocations for every structure class at k ≤ 5, on every backend the
//! host runs, at every lowest target the block kernel treats differently
//! (below the vector's lane bits — 0 and 1 at 4 lanes, 0 to 2 at 8 —
//! lane exchange; above them contiguous lanes) — the entire cost of
//! lowering (offsets, the CSR rows) is paid once in `PreparedFused::new`,
//! outside the sweep.
//!
//! Only the armed thread is counted (a thread-local flag), so whatever
//! else the test harness allocates meanwhile cannot fail the proof.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use a64fx_qcs::core::fusion::{fuse, FusedClass};
use a64fx_qcs::core::kernels::fused::PreparedFused;
use a64fx_qcs::core::kernels::simd;
use a64fx_qcs::core::state::StateVector;
use a64fx_qcs::core::testing::class_circuit;
use a64fx_qcs::omp::Schedule;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized and without a destructor: reading it never
    // allocates, so the allocator may consult it.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn fused_hot_loop_is_allocation_free() {
    let backends = simd::available();
    let names: Vec<&str> = backends.iter().map(|b| b.name).collect();
    eprintln!("no_alloc: backends covered: {}", names.join(", "));
    let n = 12;
    let mut state = StateVector::plus(n);

    use FusedClass::{Dense, Diagonal, Permutation, Sparse};
    for class in [Diagonal, Permutation, Sparse, Dense] {
        for k in 1..=5u32 {
            for lowest in [0u32, 1, 2, 3, 5] {
                let qubits: Vec<u32> = (lowest..lowest + k).collect();
                // No sparse block below three qubits.
                let Some(circuit) = class_circuit(class, n, &qubits) else { continue };
                let plan = fuse(&circuit, k);
                assert_eq!((plan.len(), plan[0].class), (1, class));
                assert!(plan[0].gate.is_none(), "the op must run a block kernel");
                let prep = PreparedFused::new(&plan[0]);
                for be in &backends {
                    // Warm-up pass: let any lazy one-time initialization
                    // (backend detection, allocator pools) happen first.
                    let amps = state.amplitudes_mut();
                    prep.apply(be, None, Schedule::default(), amps);

                    ALLOCS.store(0, Ordering::SeqCst);
                    ARMED.set(true);
                    prep.apply(be, None, Schedule::default(), amps);
                    ARMED.set(false);

                    let count = ALLOCS.load(Ordering::SeqCst);
                    assert_eq!(
                        count, 0,
                        "{class:?} k={k} lowest={lowest} be={}: {count} heap allocations in the \
                         fused hot loop",
                        be.name
                    );
                }
            }
        }
    }
}
