//! The distributed engine's heap is bounded by construction: every shard
//! plus one gathered state, whatever the interleaving of the ranks.
//!
//! Swap outboxes and shards move between ranks instead of being copied,
//! a rank drops its exchange buffer with its last exchange, and the root
//! allocates the gathered state only once every shard is in hand. So the
//! high-water mark of a run, over the heap it started with, is at most
//! `ranks × shard + one state` plus small bookkeeping (the plan, the op
//! lists, channels), and the state-sized buffers alone never exceed
//! `ranks × shard + one state` at all. Each repetition is a fresh world
//! whose rank threads race differently, so the bound is checked on many
//! interleavings, not one.
//!
//! The counting allocator sees every thread (rank threads included), so
//! this binary holds one test and the harness runs nothing beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use a64fx_qcs::core::library;
use a64fx_qcs::dist::plan::{run_distributed_planned, DistPlanKind};

struct PeakAlloc;

/// Live bytes and their high-water mark, over all allocations and over
/// the state-sized ones (see [`state_sized`]).
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LIVE_LARGE: AtomicUsize = AtomicUsize::new(0);
static PEAK_LARGE: AtomicUsize = AtomicUsize::new(0);

/// Whether an allocation is a state, a shard, a swap buffer or a copy of
/// one: a power of two of amplitudes, and at least half the smallest
/// swap buffer below (n = 16 over 4 ranks swaps 128 KiB halves). The op
/// lists a rank runs are as large, but not a power of two.
fn state_sized(bytes: usize) -> bool {
    bytes >= 64 << 10 && bytes.is_power_of_two()
}

fn track(live: &AtomicUsize, peak: &AtomicUsize, bytes: usize) {
    let now = live.fetch_add(bytes, Ordering::SeqCst) + bytes;
    peak.fetch_max(now, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(&LIVE, &PEAK, layout.size());
        if state_sized(layout.size()) {
            track(&LIVE_LARGE, &PEAK_LARGE, layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        if state_sized(layout.size()) {
            LIVE_LARGE.fetch_sub(layout.size(), Ordering::SeqCst);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Reset both high-water marks to what is live now; returns it.
fn arm() -> (usize, usize) {
    let base = (LIVE.load(Ordering::SeqCst), LIVE_LARGE.load(Ordering::SeqCst));
    PEAK.store(base.0, Ordering::SeqCst);
    PEAK_LARGE.store(base.1, Ordering::SeqCst);
    base
}

#[test]
fn a_reorder_run_peaks_at_every_shard_plus_one_state_in_every_repetition() {
    const N: u32 = 16;
    const REPS: usize = 24;
    const SLACK: usize = 1 << 20;
    let state = 16usize << N;
    for (name, circuit) in [("qft", library::qft(N)), ("random", library::random_circuit(N, 24, 7))]
    {
        for ranks in [2usize, 4] {
            let shard = state / ranks;
            let bound = ranks * shard + state;
            for rep in 0..REPS {
                let (base, base_large) = arm();
                let (gathered, stats) =
                    run_distributed_planned(&circuit, ranks, DistPlanKind::Reorder).unwrap();
                let peak = PEAK.load(Ordering::SeqCst) - base;
                let large = PEAK_LARGE.load(Ordering::SeqCst) - base_large;
                assert!(stats.iter().any(|s| s.bytes_sent > shard as u64), "{name}: it swapped");
                drop(gathered);
                assert!(
                    large <= bound,
                    "{name} ranks={ranks} rep {rep}: state-sized peak {large} B over {bound} B"
                );
                assert!(
                    peak <= bound + SLACK,
                    "{name} ranks={ranks} rep {rep}: peak {peak} B over {bound} B + 1 MiB"
                );
            }
        }
    }
}
