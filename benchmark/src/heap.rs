//! Live heap bytes and their high-water mark, counted at the global
//! allocator.
//!
//! `VmHWM` is what a user sees, but it does not repeat: glibc raises
//! its mmap threshold the first time a large block is freed, after
//! which state vectors come out of the thread arenas and resident
//! memory follows their fragmentation (the server's process peaked
//! anywhere from 40 to 58 MiB on identical work, and at a steady
//! 14 MiB with the threshold pinned). Bytes the program asked for and
//! has not yet returned are exact up to thread timing, move when a
//! change really holds more memory, and do not depend on the
//! allocator's mood. `VmHWM` is still reported, as the layer metric
//! `harness.peak_rss_mib`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with two relaxed counters in front of it. They
/// publish no other data, so no ordering is needed.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // Forwarded, not defaulted: the default zeroes by hand and would
    // touch every page of a state vector the program never writes.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as above.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as above.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

/// Forget the high-water mark so far: the next reading is the peak
/// since this call.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// High-water mark of live heap bytes since the last reset, in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1u64 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_follows_a_large_allocation_and_outlives_its_release() {
        let before = peak_mib();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let during = peak_mib();
        drop(block);
        assert!(during >= before.max(64.0), "64 MiB were live: {before} -> {during}");
        assert!(peak_mib() >= during, "a high-water mark never falls by itself");
        reset_peak();
        assert!(peak_mib() < during, "after a reset only what is still live counts");
    }
}
