//! Cache-line-aligned amplitude storage.
//!
//! The A64FX has 256-byte cache lines and its SVE loads are fastest on
//! 64-byte-aligned data; allocating the state vector aligned to a full
//! cache line removes line-straddling at every block boundary and makes
//! the traffic model's line arithmetic exact.
//!
//! A buffer of at least [`HUGE_PAGE`] bytes is aligned to that page size
//! and advised as huge-page backed before anything touches it, so its
//! first touch faults 2 MiB pages instead of 4 KiB ones where the kernel
//! grants them (transparent huge pages in `madvise` or `always` mode).
//! Where it does not, the advice is a no-op and nothing else changes.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::mem::MaybeUninit;

use crate::complex::C64;

/// Alignment of amplitude buffers: one A64FX cache line.
pub const AMP_ALIGN: usize = 256;

/// Size of a transparent huge page: the alignment of every buffer at
/// least this large.
pub const HUGE_PAGE: usize = 2 << 20;

/// A heap buffer of `C64` aligned to [`AMP_ALIGN`] bytes, or to
/// [`HUGE_PAGE`] bytes once it spans a huge page.
pub struct AlignedAmps {
    ptr: *mut C64,
    len: usize,
}

// SAFETY: AlignedAmps owns its allocation exclusively; C64 is Send + Sync.
unsafe impl Send for AlignedAmps {}
unsafe impl Sync for AlignedAmps {}

impl AlignedAmps {
    /// Allocate `len` zeroed amplitudes.
    pub fn zeroed(len: usize) -> AlignedAmps {
        let ptr = Self::allocate(len);
        // SAFETY: `ptr` has room for `len` amplitudes, and all-zero bytes
        // are the amplitude 0 + 0i.
        unsafe { ptr.write_bytes(0, len) };
        AlignedAmps { ptr, len }
    }

    /// Allocate an aligned copy of `amps`, written once (never zeroed
    /// first).
    pub fn from_slice(amps: &[C64]) -> AlignedAmps {
        let ptr = Self::allocate(amps.len());
        // SAFETY: `ptr` has room for `amps.len()` amplitudes and is a
        // fresh allocation, so the ranges do not overlap.
        unsafe { std::ptr::copy_nonoverlapping(amps.as_ptr(), ptr, amps.len()) };
        AlignedAmps { ptr, len: amps.len() }
    }

    /// Allocate `len` amplitudes that `fill` writes into uninitialised
    /// room, never zeroed first. If `fill` panics the room leaks unread.
    ///
    /// # Safety
    ///
    /// `fill` must write every element of the slice it is handed.
    pub(crate) unsafe fn from_fill(
        len: usize,
        fill: impl FnOnce(&mut [MaybeUninit<C64>]),
    ) -> AlignedAmps {
        let ptr = Self::allocate(len);
        // SAFETY: fresh room for `len` amplitudes, and a `MaybeUninit`
        // slot may hold anything.
        fill(unsafe { std::slice::from_raw_parts_mut(ptr.cast(), len) });
        AlignedAmps { ptr, len }
    }

    /// Uninitialised room for `len` amplitudes, advised as huge-page
    /// backed when it spans one. The caller writes every amplitude
    /// before it builds an `AlignedAmps` over them.
    fn allocate(len: usize) -> *mut C64 {
        assert!(len > 0, "empty state vectors are not meaningful");
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0, size_of<C64> = 16).
        let ptr = unsafe { alloc(layout) };
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        if layout.align() == HUGE_PAGE {
            advise_huge_pages(ptr, layout.size());
        }
        ptr as *mut C64
    }

    fn layout(len: usize) -> Layout {
        let bytes = len.checked_mul(std::mem::size_of::<C64>()).expect("amplitude buffer size");
        let align = if bytes >= HUGE_PAGE { HUGE_PAGE } else { AMP_ALIGN };
        Layout::from_size_align(bytes, align).expect("valid amplitude layout")
    }

    /// Number of amplitudes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Never empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Shared view.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        // SAFETY: ptr/len describe our exclusive allocation.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Exclusive view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        // SAFETY: as above, through &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for AlignedAmps {
    fn drop(&mut self) {
        // SAFETY: ptr was allocated with exactly this layout.
        unsafe { dealloc(self.ptr as *mut u8, Self::layout(self.len)) }
    }
}

impl Clone for AlignedAmps {
    fn clone(&self) -> AlignedAmps {
        AlignedAmps::from_slice(self.as_slice())
    }
}

/// Ask the kernel to back `bytes` bytes at the huge-page-aligned `ptr`
/// with huge pages. Advice only: where transparent huge pages are off,
/// or the call fails, the buffer keeps its 4 KiB pages.
#[cfg(all(target_os = "linux", not(miri)))]
fn advise_huge_pages(ptr: *mut u8, bytes: usize) {
    const MADV_HUGEPAGE: i32 = 14;
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    // SAFETY: the range is one live allocation of ours, page-aligned;
    // MADV_HUGEPAGE changes how it is backed, never its contents.
    unsafe { madvise(ptr.cast(), bytes, MADV_HUGEPAGE) };
}

#[cfg(not(all(target_os = "linux", not(miri))))]
fn advise_huge_pages(_ptr: *mut u8, _bytes: usize) {}

impl std::ops::Deref for AlignedAmps {
    type Target = [C64];
    #[inline]
    fn deref(&self) -> &[C64] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for AlignedAmps {
    #[inline]
    fn deref_mut(&mut self) -> &mut [C64] {
        self.as_mut_slice()
    }
}

impl<'a> IntoIterator for &'a AlignedAmps {
    type Item = &'a C64;
    type IntoIter = std::slice::Iter<'a, C64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut AlignedAmps {
    type Item = &'a mut C64;
    type IntoIter = std::slice::IterMut<'a, C64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

impl std::fmt::Debug for AlignedAmps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedAmps(len={}, align={})", self.len, Self::layout(self.len).align())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_aligned_and_zeroed() {
        for len in [1usize, 2, 16, 1024, 4097] {
            let a = AlignedAmps::zeroed(len);
            assert_eq!(a.as_slice().as_ptr() as usize % AMP_ALIGN, 0);
            assert_eq!(a.len(), len);
            assert!(a.as_slice().iter().all(|c| c.re == 0.0 && c.im == 0.0));
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut a = AlignedAmps::zeroed(8);
        a[3] = C64::new(1.0, -2.0);
        a.as_mut_slice()[7] = C64::new(0.5, 0.5);
        assert_eq!(a[3], C64::new(1.0, -2.0));
        assert_eq!(a[7].im, 0.5);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AlignedAmps::zeroed(4);
        a[0] = C64::new(9.0, 9.0);
        let b = a.clone();
        a[0] = C64::new(0.0, 0.0);
        assert_eq!(b[0], C64::new(9.0, 9.0));
        assert_eq!(b.as_slice().as_ptr() as usize % AMP_ALIGN, 0);
    }

    #[test]
    #[should_panic(expected = "not meaningful")]
    fn zero_length_rejected() {
        let _ = AlignedAmps::zeroed(0);
    }

    /// Amplitudes in one huge page.
    const PAGE_AMPS: usize = HUGE_PAGE / std::mem::size_of::<C64>();

    /// `len` amplitudes whose bits differ everywhere, signed zeros and
    /// NaN payloads included, so a copy that rounds or drops a lane shows.
    fn distinct(len: usize) -> Vec<C64> {
        (0..len)
            .map(|i| match i % 4 {
                0 => C64::new(-0.0, f64::from_bits(0x7ff8_0000_0000_0000 | i as u64)),
                _ => C64::new(i as f64 * 0.25, -(i as f64) - 0.5),
            })
            .collect()
    }

    fn bits(a: &[C64]) -> Vec<(u64, u64)> {
        a.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn buffers_of_a_huge_page_or_more_are_page_aligned_and_zero() {
        for len in [PAGE_AMPS, PAGE_AMPS + 1, 3 * PAGE_AMPS - 7] {
            // A dirtied buffer of the same size first, so a zeroed one
            // that reuses its memory must really be cleared.
            let mut dirty = AlignedAmps::zeroed(len);
            dirty.as_mut_slice().fill(C64::new(1.0, -1.0));
            drop(dirty);
            let a = AlignedAmps::zeroed(len);
            assert_eq!(a.as_slice().as_ptr() as usize % HUGE_PAGE, 0, "len {len}");
            assert!(a.iter().all(|c| c.re.to_bits() == 0 && c.im.to_bits() == 0), "len {len}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn copies_around_a_huge_page_equal_their_source_bit_for_bit() {
        for len in [PAGE_AMPS - 1, PAGE_AMPS, PAGE_AMPS + 1] {
            let src = distinct(len);
            let a = AlignedAmps::from_slice(&src);
            let b = a.clone();
            assert_eq!(bits(&a), bits(&src), "from_slice, len {len}");
            assert_eq!(bits(&b), bits(&src), "clone, len {len}");
            let align = if len >= PAGE_AMPS { HUGE_PAGE } else { AMP_ALIGN };
            for buf in [&a, &b] {
                assert_eq!(buf.as_slice().as_ptr() as usize % align, 0, "len {len}");
            }
        }
    }

    #[test]
    fn buffers_below_a_huge_page_keep_the_cache_line_alignment() {
        for len in [1, 16, PAGE_AMPS / 2, PAGE_AMPS - 1] {
            assert_eq!(AlignedAmps::layout(len).align(), AMP_ALIGN, "len {len}");
        }
        for len in [PAGE_AMPS, PAGE_AMPS + 1, 64 * PAGE_AMPS] {
            assert_eq!(AlignedAmps::layout(len).align(), HUGE_PAGE, "len {len}");
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    #[cfg_attr(miri, ignore)]
    fn huge_page_backing_is_reported_not_asserted() {
        // Whether the kernel grants huge pages is its setting, not ours
        // (THP may be `never`): print what it did, assert nothing.
        let a = AlignedAmps::zeroed(4 * PAGE_AMPS);
        let at = a.as_slice().as_ptr() as usize;
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap_or_default();
        let mut inside = false;
        for line in smaps.lines() {
            if let Some((lo, hi)) = line.split_whitespace().next().and_then(|r| r.split_once('-')) {
                let range =
                    usize::from_str_radix(lo, 16).ok().zip(usize::from_str_radix(hi, 16).ok());
                inside = range.is_some_and(|(lo, hi)| (lo..hi).contains(&at));
            } else if inside && line.starts_with("AnonHugePages:") {
                println!("8 MiB buffer at {at:#x}: {line}");
            }
        }
    }

    #[test]
    fn filled_room_is_aligned_and_holds_what_the_filler_wrote() {
        for len in [1usize, 3, 1024, 4097] {
            let want = distinct(len);
            // SAFETY: the filler writes every slot.
            let a = unsafe {
                AlignedAmps::from_fill(len, |room| {
                    for (slot, &w) in room.iter_mut().zip(&want) {
                        slot.write(w);
                    }
                })
            };
            assert_eq!(a.as_slice().as_ptr() as usize % AMP_ALIGN, 0, "len {len}");
            assert_eq!(bits(&a), bits(&want), "len {len}");
        }
    }

    #[test]
    fn from_slice_copies_and_aligns() {
        let src = vec![C64::new(1.0, 2.0), C64::new(-3.0, 0.5), C64::new(0.0, -1.0)];
        let a = AlignedAmps::from_slice(&src);
        assert_eq!(a.as_slice(), src.as_slice());
        assert_eq!(a.as_slice().as_ptr() as usize % AMP_ALIGN, 0);
    }
}
