//! Plain-old-data marshalling for typed message payloads.
//!
//! Messages travel between rank threads as `Vec<u8>`. [`Pod`] marks types
//! whose byte representation is a complete, padding-free description of
//! the value, so slices can be copied in and out without a serialization
//! framework (the same contract MPI datatypes rely on).

/// Marker for types that can be sent as raw bytes.
///
/// # Safety
///
/// Implementors must be `Copy`, have no padding bytes, and be valid for
/// every bit pattern of their size (no niches, no pointers). All primitive
/// numeric types qualify; `#[repr(C)]` structs of such fields with no
/// padding qualify.
pub unsafe trait Pod: Copy + Send + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
unsafe impl Pod for usize {}
unsafe impl Pod for isize {}
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// A buffer that travels whole: [`crate::Comm::try_send_owned`] hands
/// it to the receiver on the fast path — no copy on either side — and
/// copies its elements, as for a slice, under a fault plan, where
/// [`Buffer::from_elems`] rebuilds it on the receiving rank.
pub trait Buffer: Send + 'static {
    /// The element type of the buffer's wire form.
    type Elem: Pod;
    /// The elements the message carries.
    fn elems(&self) -> &[Self::Elem];
    /// A buffer holding a copy of `elems`.
    fn from_elems(elems: &[Self::Elem]) -> Self;
}

/// Copy a typed slice into a fresh byte vector.
pub fn to_bytes<T: Pod>(data: &[T]) -> Vec<u8> {
    let n = std::mem::size_of_val(data);
    let mut out = vec![0u8; n];
    // SAFETY: Pod guarantees no padding and byte-copyable representation;
    // lengths match by construction.
    unsafe {
        std::ptr::copy_nonoverlapping(data.as_ptr() as *const u8, out.as_mut_ptr(), n);
    }
    out
}

/// Reinterpret a byte vector as a typed vector.
///
/// Panics if the byte length is not a multiple of `size_of::<T>()` —
/// that is a type mismatch between sender and receiver, which MPI would
/// also surface as a truncation error.
pub fn from_bytes<T: Pod>(bytes: &[u8]) -> Vec<T> {
    let sz = std::mem::size_of::<T>();
    assert!(sz > 0, "zero-sized Pod types are not meaningful payloads");
    assert!(
        bytes.len().is_multiple_of(sz),
        "payload of {} bytes is not a whole number of {}-byte elements",
        bytes.len(),
        sz
    );
    let n = bytes.len() / sz;
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: destination capacity is n elements; Pod allows any bit
    // pattern; copy is into freshly allocated, properly aligned storage.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, n * sz);
        out.set_len(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        let xs = vec![1.5f64, -2.25, f64::MIN_POSITIVE, 0.0, f64::MAX];
        let b = to_bytes(&xs);
        assert_eq!(b.len(), 40);
        let back: Vec<f64> = from_bytes(&b);
        assert_eq!(back, xs);
    }

    #[test]
    fn roundtrip_u8_identity() {
        let xs: Vec<u8> = (0..=255).collect();
        assert_eq!(from_bytes::<u8>(&to_bytes(&xs)), xs);
    }

    #[test]
    fn roundtrip_array_pairs() {
        let xs = vec![[1.0f64, 2.0], [3.0, 4.0]];
        let back: Vec<[f64; 2]> = from_bytes(&to_bytes(&xs));
        assert_eq!(back, xs);
    }

    #[test]
    fn roundtrip_nan_bit_patterns() {
        let xs = vec![f64::NAN, -f64::NAN];
        let back: Vec<f64> = from_bytes(&to_bytes(&xs));
        assert_eq!(back[0].to_bits(), xs[0].to_bits());
        assert_eq!(back[1].to_bits(), xs[1].to_bits());
    }

    #[test]
    fn empty_slice() {
        let xs: Vec<u64> = vec![];
        let b = to_bytes(&xs);
        assert!(b.is_empty());
        assert!(from_bytes::<u64>(&b).is_empty());
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn misaligned_length_panics() {
        let _ = from_bytes::<u64>(&[0u8; 12]);
    }
}
