//! Byte-level views of pixel buffers for the wire codec.
//!
//! The workspace bans `unsafe` (see CONTRIBUTING.md); [`crate::signal`] and
//! [`crate::poll`] are the first two documented exceptions and this module
//! is the third, for the same reason: the wire format is raw little-endian
//! pixel words, and `std` offers no safe way to view an `&[u16]`/`&[u32]`
//! as the bytes it occupies. Without the view, every frame crossing the
//! socket pays a per-element `to_le_bytes`/`from_le_bytes` loop; with it,
//! encode/decode collapse to `memcpy` + CRC. The audit surface is
//! deliberately tiny:
//!
//! - the only types admitted are `u16` and `u32` (via the sealed
//!   [`WireWord`] trait): no padding, no niches, every bit pattern valid,
//!   `align_of::<u8>() == 1` so widening a typed slice to bytes is always
//!   aligned;
//! - the byte views never outlive the borrow they were made from, and the
//!   lengths are computed with `size_of::<T>()` on the same slice the
//!   pointer came from;
//! - the views show memory order, which is wire order only on
//!   little-endian hosts. Owned buffers are brought to the right order in
//!   place with [`reorder_le`]: a received frame once its bytes have
//!   landed, a reply stack before its frames are viewed. On little-endian
//!   hosts that pass is the identity and compiles to nothing. Borrowed
//!   slices go through [`le_bytes`], which serialises into scratch on
//!   big-endian hosts.

#![allow(unsafe_code)]

mod sealed {
    pub trait Sealed {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
}

/// Pixel words the wire protocol carries: plain unsigned integers whose
/// in-memory representation on little-endian hosts equals their wire form.
pub trait WireWord: sealed::Sealed + Copy + Default + 'static {
    /// The word converted between host and wire (little-endian) order: the
    /// identity on little-endian hosts, a byte swap on big-endian ones. The
    /// conversion is its own inverse.
    fn le_order(self) -> Self;
}

impl WireWord for u16 {
    fn le_order(self) -> Self {
        self.to_le()
    }
}

impl WireWord for u32 {
    fn le_order(self) -> Self {
        self.to_le()
    }
}

/// The wire (little-endian) bytes of a pixel slice, as a borrowed view.
///
/// Little-endian hosts get the zero-copy reinterpret; big-endian hosts
/// serialise into `scratch` and return a view of that.
pub fn le_bytes<'a, T: WireWord>(pixels: &'a [T], scratch: &'a mut Vec<u8>) -> &'a [u8] {
    #[cfg(target_endian = "little")]
    {
        let _ = scratch;
        le_view(pixels)
    }
    #[cfg(not(target_endian = "little"))]
    {
        scratch.clear();
        scratch.reserve(std::mem::size_of_val(pixels));
        for &p in pixels {
            scratch.extend_from_slice(le_view(&[p.le_order()]));
        }
        scratch.as_slice()
    }
}

/// The bytes of a pixel slice in memory order — its wire bytes once the
/// words are in wire order (always, on little-endian hosts). The
/// borrow-only twin of [`le_bytes`] for callers that cannot hold a scratch
/// buffer alongside the view (the event loop's vectored reply segments,
/// which re-derive the view at every flush).
pub fn le_view<T: WireWord>(pixels: &[T]) -> &[u8] {
    // SAFETY: T is u16/u32 (sealed): no padding, alignment of u8 is 1,
    // and the length in bytes is derived from the same slice.
    unsafe {
        std::slice::from_raw_parts(pixels.as_ptr().cast::<u8>(), std::mem::size_of_val(pixels))
    }
}

/// A mutable byte window over `dst[byte_off..byte_off + len]` in memory
/// order, for reading socket bytes directly into a pooled pixel buffer
/// (the "exactly one payload copy" path). Offsets and lengths need not be
/// word-aligned: a pixel split across two socket reads lands byte by byte.
/// Once a frame's wire bytes have all landed, [`reorder_le`] puts its words
/// in host order.
pub fn le_window<T: WireWord>(dst: &mut [T], byte_off: usize, len: usize) -> &mut [u8] {
    // SAFETY: same representation argument as `le_view`, mutably; every
    // bit pattern is a valid T, and the window is bounds-checked by the
    // safe subslice below.
    let bytes = unsafe {
        std::slice::from_raw_parts_mut(dst.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(dst))
    };
    &mut bytes[byte_off..byte_off + len]
}

/// Converts words between host and wire order in place (see
/// [`WireWord::le_order`]): wire → host after a received frame lands,
/// host → wire before a reply stack is viewed with [`le_view`].
pub fn reorder_le<T: WireWord>(words: &mut [T]) {
    for w in words {
        *w = w.le_order();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_bytes_round_trips_through_le_window() {
        let pixels: Vec<u16> = (0..257u16).map(|v| v.wrapping_mul(0x1235)).collect();
        let mut scratch = Vec::new();
        let bytes = le_bytes(&pixels, &mut scratch).to_vec();
        assert_eq!(bytes.len(), pixels.len() * 2);
        assert_eq!(&bytes[..2], &pixels[0].to_le_bytes());
        let mut back = vec![0u16; pixels.len()];
        le_window(&mut back, 0, bytes.len()).copy_from_slice(&bytes);
        reorder_le(&mut back);
        assert_eq!(back, pixels);
    }

    #[test]
    fn le_window_handles_split_words() {
        let want: Vec<u32> = vec![0xDEAD_BEEF, 0x0102_0304, 0xFFFF_0000];
        let mut scratch = Vec::new();
        let bytes = le_bytes(&want, &mut scratch).to_vec();
        let mut got = vec![0u32; 3];
        // Feed in deliberately misaligned chunks: 3 + 5 + 4 bytes.
        le_window(&mut got, 0, 3).copy_from_slice(&bytes[..3]);
        le_window(&mut got, 3, 5).copy_from_slice(&bytes[3..8]);
        le_window(&mut got, 8, 4).copy_from_slice(&bytes[8..]);
        reorder_le(&mut got);
        assert_eq!(got, want);
    }
}
