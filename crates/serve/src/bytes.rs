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
//! - the views show memory order, which is wire order because the serving
//!   crates build only for little-endian Linux (the gate in `lib.rs`,
//!   DESIGN.md §15).

#![allow(unsafe_code)]

mod sealed {
    pub trait Sealed {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
}

/// Pixel words the wire protocol carries: plain unsigned integers whose
/// in-memory representation equals their wire form.
pub trait WireWord: sealed::Sealed + Copy + Default + 'static {}

impl WireWord for u16 {}

impl WireWord for u32 {}

/// The wire bytes of a pixel slice, as a zero-copy borrowed view.
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
pub fn le_window<T: WireWord>(dst: &mut [T], byte_off: usize, len: usize) -> &mut [u8] {
    // SAFETY: same representation argument as `le_view`, mutably; every
    // bit pattern is a valid T, and the window is bounds-checked by the
    // safe subslice below.
    let bytes = unsafe {
        std::slice::from_raw_parts_mut(dst.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(dst))
    };
    &mut bytes[byte_off..byte_off + len]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_view_round_trips_through_le_window() {
        let pixels: Vec<u16> = (0..257u16).map(|v| v.wrapping_mul(0x1235)).collect();
        let bytes = le_view(&pixels).to_vec();
        assert_eq!(bytes.len(), pixels.len() * 2);
        assert_eq!(&bytes[..2], &pixels[0].to_le_bytes());
        let mut back = vec![0u16; pixels.len()];
        le_window(&mut back, 0, bytes.len()).copy_from_slice(&bytes);
        assert_eq!(back, pixels);
    }

    #[test]
    fn le_window_handles_split_words() {
        let want: Vec<u32> = vec![0xDEAD_BEEF, 0x0102_0304, 0xFFFF_0000];
        let bytes: Vec<u8> = want.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(le_view(&want), bytes.as_slice());
        let mut got = vec![0u32; 3];
        // Feed in deliberately misaligned chunks: 3 + 5 + 4 bytes.
        le_window(&mut got, 0, 3).copy_from_slice(&bytes[..3]);
        le_window(&mut got, 3, 5).copy_from_slice(&bytes[3..8]);
        le_window(&mut got, 8, 4).copy_from_slice(&bytes[8..]);
        assert_eq!(got, want);
    }
}
