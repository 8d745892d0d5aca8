//! MSB-first bit-level I/O over byte buffers.

use crate::error::RiceError;

/// An MSB-first bit writer accumulating into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    current: u8,
    filled: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the `count` least-significant bits of `value`, MSB first.
    ///
    /// # Panics
    /// Panics if `count > 64`.
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            self.current = (self.current << 1) | bit as u8;
            self.filled += 1;
            if self.filled == 8 {
                self.buf.push(self.current);
                self.current = 0;
                self.filled = 0;
            }
        }
    }

    /// Appends a unary code: `value` zero-bits followed by a one-bit
    /// (the fundamental sequence of the Rice coder).
    pub fn write_unary(&mut self, value: u64) {
        for _ in 0..value {
            self.write_bits(0, 1);
        }
        self.write_bits(1, 1);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.filled as usize
    }

    /// Pads the final partial byte with zeros and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.filled > 0 {
            self.current <<= 8 - self.filled;
            self.buf.push(self.current);
        }
        self.buf
    }
}

/// An MSB-first bit reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize, // absolute bit position
}

impl<'a> BitReader<'a> {
    /// Creates a reader at bit position 0.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0 }
    }

    /// Remaining readable bits.
    pub fn remaining(&self) -> usize {
        self.data.len() * 8 - self.pos
    }

    /// Reads `count` bits into the low end of a `u64`.
    ///
    /// # Errors
    /// Returns [`RiceError::UnexpectedEof`] if fewer than `count` bits
    /// remain.
    pub fn read_bits(&mut self, count: u32) -> Result<u64, RiceError> {
        if count as usize > self.remaining() {
            return Err(RiceError::UnexpectedEof);
        }
        let mut out = 0u64;
        for _ in 0..count {
            let byte = self.data[self.pos / 8];
            let bit = (byte >> (7 - self.pos % 8)) & 1;
            out = (out << 1) | u64::from(bit);
            self.pos += 1;
        }
        Ok(out)
    }

    /// Reads a unary code (zeros terminated by a one).
    ///
    /// # Errors
    /// Returns [`RiceError::UnexpectedEof`] if the stream ends before the
    /// terminating one-bit.
    pub fn read_unary(&mut self) -> Result<u64, RiceError> {
        let mut count = 0u64;
        loop {
            match self.read_bits(1)? {
                1 => return Ok(count),
                _ => count += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 1);
        w.write_bits(42, 17);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(17).unwrap(), 42);
    }

    #[test]
    fn unary_roundtrip() {
        let mut w = BitWriter::new();
        for v in [0u64, 1, 2, 7, 100] {
            w.write_unary(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for v in [0u64, 1, 2, 7, 100] {
            assert_eq!(r.read_unary().unwrap(), v);
        }
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(1, 5);
        assert_eq!(w.bit_len(), 5);
        w.write_bits(1, 5);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn eof_detection() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        let bytes = w.finish(); // one byte after padding
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0b1000_0000);
        assert_eq!(r.read_bits(1), Err(RiceError::UnexpectedEof));
    }

    #[test]
    fn unary_eof_when_unterminated() {
        let bytes = [0u8, 0];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_unary(), Err(RiceError::UnexpectedEof));
    }

    #[test]
    fn padding_is_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1100_0000]);
    }
}
