//! MSB-first bit-oriented readers and writers.
//!
//! Used by the canonical Huffman coder ([`crate::huffman`]) and available to
//! any encoder that needs sub-byte packing (e.g. PBC's optional entropy
//! encoding of residual subsequences, Section 5.2 of the paper).

use crate::error::{CodecError, Result};

/// Writes bits most-significant-bit first into a growable byte buffer,
/// through a 64-bit accumulator that is flushed a whole number of bytes at
/// a time.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits in the low `pending` bits, oldest first (higher bits
    /// are stale and ignored).
    acc: u64,
    /// Number of pending bits in `acc` (0..=64).
    pending: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with pre-allocated capacity (in bytes).
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bytes),
            acc: 0,
            pending: 0,
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.pending as usize
    }

    /// Append the `count` low bits of `value`, MSB first. `count` ≤ 57 keeps
    /// the shift arithmetic safely inside a `u64`.
    pub fn write_bits(&mut self, value: u64, count: u8) {
        debug_assert!(count <= 57, "write_bits supports at most 57 bits per call");
        if count == 0 {
            return;
        }
        let count = u32::from(count);
        if self.pending + count > 64 {
            // At least 8 bits are pending (count ≤ 57): flush the whole
            // bytes, leaving fewer than 8.
            let whole = self.pending / 8;
            self.buf
                .extend_from_slice(&self.pending_bytes()[..whole as usize]);
            self.pending -= whole * 8;
        }
        // Mask off anything above `count` bits so callers can pass raw words.
        let value = value & ((1u64 << count) - 1);
        self.acc = self.acc << count | value;
        self.pending += count;
    }

    /// The pending bits left-aligned, zero-filled below, in byte order.
    /// Callers ensure at least one bit is pending.
    fn pending_bytes(&self) -> [u8; 8] {
        (self.acc << (64 - self.pending)).to_be_bytes()
    }

    /// Append a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Pad the final byte with zero bits and return the underlying buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.pending > 0 {
            let bytes = self.pending.div_ceil(8) as usize;
            self.buf.extend_from_slice(&self.pending_bytes()[..bytes]);
        }
        self.buf
    }
}

/// Reads bits most-significant-bit first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Number of bits remaining.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Read `count` bits (MSB first) as the low bits of the returned value.
    pub fn read_bits(&mut self, count: u8) -> Result<u64> {
        if count == 0 {
            return Ok(0);
        }
        if self.remaining_bits() < count as usize {
            return Err(CodecError::UnexpectedEof {
                context: "bitstream",
            });
        }
        let mut value = 0u64;
        let mut remaining = count;
        while remaining > 0 {
            let byte_idx = self.pos / 8;
            let bit_off = (self.pos % 8) as u8;
            let available = 8 - bit_off;
            let take = available.min(remaining);
            let byte = self.buf[byte_idx];
            let chunk = (byte >> (available - take)) & ((1u16 << take) - 1) as u8;
            value = (value << take) | u64::from(chunk);
            self.pos += take as usize;
            remaining -= take;
        }
        Ok(value)
    }

    /// Read a single bit.
    pub fn read_bit(&mut self) -> Result<bool> {
        Ok(self.read_bits(1)? == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let pattern = [true, false, true, true, false, false, true, false, true];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), pattern.len());
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_values_roundtrip() {
        let values: Vec<(u64, u8)> = vec![
            (0b101, 3),
            (0xff, 8),
            (0, 1),
            (0b1100110011, 10),
            (12345, 17),
            (1, 1),
            ((1 << 33) - 7, 34),
        ];
        let mut w = BitWriter::new();
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v, "value with {n} bits");
        }
    }

    #[test]
    fn writer_masks_extra_high_bits() {
        let mut w = BitWriter::new();
        // Only the low 4 bits of 0xfff should be written.
        w.write_bits(0xfff, 4);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0xf);
    }

    #[test]
    fn reading_past_end_fails() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        // The final byte is zero-padded so 8 bits are readable, but not 9.
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0x7f, 7);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(3, 2);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn accumulator_output_matches_bit_at_a_time_packing() {
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            lcg >> 7
        };
        for _ in 0..50 {
            let mut w = BitWriter::new();
            let mut bits = Vec::new();
            for _ in 0..next() % 200 {
                let (value, count) = (next(), (next() % 58) as u8);
                w.write_bits(value, count);
                bits.extend((0..count).rev().map(|i| value >> i & 1 == 1));
                assert_eq!(w.bit_len(), bits.len());
            }
            let packed: Vec<u8> = bits
                .chunks(8)
                .map(|byte| {
                    byte.iter()
                        .enumerate()
                        .fold(0u8, |acc, (i, &b)| acc | u8::from(b) << (7 - i))
                })
                .collect();
            assert_eq!(w.finish(), packed);
        }
    }

    #[test]
    fn byte_aligned_writes_match_plain_bytes() {
        let mut w = BitWriter::new();
        for b in [0xde, 0xad, 0xbe, 0xef] {
            w.write_bits(b as u64, 8);
        }
        assert_eq!(w.finish(), vec![0xde, 0xad, 0xbe, 0xef]);
    }
}
