//! LEB128 variable-length integer encoding.
//!
//! Used by the codecs for lengths and offsets, and by `pbc-core` for the
//! `VARINT` field encoder of Table 1 ("variable length unsigned integer
//! encoder to encode numbers for space saving").

use crate::error::{CodecError, Result};

/// Append `value` to `out` as an unsigned LEB128 varint.
///
/// Returns the number of bytes written (1–10 for a `u64`).
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut written = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        written += 1;
        if value == 0 {
            out.push(byte);
            return written;
        }
        out.push(byte | 0x80);
    }
}

/// Append `value` to `out` as an unsigned LEB128 varint (32-bit helper).
pub fn write_u32(out: &mut Vec<u8>, value: u32) -> usize {
    write_u64(out, u64::from(value))
}

/// Append `value` as a LEB128 varint for a `usize`.
pub fn write_usize(out: &mut Vec<u8>, value: usize) -> usize {
    write_u64(out, value as u64)
}

/// Number of bytes [`write_u64`] would produce for `value`.
pub fn encoded_len(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    // ceil(bits / 7)
    let bits = 64 - value.leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Read an unsigned LEB128 varint from `input` starting at `pos`.
///
/// Returns `(value, new_pos)`. The one-byte case (values < 128 — block
/// entry framing, literal/match lengths in the LZ-family decoders) is a
/// branch-free-ish fast path; longer encodings take the cold loop.
#[inline]
pub fn read_u64(input: &[u8], pos: usize) -> Result<(u64, usize)> {
    match input.get(pos) {
        Some(&byte) if byte < 0x80 => Ok((u64::from(byte), pos + 1)),
        Some(_) => read_u64_multibyte(input, pos),
        None => Err(CodecError::UnexpectedEof { context: "varint" }),
    }
}

/// Continuation-byte decode loop behind [`read_u64`]'s fast path.
fn read_u64_multibyte(input: &[u8], mut pos: usize) -> Result<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *input
            .get(pos)
            .ok_or(CodecError::UnexpectedEof { context: "varint" })?;
        pos += 1;
        if shift >= 64 {
            return Err(CodecError::corrupt("varint longer than 10 bytes"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, pos));
        }
        shift += 7;
    }
}

/// Read a varint and narrow it to `usize`.
#[inline]
pub fn read_usize(input: &[u8], pos: usize) -> Result<(usize, usize)> {
    let (v, p) = read_u64(input, pos)?;
    Ok((v as usize, p))
}

/// The output capacity a decoder may reserve for a stream whose header
/// declares `declared` bytes: the declaration, but no more than the
/// `input_len` bytes of the stream could decode to at `max_expansion`
/// output bytes per input byte. A damaged header then cannot request an
/// allocation the stream does not back; output past the reservation only
/// grows the buffer as it is decoded.
pub(crate) fn reservation(declared: usize, input_len: usize, max_expansion: usize) -> usize {
    declared.min(input_len.saturating_mul(max_expansion))
}

/// Read a varint and narrow it to `u32`, rejecting overflow.
pub fn read_u32(input: &[u8], pos: usize) -> Result<(u32, usize)> {
    let (v, p) = read_u64(input, pos)?;
    u32::try_from(v)
        .map(|v| (v, p))
        .map_err(|_| CodecError::corrupt("varint exceeds u32 range"))
}

/// Zig-zag encode a signed integer so small magnitudes stay small when
/// varint-encoded. Used for timestamp deltas in the log substrate.
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Append a zig-zag + LEB128 encoded signed integer.
pub fn write_i64(out: &mut Vec<u8>, value: i64) -> usize {
    write_u64(out, zigzag_encode(value))
}

/// Read a zig-zag + LEB128 encoded signed integer.
pub fn read_i64(input: &[u8], pos: usize) -> Result<(i64, usize)> {
    let (v, p) = read_u64(input, pos)?;
    Ok((zigzag_decode(v), p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small_values() {
        for v in 0u64..1000 {
            let mut buf = Vec::new();
            let n = write_u64(&mut buf, v);
            assert_eq!(n, buf.len());
            assert_eq!(n, encoded_len(v));
            let (decoded, pos) = read_u64(&buf, 0).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn roundtrip_boundary_values() {
        for v in [
            0,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(encoded_len(v), buf.len());
            let (decoded, _) = read_u64(&buf, 0).unwrap();
            assert_eq!(decoded, v);
        }
    }

    #[test]
    fn one_byte_for_values_below_128() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_u64(&mut buf, 128);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn truncated_varint_is_an_error() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.pop();
        assert!(matches!(
            read_u64(&buf, 0),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes cannot encode a u64.
        let buf = vec![0x80u8; 11];
        assert!(read_u64(&buf, 0).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [-1_000_000i64, -1, 0, 1, 1_000_000, i64::MIN, i64::MAX] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }

    #[test]
    fn signed_roundtrip_through_buffer() {
        let values = [-5_000_000_000i64, -42, 0, 42, 5_000_000_000];
        let mut buf = Vec::new();
        for &v in &values {
            write_i64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            let (decoded, new_pos) = read_i64(&buf, pos).unwrap();
            assert_eq!(decoded, v);
            pos = new_pos;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn u32_narrowing_rejects_overflow() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::from(u32::MAX) + 1);
        assert!(read_u32(&buf, 0).is_err());
        buf.clear();
        write_u64(&mut buf, u64::from(u32::MAX));
        assert_eq!(read_u32(&buf, 0).unwrap().0, u32::MAX);
    }
}
