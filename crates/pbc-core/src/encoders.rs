//! Field encoders for residual subsequences (Table 1 of the paper).
//!
//! Each wildcard position of a pattern carries a [`FieldEncoder`] describing
//! how the residual values that fall into that field are serialized:
//!
//! | Encoder | Paper description |
//! |---|---|
//! | [`FieldEncoder::Char`] | `CHAR(n)` — fixed length characters |
//! | [`FieldEncoder::Varchar`] | `VARCHAR` — variable length characters with a 1–2 byte length header |
//! | [`FieldEncoder::Int`] | `INT(n, m)` — fixed-length digit strings stored as an `m`-byte integer |
//! | [`FieldEncoder::Varint`] | `VARINT` — variable-length digit strings stored as a LEB128 integer |
//!
//! The encoder for a field is chosen during pattern extraction as the
//! cheapest encoder that is *valid* for every observed value of the field
//! (the "optimal encoding function" of Definition 2).

use pbc_codecs::varint;

use crate::error::{PbcError, Result};

/// How residual values of one field are serialized. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldEncoder {
    /// Fixed-length byte string of exactly `n` bytes; stored raw with no
    /// header.
    Char {
        /// Field width in bytes.
        n: u16,
    },
    /// Variable-length byte string; stored as a 1–2 byte length header
    /// followed by the payload.
    Varchar,
    /// Fixed-length decimal digit string of `digits` digits; stored as a
    /// little-endian unsigned integer of `bytes` bytes. Leading zeros are
    /// restored on decode because the digit count is part of the encoder.
    Int {
        /// Number of decimal digits in the field value.
        digits: u8,
        /// Number of bytes of the stored integer.
        bytes: u8,
    },
    /// Variable-length decimal digit string without leading zeros; stored as
    /// a LEB128 varint.
    Varint,
}

impl FieldEncoder {
    /// Number of integer bytes needed to hold any `digits`-digit decimal
    /// value (`m` in the paper's `INT(n, m)`).
    pub fn int_bytes_for_digits(digits: u8) -> u8 {
        // 10^digits - 1 must fit. bits = ceil(digits * log2(10)).
        let bits = (f64::from(digits) * 10f64.log2()).ceil() as u32;
        (bits.div_ceil(8)).max(1) as u8
    }

    /// Construct the `INT(n, m)` encoder for an `n`-digit field.
    pub fn int_for_digits(digits: u8) -> Self {
        FieldEncoder::Int {
            digits,
            bytes: Self::int_bytes_for_digits(digits),
        }
    }

    /// Whether `value` can be represented by this encoder.
    pub fn accepts(&self, value: &[u8]) -> bool {
        match *self {
            FieldEncoder::Char { n } => value.len() == n as usize,
            FieldEncoder::Varchar => value.len() < (1 << 15),
            FieldEncoder::Int { digits, .. } => {
                value.len() == digits as usize && value.iter().all(u8::is_ascii_digit)
            }
            FieldEncoder::Varint => {
                !value.is_empty()
                    && value.len() <= 19
                    && value.iter().all(u8::is_ascii_digit)
                    && (value.len() == 1 || value[0] != b'0')
            }
        }
    }

    /// Number of bytes [`FieldEncoder::encode`] will append for `value`
    /// (assuming [`FieldEncoder::accepts`] holds).
    pub fn encoded_len(&self, value: &[u8]) -> usize {
        match *self {
            FieldEncoder::Char { n } => n as usize,
            FieldEncoder::Varchar => {
                if value.len() < 128 {
                    1 + value.len()
                } else {
                    2 + value.len()
                }
            }
            FieldEncoder::Int { bytes, .. } => bytes as usize,
            FieldEncoder::Varint => {
                let v = parse_digits(value).unwrap_or(0);
                varint::encoded_len(v)
            }
        }
    }

    /// Append the encoded form of `value` to `out`.
    ///
    /// Returns an error if the value violates the encoder's constraints
    /// (callers normally check [`FieldEncoder::accepts`] first; the
    /// compressor treats such records as outliers).
    pub fn encode(&self, value: &[u8], out: &mut Vec<u8>) -> Result<()> {
        if !self.accepts(value) {
            return Err(PbcError::FieldDecode {
                field: usize::MAX,
                reason: format!("value of length {} rejected by {:?}", value.len(), self),
            });
        }
        match *self {
            FieldEncoder::Char { .. } => out.extend_from_slice(value),
            FieldEncoder::Varchar => {
                // 1-byte header for lengths < 128, otherwise 2 bytes with the
                // high bit of the first byte set (the paper's "1 or 2 bytes
                // header for the character length information").
                if value.len() < 128 {
                    out.push(value.len() as u8);
                } else {
                    out.push(0x80 | ((value.len() >> 8) as u8));
                    out.push((value.len() & 0xff) as u8);
                }
                out.extend_from_slice(value);
            }
            FieldEncoder::Int { bytes, .. } => {
                // pbc-allow(panic): accepts() filtered non-digit values before encode
                let v = parse_digits(value).expect("accepts() guarantees digits");
                out.extend_from_slice(&v.to_le_bytes()[..bytes as usize]);
            }
            FieldEncoder::Varint => {
                // pbc-allow(panic): accepts() filtered non-digit values before encode
                let v = parse_digits(value).expect("accepts() guarantees digits");
                varint::write_u64(out, v);
            }
        }
        Ok(())
    }

    /// Decode one value from `input` starting at `pos`, appending the
    /// original bytes to `out`. Returns the new position.
    pub fn decode(&self, input: &[u8], pos: usize, out: &mut Vec<u8>) -> Result<usize> {
        match *self {
            FieldEncoder::Char { n } => {
                let n = n as usize;
                let end = pos + n;
                if end > input.len() {
                    return Err(PbcError::Truncated {
                        context: "CHAR field",
                    });
                }
                out.extend_from_slice(&input[pos..end]);
                Ok(end)
            }
            FieldEncoder::Varchar => {
                let first = *input.get(pos).ok_or(PbcError::Truncated {
                    context: "VARCHAR header",
                })?;
                let (len, mut p) = if first & 0x80 == 0 {
                    (first as usize, pos + 1)
                } else {
                    let second = *input.get(pos + 1).ok_or(PbcError::Truncated {
                        context: "VARCHAR header",
                    })?;
                    ((((first & 0x7f) as usize) << 8) | second as usize, pos + 2)
                };
                if p + len > input.len() {
                    return Err(PbcError::Truncated {
                        context: "VARCHAR payload",
                    });
                }
                out.extend_from_slice(&input[p..p + len]);
                p += len;
                Ok(p)
            }
            FieldEncoder::Int { digits, bytes } => {
                let bytes = bytes as usize;
                if pos + bytes > input.len() {
                    return Err(PbcError::Truncated {
                        context: "INT field",
                    });
                }
                let mut le = [0u8; 8];
                le[..bytes].copy_from_slice(&input[pos..pos + bytes]);
                let v = u64::from_le_bytes(le);
                let mut buf = [0u8; 20];
                let value = decimal(v, &mut buf);
                let Some(padding) = (digits as usize).checked_sub(value.len()) else {
                    return Err(PbcError::FieldDecode {
                        field: usize::MAX,
                        reason: format!("INT value {v} does not fit {digits} digits"),
                    });
                };
                out.resize(out.len() + padding, b'0');
                out.extend_from_slice(value);
                Ok(pos + bytes)
            }
            FieldEncoder::Varint => {
                let (v, p) = varint::read_u64(input, pos).map_err(PbcError::from)?;
                out.extend_from_slice(decimal(v, &mut [0u8; 20]));
                Ok(p)
            }
        }
    }

    /// Serialize the encoder descriptor (used by the pattern dictionary).
    pub fn serialize(&self, out: &mut Vec<u8>) {
        match *self {
            FieldEncoder::Char { n } => {
                out.push(0);
                out.extend_from_slice(&n.to_le_bytes());
            }
            FieldEncoder::Varchar => out.push(1),
            FieldEncoder::Int { digits, bytes } => {
                out.push(2);
                out.push(digits);
                out.push(bytes);
            }
            FieldEncoder::Varint => out.push(3),
        }
    }

    /// Inverse of [`FieldEncoder::serialize`]; returns the encoder and the
    /// new position.
    pub fn deserialize(input: &[u8], pos: usize) -> Result<(Self, usize)> {
        let tag = *input.get(pos).ok_or(PbcError::Truncated {
            context: "encoder tag",
        })?;
        match tag {
            0 => {
                if pos + 3 > input.len() {
                    return Err(PbcError::Truncated {
                        context: "CHAR width",
                    });
                }
                let n = u16::from_le_bytes([input[pos + 1], input[pos + 2]]);
                Ok((FieldEncoder::Char { n }, pos + 3))
            }
            1 => Ok((FieldEncoder::Varchar, pos + 1)),
            2 => {
                if pos + 3 > input.len() {
                    return Err(PbcError::Truncated {
                        context: "INT descriptor",
                    });
                }
                Ok((
                    FieldEncoder::Int {
                        digits: input[pos + 1],
                        bytes: input[pos + 2],
                    },
                    pos + 3,
                ))
            }
            3 => Ok((FieldEncoder::Varint, pos + 1)),
            other => Err(PbcError::CorruptDictionary {
                reason: format!("unknown encoder tag {other}"),
            }),
        }
    }

    /// Short display form used in pattern debugging output, mirroring the
    /// paper's `*<INT(2,1)>` notation.
    pub fn display(&self) -> String {
        match *self {
            FieldEncoder::Char { n } => format!("*<CHAR({n})>"),
            FieldEncoder::Varchar => "*<VARCHAR>".to_string(),
            FieldEncoder::Int { digits, bytes } => format!("*<INT({digits},{bytes})>"),
            FieldEncoder::Varint => "*<VARINT>".to_string(),
        }
    }
}

/// Choose the cheapest encoder that accepts every value (the optimal
/// encoding function of Definition 2 over the finite encoder set of Table 1).
pub fn infer_encoder(values: &[&[u8]]) -> FieldEncoder {
    if values.is_empty() {
        return FieldEncoder::Varchar;
    }
    let mut candidates: Vec<FieldEncoder> = Vec::with_capacity(4);
    let first_len = values[0].len();
    let all_same_len = values.iter().all(|v| v.len() == first_len);
    let all_digits = values
        .iter()
        .all(|v| !v.is_empty() && v.iter().all(u8::is_ascii_digit));
    if all_same_len && all_digits && first_len <= 19 && first_len > 0 {
        candidates.push(FieldEncoder::int_for_digits(first_len as u8));
    }
    if all_digits {
        let no_leading_zeros = values.iter().all(|v| v.len() == 1 || v[0] != b'0');
        let fits = values.iter().all(|v| v.len() <= 19);
        if no_leading_zeros && fits {
            candidates.push(FieldEncoder::Varint);
        }
    }
    if all_same_len && first_len > 0 && first_len < (1 << 16) {
        candidates.push(FieldEncoder::Char {
            n: first_len as u16,
        });
    }
    candidates.push(FieldEncoder::Varchar);

    candidates
        .into_iter()
        .filter(|enc| values.iter().all(|v| enc.accepts(v)))
        .min_by_key(|enc| values.iter().map(|v| enc.encoded_len(v)).sum::<usize>())
        .unwrap_or(FieldEncoder::Varchar)
}

/// The decimal digits of `v` (no leading zeros), written into the tail of
/// `buf`: a `u64` has at most 20.
fn decimal(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return &buf[start..];
        }
    }
}

/// Parse an ASCII digit string into a `u64`. Returns `None` on overflow or
/// non-digit bytes.
fn parse_digits(value: &[u8]) -> Option<u64> {
    let mut acc: u64 = 0;
    for &b in value {
        if !b.is_ascii_digit() {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(enc: FieldEncoder, value: &[u8]) {
        assert!(enc.accepts(value), "{enc:?} must accept {value:?}");
        let mut buf = Vec::new();
        enc.encode(value, &mut buf).unwrap();
        assert_eq!(buf.len(), enc.encoded_len(value));
        let mut out = Vec::new();
        let pos = enc.decode(&buf, 0, &mut out).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(out, value);
    }

    #[test]
    fn char_roundtrip_and_constraints() {
        roundtrip(FieldEncoder::Char { n: 4 }, b"abcd");
        assert!(!FieldEncoder::Char { n: 4 }.accepts(b"abc"));
        assert!(!FieldEncoder::Char { n: 4 }.accepts(b"abcde"));
    }

    #[test]
    fn varchar_roundtrip_short_and_long() {
        roundtrip(FieldEncoder::Varchar, b"");
        roundtrip(FieldEncoder::Varchar, b"hello");
        roundtrip(FieldEncoder::Varchar, &[b'x'; 127]);
        roundtrip(FieldEncoder::Varchar, &[b'y'; 128]);
        roundtrip(FieldEncoder::Varchar, &vec![b'z'; 5000]);
        // Header sizes match the paper: 1 byte below 128, 2 bytes above.
        assert_eq!(FieldEncoder::Varchar.encoded_len(b"abc"), 4);
        assert_eq!(FieldEncoder::Varchar.encoded_len(&[b'a'; 200]), 202);
    }

    #[test]
    fn int_roundtrip_preserves_leading_zeros() {
        let enc = FieldEncoder::int_for_digits(6);
        roundtrip(enc, b"000042");
        roundtrip(enc, b"999999");
        roundtrip(enc, b"123050");
        assert!(!enc.accepts(b"12345"));
        assert!(!enc.accepts(b"12345a"));
    }

    #[test]
    fn int_byte_width_matches_paper_examples() {
        // The paper's Figure 2 uses INT(2,1) and INT(6,2)... 6 digits needs
        // 999999 < 2^20, i.e. 3 bytes; the paper's "int16" is a presentation
        // simplification, our widths are computed from the digit count.
        assert_eq!(FieldEncoder::int_bytes_for_digits(2), 1);
        assert_eq!(FieldEncoder::int_bytes_for_digits(4), 2);
        assert_eq!(FieldEncoder::int_bytes_for_digits(6), 3);
        assert_eq!(FieldEncoder::int_bytes_for_digits(9), 4);
        assert_eq!(FieldEncoder::int_bytes_for_digits(19), 8);
    }

    #[test]
    fn varint_roundtrip_and_constraints() {
        roundtrip(FieldEncoder::Varint, b"0");
        roundtrip(FieldEncoder::Varint, b"7");
        roundtrip(FieldEncoder::Varint, b"1639574096");
        assert!(
            !FieldEncoder::Varint.accepts(b"007"),
            "leading zeros would be lost"
        );
        assert!(!FieldEncoder::Varint.accepts(b""));
        assert!(!FieldEncoder::Varint.accepts(b"12a4"));
        assert!(
            !FieldEncoder::Varint.accepts(b"99999999999999999999"),
            "20 digits may overflow u64"
        );
    }

    #[test]
    fn inference_prefers_cheapest_valid_encoder() {
        // Two-digit numeric values with leading zeros → INT(2,1), 1 byte each.
        let values: Vec<&[u8]> = vec![b"57", b"72", b"15", b"46", b"07"];
        assert_eq!(infer_encoder(&values), FieldEncoder::int_for_digits(2));

        // Variable-length numerics without leading zeros → VARINT.
        let values: Vec<&[u8]> = vec![b"5", b"123", b"99999"];
        assert_eq!(infer_encoder(&values), FieldEncoder::Varint);

        // Same-length non-numeric values → CHAR(n).
        let values: Vec<&[u8]> = vec![b"abcd", b"efgh", b"ijkl"];
        assert_eq!(infer_encoder(&values), FieldEncoder::Char { n: 4 });

        // Mixed lengths and characters → VARCHAR.
        let values: Vec<&[u8]> = vec![b"_ac", b"", b"id"];
        assert_eq!(infer_encoder(&values), FieldEncoder::Varchar);
    }

    #[test]
    fn inference_matches_paper_figure2_fields() {
        // Field 0 of Figure 2: "57", "72", "15", "46" → INT(2,1).
        let field0: Vec<&[u8]> = vec![b"57", b"72", b"15", b"46"];
        assert_eq!(
            infer_encoder(&field0),
            FieldEncoder::Int {
                digits: 2,
                bytes: 1
            }
        );
        // Field 2: "_ac", "_ac", "", "_ac" → VARCHAR.
        let field2: Vec<&[u8]> = vec![b"_ac", b"_ac", b"", b"_ac"];
        assert_eq!(infer_encoder(&field2), FieldEncoder::Varchar);
        // Field 4: "123050", "204181", "205420", "204381" → INT(6,3).
        let field4: Vec<&[u8]> = vec![b"123050", b"204181", b"205420", b"204381"];
        assert_eq!(
            infer_encoder(&field4),
            FieldEncoder::Int {
                digits: 6,
                bytes: 3
            }
        );
    }

    #[test]
    fn inference_on_empty_input_defaults_to_varchar() {
        assert_eq!(infer_encoder(&[]), FieldEncoder::Varchar);
    }

    #[test]
    fn serialization_roundtrips_all_variants() {
        let encoders = [
            FieldEncoder::Char { n: 300 },
            FieldEncoder::Varchar,
            FieldEncoder::Int {
                digits: 6,
                bytes: 3,
            },
            FieldEncoder::Varint,
        ];
        let mut buf = Vec::new();
        for e in &encoders {
            e.serialize(&mut buf);
        }
        let mut pos = 0;
        for e in &encoders {
            let (decoded, p) = FieldEncoder::deserialize(&buf, pos).unwrap();
            assert_eq!(decoded, *e);
            pos = p;
        }
        assert_eq!(pos, buf.len());
        assert!(FieldEncoder::deserialize(&[9], 0).is_err());
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(FieldEncoder::int_for_digits(2).display(), "*<INT(2,1)>");
        assert_eq!(FieldEncoder::Varchar.display(), "*<VARCHAR>");
    }

    #[test]
    fn decode_errors_on_truncated_input() {
        let enc = FieldEncoder::Varchar;
        let mut buf = Vec::new();
        enc.encode(b"hello world", &mut buf).unwrap();
        buf.truncate(3);
        let mut out = Vec::new();
        assert!(enc.decode(&buf, 0, &mut out).is_err());

        let enc = FieldEncoder::int_for_digits(6);
        let mut buf = Vec::new();
        enc.encode(b"123456", &mut buf).unwrap();
        buf.truncate(1);
        let mut out = Vec::new();
        assert!(enc.decode(&buf, 0, &mut out).is_err());
    }
}
