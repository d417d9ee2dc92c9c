//! Patterns: common subsequences with wildcard fields.
//!
//! A pattern (Section 3.2 / Example 1 of the paper) is a common subsequence
//! of a cluster's records in which the varying parts are replaced by
//! wildcards, each wildcard carrying a [`FieldEncoder`]:
//!
//! ```text
//! V5company_charging-100-*<INT(2,1)>accenter*<INT(2,1)>ac*<VARCHAR>counting_log_*<VARCHAR>202*<INT(6,2)>
//! ```
//!
//! Internally a pattern is a list of [`Segment`]s alternating between
//! literal byte runs and fields; adjacent fields are always coalesced so
//! matching is unambiguous.

use crate::encoders::FieldEncoder;
use crate::error::{PbcError, Result};

/// One element of a pattern: a literal byte run or a wildcard field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Bytes that every record of the cluster contains at this position.
    Literal(Vec<u8>),
    /// A varying field, encoded with the given encoder.
    Field(FieldEncoder),
}

/// A compiled pattern: alternating literal and field segments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    segments: Vec<Segment>,
}

impl Pattern {
    /// Build a pattern from segments, coalescing adjacent literals and
    /// adjacent fields (two adjacent VARCHAR wildcards are ambiguous, so the
    /// second is merged into the first).
    pub fn new(segments: Vec<Segment>) -> Self {
        let mut out: Vec<Segment> = Vec::with_capacity(segments.len());
        for seg in segments {
            match (out.last_mut(), seg) {
                (Some(Segment::Literal(prev)), Segment::Literal(cur)) => {
                    prev.extend_from_slice(&cur);
                }
                (Some(Segment::Field(_)), Segment::Field(_)) => {
                    // Coalesce into a single VARCHAR field: the combined
                    // content varies in both halves, so only VARCHAR is safe.
                    // pbc-allow(panic): the match arm just destructured Some
                    let last = out.last_mut().expect("just matched Some");
                    *last = Segment::Field(FieldEncoder::Varchar);
                }
                (_, seg @ (Segment::Literal(_) | Segment::Field(_))) => {
                    // Skip empty literals entirely.
                    if let Segment::Literal(ref l) = seg {
                        if l.is_empty() {
                            continue;
                        }
                    }
                    out.push(seg);
                }
            }
        }
        Pattern { segments: out }
    }

    /// Parse the paper's textual notation, e.g. `"ab3*2"` or
    /// `"V5-*<VARCHAR>-202*"`. A bare `*` becomes a VARCHAR field; the
    /// explicit forms `*<VARCHAR>`, `*<VARINT>`, `*<CHAR(n)>`, `*<INT(n,m)>`
    /// are also recognised. Used by tests and examples.
    pub fn parse(text: &str) -> Self {
        let bytes = text.as_bytes();
        let mut segments = Vec::new();
        let mut literal = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'*' {
                if !literal.is_empty() {
                    segments.push(Segment::Literal(std::mem::take(&mut literal)));
                }
                // Check for an explicit encoder spec.
                if bytes.get(i + 1) == Some(&b'<') {
                    if let Some(end) = text[i + 2..].find('>') {
                        let spec = &text[i + 2..i + 2 + end];
                        segments.push(Segment::Field(parse_encoder_spec(spec)));
                        i += 2 + end + 1;
                        continue;
                    }
                }
                segments.push(Segment::Field(FieldEncoder::Varchar));
                i += 1;
            } else {
                literal.push(bytes[i]);
                i += 1;
            }
        }
        if !literal.is_empty() {
            segments.push(Segment::Literal(literal));
        }
        Pattern::new(segments)
    }

    /// The segments of this pattern.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of wildcard fields.
    pub fn field_count(&self) -> usize {
        self.fields().count()
    }

    /// The field encoders in order.
    pub fn field_encoders(&self) -> Vec<FieldEncoder> {
        self.fields().copied().collect()
    }

    /// The field encoders in order, borrowed.
    pub(crate) fn fields(&self) -> impl Iterator<Item = &FieldEncoder> {
        self.segments.iter().filter_map(|s| match s {
            Segment::Field(e) => Some(e),
            Segment::Literal(_) => None,
        })
    }

    /// Replace the field encoders (in order) with the supplied ones; used
    /// after encoder inference during pattern extraction.
    pub fn with_field_encoders(&self, encoders: &[FieldEncoder]) -> Self {
        let mut it = encoders.iter();
        let segments = self
            .segments
            .iter()
            .map(|s| match s {
                // pbc-allow(panic): the encoder iterator is built with one entry per field
                Segment::Field(_) => Segment::Field(*it.next().expect("one encoder per field")),
                Segment::Literal(l) => Segment::Literal(l.clone()),
            })
            .collect();
        Pattern { segments }
    }

    /// Total number of literal bytes in the pattern (the length of the
    /// common subsequence the pattern captures).
    pub fn literal_len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Literal(l) => l.len(),
                Segment::Field(_) => 0,
            })
            .sum()
    }

    /// In-memory size of the pattern in bytes: literal content plus a small
    /// per-field descriptor. This is what the paper's "pattern size" budget
    /// (Figure 9(b)) counts against the cache budget.
    pub fn size_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Literal(l) => l.len() + 1,
                Segment::Field(_) => 3,
            })
            .sum()
    }

    /// Whether the pattern contains any literal content at all (a pattern
    /// that is a single wildcard matches everything and compresses nothing).
    pub fn has_literals(&self) -> bool {
        self.literal_len() > 0
    }

    /// Human-readable form mirroring the paper's notation.
    pub fn display(&self) -> String {
        let mut s = String::new();
        for seg in &self.segments {
            match seg {
                Segment::Literal(l) => s.push_str(&String::from_utf8_lossy(l)),
                Segment::Field(e) => s.push_str(&e.display()),
            }
        }
        s
    }

    /// Serialize the pattern for the on-disk / in-store dictionary.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        pbc_codecs::varint::write_usize(out, self.segments.len());
        for seg in &self.segments {
            match seg {
                Segment::Literal(l) => {
                    out.push(0);
                    pbc_codecs::varint::write_usize(out, l.len());
                    out.extend_from_slice(l);
                }
                Segment::Field(e) => {
                    out.push(1);
                    e.serialize(out);
                }
            }
        }
    }

    /// Inverse of [`Pattern::serialize`]; returns the pattern and new
    /// position.
    pub fn deserialize(input: &[u8], pos: usize) -> Result<(Self, usize)> {
        let (count, mut pos) = pbc_codecs::varint::read_usize(input, pos)?;
        if count > input.len() + 1 {
            return Err(PbcError::CorruptDictionary {
                reason: format!("implausible segment count {count}"),
            });
        }
        let mut segments = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = *input.get(pos).ok_or(PbcError::Truncated {
                context: "pattern segment tag",
            })?;
            pos += 1;
            match tag {
                0 => {
                    let (len, p) = pbc_codecs::varint::read_usize(input, pos)?;
                    pos = p;
                    if pos + len > input.len() {
                        return Err(PbcError::Truncated {
                            context: "pattern literal",
                        });
                    }
                    segments.push(Segment::Literal(input[pos..pos + len].to_vec()));
                    pos += len;
                }
                1 => {
                    let (enc, p) = FieldEncoder::deserialize(input, pos)?;
                    pos = p;
                    segments.push(Segment::Field(enc));
                }
                other => {
                    return Err(PbcError::CorruptDictionary {
                        reason: format!("unknown segment tag {other}"),
                    })
                }
            }
        }
        // Note: deliberately *not* re-coalescing here; serialization always
        // comes from a normalized pattern.
        Ok((Pattern { segments }, pos))
    }
}

/// Parse one encoder spec from the textual pattern notation.
fn parse_encoder_spec(spec: &str) -> FieldEncoder {
    if spec.eq_ignore_ascii_case("VARCHAR") {
        FieldEncoder::Varchar
    } else if spec.eq_ignore_ascii_case("VARINT") {
        FieldEncoder::Varint
    } else if let Some(args) = spec
        .strip_prefix("INT(")
        .or_else(|| spec.strip_prefix("int("))
        .and_then(|s| s.strip_suffix(')'))
    {
        let mut parts = args.split(',');
        let digits: u8 = parts
            .next()
            .and_then(|p| p.trim().parse().ok())
            .unwrap_or(1);
        let bytes: u8 = parts
            .next()
            .and_then(|p| p.trim().parse().ok())
            .unwrap_or_else(|| FieldEncoder::int_bytes_for_digits(digits));
        FieldEncoder::Int { digits, bytes }
    } else if let Some(arg) = spec
        .strip_prefix("CHAR(")
        .or_else(|| spec.strip_prefix("char("))
        .and_then(|s| s.strip_suffix(')'))
    {
        FieldEncoder::Char {
            n: arg.trim().parse().unwrap_or(1),
        }
    } else {
        FieldEncoder::Varchar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip_paper_notation() {
        let p = Pattern::parse("V5company_charging-100-*<INT(2,1)>accenter*<INT(2,1)>ac*<VARCHAR>counting_log_*<VARCHAR>202*<INT(6,2)>");
        assert_eq!(p.field_count(), 5);
        assert!(p
            .display()
            .starts_with("V5company_charging-100-*<INT(2,1)>"));
        let p2 = Pattern::parse(&p.display());
        assert_eq!(p, p2);
    }

    #[test]
    fn bare_star_becomes_varchar_field() {
        let p = Pattern::parse("ab3*2");
        assert_eq!(p.field_count(), 1);
        assert_eq!(p.field_encoders(), vec![FieldEncoder::Varchar]);
        assert_eq!(p.literal_len(), 4);
    }

    #[test]
    fn adjacent_fields_are_coalesced() {
        let p = Pattern::new(vec![
            Segment::Literal(b"a".to_vec()),
            Segment::Field(FieldEncoder::Varint),
            Segment::Field(FieldEncoder::Varchar),
            Segment::Literal(b"b".to_vec()),
        ]);
        assert_eq!(p.field_count(), 1);
        assert_eq!(p.field_encoders(), vec![FieldEncoder::Varchar]);
    }

    #[test]
    fn adjacent_literals_are_merged_and_empty_literals_dropped() {
        let p = Pattern::new(vec![
            Segment::Literal(b"ab".to_vec()),
            Segment::Literal(b"".to_vec()),
            Segment::Literal(b"cd".to_vec()),
            Segment::Field(FieldEncoder::Varchar),
            Segment::Literal(b"".to_vec()),
        ]);
        assert_eq!(p.segments().len(), 2);
        assert_eq!(p.literal_len(), 4);
    }

    #[test]
    fn with_field_encoders_replaces_in_order() {
        let p = Pattern::parse("a*b*c");
        let q = p.with_field_encoders(&[FieldEncoder::int_for_digits(2), FieldEncoder::Varint]);
        assert_eq!(
            q.field_encoders(),
            vec![FieldEncoder::int_for_digits(2), FieldEncoder::Varint]
        );
        // Literals untouched.
        assert_eq!(q.literal_len(), 3);
    }

    #[test]
    fn serialization_roundtrips() {
        let p = Pattern::parse(
            "GET /api/v1/users/*<VARINT>/profile?lang=*<CHAR(2)> HTTP/1.*<INT(1,1)>",
        );
        let mut buf = Vec::new();
        p.serialize(&mut buf);
        let (q, pos) = Pattern::deserialize(&buf, 0).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(p, q);
    }

    #[test]
    fn deserialize_rejects_corrupt_input() {
        assert!(Pattern::deserialize(&[], 0).is_err());
        // Segment count says 3 but nothing follows.
        assert!(Pattern::deserialize(&[3], 0).is_err());
        // Unknown segment tag.
        assert!(Pattern::deserialize(&[1, 7], 0).is_err());
    }

    #[test]
    fn size_bytes_counts_literals_and_fields() {
        let p = Pattern::parse("abc*def*");
        // 2 literals (3+1 + 3+1) + 2 fields (3 each) = 14.
        assert_eq!(p.size_bytes(), 14);
        assert!(p.has_literals());
        assert!(!Pattern::parse("*").has_literals());
    }
}
