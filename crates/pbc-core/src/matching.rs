//! Matching a record against a pattern and extracting residual subsequences.
//!
//! A pattern `lit₀ * lit₁ * … * litₖ` matches a record when the literal
//! segments occur in order and contiguously, with the wildcard fields
//! absorbing the gaps — exactly the semantics the paper obtains by turning
//! `*ob*` into the regular expression `[.*]ob[.*]` and running Hyperscan.
//! The matcher here additionally returns the residual field values (the
//! gaps), which is what the compressor encodes.
//!
//! The algorithm is the classic iterative glob matcher with backtracking to
//! the most recent wildcard, which is linear in practice and `O(n·m)` in the
//! worst case.

use crate::pattern::{Pattern, Segment};

/// The result of matching a record against a pattern: the byte ranges of
/// each field's residual value, in field order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchResult {
    /// `(start, end)` byte ranges into the record, one per pattern field.
    pub field_spans: Vec<(usize, usize)>,
}

impl MatchResult {
    /// Extract the residual values as slices of `record`.
    pub fn field_values<'a>(&self, record: &'a [u8]) -> Vec<&'a [u8]> {
        self.field_spans
            .iter()
            .map(|&(s, e)| &record[s..e])
            .collect()
    }

    /// Total number of residual bytes (the part of the record not covered by
    /// the pattern's literals).
    pub fn residual_len(&self) -> usize {
        self.field_spans.iter().map(|&(s, e)| e - s).sum()
    }
}

/// Match `record` against `pattern` structurally (ignoring field encoder
/// constraints). Returns the field spans if the record matches.
pub fn match_structure(pattern: &Pattern, record: &[u8]) -> Option<MatchResult> {
    let mut spans = Vec::new();
    match_structure_into(pattern, record, &mut spans).then_some(MatchResult { field_spans: spans })
}

/// [`match_structure`] into a caller-owned span buffer: on a match `spans`
/// holds one `(start, end)` per field and the result is `true`.
fn match_structure_into(pattern: &Pattern, record: &[u8], spans: &mut Vec<(usize, usize)>) -> bool {
    let segs = pattern.segments();
    spans.clear();
    spans.resize(pattern.field_count(), (0, 0));

    let mut si = 0usize; // segment index
    let mut field = 0usize; // field index of segment `si`, if it is a field
    let mut pos = 0usize; // record position
    let mut last_star: Option<(usize, usize)> = None; // (segment, field) of most recent field
    let mut star_end = 0usize; // current end of that field's span

    loop {
        if si < segs.len() {
            match &segs[si] {
                Segment::Literal(lit) => {
                    if record[pos..].starts_with(lit) {
                        pos += lit.len();
                        si += 1;
                        continue;
                    }
                }
                Segment::Field(_) => {
                    spans[field] = (pos, pos);
                    last_star = Some((si, field));
                    star_end = pos;
                    si += 1;
                    field += 1;
                    continue;
                }
            }
        } else if pos == record.len() {
            return true;
        }
        // Mismatch (or trailing record bytes): grow the most recent field by
        // one byte and retry the segments after it.
        match last_star {
            Some((star_si, star_field)) => {
                star_end += 1;
                if star_end > record.len() {
                    return false;
                }
                spans[star_field].1 = star_end;
                pos = star_end;
                si = star_si + 1;
                field = star_field + 1;
            }
            None => return false,
        }
    }
}

/// Match `record` against `pattern` and additionally require every residual
/// value to satisfy its field encoder ([`crate::encoders::FieldEncoder::accepts`]).
///
/// This is the check the online compressor performs; a record that matches
/// structurally but violates an encoder constraint is treated as not
/// matching this pattern (and ultimately as an outlier if no pattern fits).
pub fn match_record(pattern: &Pattern, record: &[u8]) -> Option<MatchResult> {
    let mut spans = Vec::new();
    match_record_into(pattern, record, &mut spans).then_some(MatchResult { field_spans: spans })
}

/// [`match_record`] into a caller-owned span buffer, so one buffer serves
/// every candidate pattern of a record: on a match `spans` holds one
/// `(start, end)` per field and the result is `true`.
pub fn match_record_into(
    pattern: &Pattern,
    record: &[u8],
    spans: &mut Vec<(usize, usize)>,
) -> bool {
    match_structure_into(pattern, record, spans)
        && pattern
            .fields()
            .zip(spans.iter())
            .all(|(enc, &(s, e))| enc.accepts(&record[s..e]))
}

/// Reassemble a record from a pattern and decoded field values; the inverse
/// of residual extraction, used by decompression.
pub fn reassemble(pattern: &Pattern, field_values: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut k = 0;
    for seg in pattern.segments() {
        match seg {
            Segment::Literal(l) => out.extend_from_slice(l),
            Segment::Field(_) => {
                out.extend_from_slice(&field_values[k]);
                k += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;

    #[test]
    fn paper_example_foobar_matches_both_patterns() {
        // Section 3.2: record "foobar", patterns "*ob*" and "*ooba*".
        let record = b"foobar";
        let p1 = Pattern::parse("*ob*");
        let p2 = Pattern::parse("*ooba*");
        let m1 = match_structure(&p1, record).expect("*ob* matches foobar");
        let m2 = match_structure(&p2, record).expect("*ooba* matches foobar");
        // Residuals for the longer pattern are ["f", "r"], as in the paper.
        assert_eq!(
            m2.field_values(record),
            vec![b"f".as_slice(), b"r".as_slice()]
        );
        assert_eq!(m2.residual_len(), 2);
        assert!(m1.residual_len() > m2.residual_len());
    }

    #[test]
    fn figure2_pattern_extracts_expected_residuals() {
        let p = Pattern::parse(
            "V5company_charging-100-*<INT(2,1)>accenter*<INT(2,1)>ac*<VARCHAR>counting_log_*<VARCHAR>202*<INT(6,2)>",
        );
        let record = b"V5company_charging-100-57accenter20ac_accounting_log_202123050";
        let m = match_record(&p, record).expect("record from Figure 2 matches its pattern");
        let values = m.field_values(record);
        assert_eq!(
            values,
            vec![
                b"57".as_slice(),
                b"20".as_slice(),
                b"_ac".as_slice(),
                b"".as_slice(),
                b"123050".as_slice()
            ]
        );
    }

    #[test]
    fn literal_only_pattern_requires_exact_equality() {
        let p = Pattern::parse("exact-match");
        assert!(match_structure(&p, b"exact-match").is_some());
        assert!(match_structure(&p, b"exact-match!").is_none());
        assert!(match_structure(&p, b"exact-matc").is_none());
    }

    #[test]
    fn leading_and_trailing_fields_absorb_prefix_and_suffix() {
        let p = Pattern::parse("*middle*");
        let record = b"AAAmiddleBBB";
        let m = match_structure(&p, record).unwrap();
        assert_eq!(
            m.field_values(record),
            vec![b"AAA".as_slice(), b"BBB".as_slice()]
        );
        // Empty prefix/suffix also allowed.
        let m = match_structure(&p, b"middle").unwrap();
        assert_eq!(
            m.field_values(b"middle"),
            vec![b"".as_slice(), b"".as_slice()]
        );
    }

    #[test]
    fn backtracking_finds_later_occurrences() {
        // Greedy-first match of "b" would leave the trailing "b" unmatched;
        // the matcher must backtrack and assign the middle field correctly.
        let p = Pattern::parse("a*b");
        let record = b"acbdb";
        let m = match_structure(&p, record).unwrap();
        assert_eq!(m.field_values(record), vec![b"cbd".as_slice()]);
    }

    #[test]
    fn non_matching_records_return_none() {
        let p = Pattern::parse("user=*;id=*");
        assert!(match_structure(&p, b"user=alice;id=42").is_some());
        assert!(match_structure(&p, b"user=alice").is_none());
        assert!(match_structure(&p, b"id=42;user=alice").is_none());
    }

    #[test]
    fn encoder_constraints_are_enforced_by_match_record() {
        let p = Pattern::parse("order-*<INT(4,2)>-done");
        assert!(match_record(&p, b"order-0042-done").is_some());
        // 3 digits: structure matches but the INT(4,2) constraint fails.
        assert!(match_structure(&p, b"order-042-done").is_some());
        assert!(match_record(&p, b"order-042-done").is_none());
        // Non-digit content fails too.
        assert!(match_record(&p, b"order-abcd-done").is_none());
    }

    #[test]
    fn reassemble_is_inverse_of_extraction() {
        let p = Pattern::parse("ts=*<VARINT> level=*<CHAR(4)> msg=*");
        let record = b"ts=1639574096 level=INFO msg=connection established";
        let m = match_record(&p, record).unwrap();
        let values: Vec<Vec<u8>> = m.field_values(record).iter().map(|v| v.to_vec()).collect();
        assert_eq!(reassemble(&p, &values), record);
    }

    #[test]
    fn empty_record_matches_only_all_field_or_empty_patterns() {
        assert!(match_structure(&Pattern::parse("*"), b"").is_some());
        assert!(match_structure(&Pattern::parse("a*"), b"").is_none());
        assert!(match_structure(&Pattern::parse(""), b"").is_some());
    }

    #[test]
    fn adversarial_backtracking_input_terminates() {
        // Worst-case O(n*m) input: many stars and repeated characters.
        let p = Pattern::parse("a*a*a*a*a*a*ab");
        let record = vec![b'a'; 300];
        assert!(match_structure(&p, &record).is_none());
        let mut ok = vec![b'a'; 300];
        ok.push(b'b');
        assert!(match_structure(&p, &ok).is_some());
    }
}
