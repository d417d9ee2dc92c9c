//! Multi-pattern matching: finding, among all dictionary patterns, the best
//! one for a record.
//!
//! The paper uses Hyperscan, a multi-regex matcher, to test a record against
//! every pattern at once and then keeps the longest matching pattern
//! (Section 3.2). This module is the from-scratch substitute: patterns are
//! bucketed by a short literal-prefix anchor and screened with a cheap byte
//! signature before the exact glob matcher runs.
//!
//! The screen is a 128-bit set of the bytes a string contains, each byte
//! folded onto its low seven bits. A pattern can match a record only if
//! every bit of its literals' set is in the record's; folding keeps that a
//! necessary condition, so the screen never rejects a match. The record's
//! set is built by one store per byte into a presence array, so there is
//! no serial read-modify-write chain through the record's bytes.
//!
//! The order rule: the pattern with the longest literal content
//! ([`Pattern::literal_len`]) wins; among equally long ones an anchored
//! pattern (one that starts with a literal) beats a floating one, and then
//! the lower pattern id wins. Candidates are tried in that order, so the
//! first hit of each bucket is its best and the search stops as soon as no
//! remaining candidate can beat the hit.

use crate::dictionary::PatternDictionary;
use crate::matching::{match_record_into, MatchResult};
use crate::pattern::{Pattern, Segment};

/// Length of the literal prefix used as a hash anchor.
const ANCHOR_LEN: usize = 4;

/// A prepared matcher over a pattern dictionary.
#[derive(Debug, Clone)]
pub struct MultiMatcher {
    /// `(pattern id, pattern, byte signature)` sorted by literal length
    /// descending (so the first match found is the longest pattern).
    anchored: Vec<PatternEntry>,
    floating: Vec<PatternEntry>,
}

#[derive(Debug, Clone)]
struct PatternEntry {
    id: u32,
    pattern: Pattern,
    /// Prefix anchor bytes (empty for floating patterns).
    anchor: Vec<u8>,
    /// Byte-occurrence signature of all literal bytes.
    signature: u128,
    literal_len: usize,
}

/// The byte-occurrence signature of `bytes`: bit `b & 127` is set for
/// every byte `b` it contains.
///
/// Each byte is one store into a presence array, and no store reads what
/// an earlier one wrote, so the loop carries no dependency through memory
/// or a register; the array is then gathered into bits eight at a time.
fn signature_of(bytes: &[u8]) -> u128 {
    let mut seen = [0u8; 128];
    for &b in bytes {
        seen[usize::from(b & 127)] = 1;
    }
    seen.chunks_exact(8).enumerate().fold(0, |sig, (i, flags)| {
        let mut word = [0u8; 8];
        word.copy_from_slice(flags);
        // Each flag byte is 0 or 1; the multiply moves flag `j` to bit
        // 56 + j, and no two partial products share a bit, so nothing
        // carries into the top byte.
        let bits = u64::from_le_bytes(word).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        sig | u128::from(bits) << (8 * i)
    })
}

impl MultiMatcher {
    /// Build a matcher for all patterns of a dictionary.
    pub fn new(dictionary: &PatternDictionary) -> Self {
        let mut anchored = Vec::new();
        let mut floating = Vec::new();
        for (id, pattern) in dictionary.iter() {
            let signature = pattern.segments().iter().fold(0, |sig, s| match s {
                Segment::Literal(l) => sig | signature_of(l),
                Segment::Field(_) => sig,
            });
            let anchor = match pattern.segments().first() {
                Some(Segment::Literal(l)) => l[..l.len().min(ANCHOR_LEN)].to_vec(),
                _ => Vec::new(),
            };
            let entry = PatternEntry {
                id,
                literal_len: pattern.literal_len(),
                pattern: pattern.clone(),
                anchor: anchor.clone(),
                signature,
            };
            if anchor.is_empty() {
                floating.push(entry);
            } else {
                anchored.push(entry);
            }
        }
        anchored.sort_by_key(|e| std::cmp::Reverse(e.literal_len));
        floating.sort_by_key(|e| std::cmp::Reverse(e.literal_len));
        MultiMatcher { anchored, floating }
    }

    /// Number of patterns the matcher screens.
    pub fn pattern_count(&self) -> usize {
        self.anchored.len() + self.floating.len()
    }

    /// Find the longest pattern matching `record` (including field encoder
    /// constraints). Returns `(pattern id, match result)`.
    pub fn best_match(&self, record: &[u8]) -> Option<(u32, MatchResult)> {
        let mut best = Vec::new();
        let id = self.best_match_into(record, &mut best, &mut Vec::new())?;
        Some((id, MatchResult { field_spans: best }))
    }

    /// [`MultiMatcher::best_match`] into caller-owned span buffers: on a
    /// match the winner's id is returned and `best` holds its field spans.
    /// `scratch` is where each candidate is tried; its contents on return
    /// mean nothing.
    pub fn best_match_into(
        &self,
        record: &[u8],
        best: &mut Vec<(usize, usize)>,
        scratch: &mut Vec<(usize, usize)>,
    ) -> Option<u32> {
        let record_sig = signature_of(record);
        // `(id, literal length)` of the best match so far; its spans are in
        // `best`.
        let mut found: Option<(u32, usize)> = None;
        // Entries are sorted by literal length descending, so the first
        // accepted anchored entry is the best anchored one; likewise for
        // floating entries. We still compare across both lists.
        for entries in [&self.anchored, &self.floating] {
            for entry in entries {
                if found.is_some_and(|(_, len)| entry.literal_len <= len) {
                    break;
                }
                if entry.literal_len > record.len()
                    || entry.signature & !record_sig != 0
                    || !record.starts_with(&entry.anchor)
                {
                    continue;
                }
                if match_record_into(&entry.pattern, record, scratch) {
                    found = Some((entry.id, entry.literal_len));
                    std::mem::swap(scratch, best);
                }
            }
        }
        found.map(|(id, _)| id)
    }

    /// Look up the pattern for an id (used by tests and diagnostics).
    pub fn pattern(&self, id: u32) -> Option<&Pattern> {
        self.anchored
            .iter()
            .chain(self.floating.iter())
            .find(|e| e.id == id)
            .map(|e| &e.pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::PatternDictionary;

    fn dict() -> PatternDictionary {
        PatternDictionary::from_patterns(vec![
            Pattern::parse("*ob*"),
            Pattern::parse("*ooba*"),
            Pattern::parse("GET /api/users/*<VARINT> HTTP/1.1"),
            Pattern::parse("GET /api/* HTTP/1.1"),
            Pattern::parse("level=*<CHAR(4)> component=* msg=*"),
        ])
    }

    #[test]
    fn longest_matching_pattern_wins() {
        let matcher = MultiMatcher::new(&dict());
        // Paper example: both *ob* and *ooba* match "foobar"; the longer wins.
        let (id, m) = matcher.best_match(b"foobar").expect("foobar matches");
        let pattern = matcher.pattern(id).unwrap();
        assert_eq!(pattern.display(), "*<VARCHAR>ooba*<VARCHAR>");
        assert_eq!(m.residual_len(), 2);
    }

    #[test]
    fn anchored_patterns_prefer_more_specific_literal() {
        let matcher = MultiMatcher::new(&dict());
        let (id, _) = matcher
            .best_match(b"GET /api/users/4711 HTTP/1.1")
            .expect("request matches");
        let pattern = matcher.pattern(id).unwrap();
        assert!(pattern.display().contains("/api/users/"));
        // A different API path falls back to the generic pattern.
        let (id2, _) = matcher
            .best_match(b"GET /api/orders HTTP/1.1")
            .expect("request matches generic pattern");
        let pattern2 = matcher.pattern(id2).unwrap();
        assert_eq!(pattern2.display(), "GET /api/*<VARCHAR> HTTP/1.1");
    }

    #[test]
    fn unmatched_records_return_none() {
        let matcher = MultiMatcher::new(&dict());
        assert!(matcher.best_match(b"completely unrelated").is_none());
        assert!(matcher.best_match(b"").is_none());
    }

    #[test]
    fn encoder_constraints_reject_candidates() {
        let matcher = MultiMatcher::new(&dict());
        // "users/abc" is not a VARINT, so the specific pattern is rejected
        // and the generic /api/* one matches instead.
        let (id, _) = matcher
            .best_match(b"GET /api/users/abc HTTP/1.1")
            .expect("generic pattern still matches");
        assert_eq!(
            matcher.pattern(id).unwrap().display(),
            "GET /api/*<VARCHAR> HTTP/1.1"
        );
    }

    #[test]
    fn empty_dictionary_matches_nothing() {
        let matcher = MultiMatcher::new(&PatternDictionary::new());
        assert_eq!(matcher.pattern_count(), 0);
        assert!(matcher.best_match(b"anything").is_none());
    }

    #[test]
    fn signature_sets_the_folded_bit_of_every_byte() {
        for n in 0..300usize {
            let bytes: Vec<u8> = (0..n).map(|i| (i * 37 % 256) as u8).collect();
            let naive = bytes.iter().fold(0u128, |sig, &b| sig | 1 << (b & 127));
            assert_eq!(signature_of(&bytes), naive, "{n} bytes");
        }
        // Folding keeps the screen sound: a byte >= 128 in a literal is
        // found in a record that holds it.
        for b in 0..=255u8 {
            let record = [b'x', b, b'y'];
            assert_eq!(signature_of(&[b]) & !signature_of(&record), 0);
        }
    }

    #[test]
    fn ties_go_to_anchored_patterns_then_to_lower_ids() {
        let matcher = MultiMatcher::new(&PatternDictionary::from_patterns(vec![
            Pattern::parse("*abc"),
            Pattern::parse("*ab*c"),
            Pattern::parse("abc*"),
            Pattern::parse("ab*c"),
        ]));
        // All four match "abc" with three literal bytes each.
        assert_eq!(matcher.best_match(b"abc").unwrap().0, 3);
        // Only the two floating ones match "xabc".
        assert_eq!(matcher.best_match(b"xabc").unwrap().0, 1);
    }

    #[test]
    fn signature_prefilter_is_sound() {
        // A record missing a byte that appears in a pattern's literals can
        // never match that pattern; make sure the filter agrees with the
        // matcher by exercising many records.
        let matcher = MultiMatcher::new(&dict());
        let records: Vec<Vec<u8>> = (0..100)
            .map(|i| format!("GET /api/users/{i} HTTP/1.1").into_bytes())
            .collect();
        for r in &records {
            let found = matcher.best_match(r);
            assert!(
                found.is_some(),
                "record {:?} must match",
                String::from_utf8_lossy(r)
            );
        }
    }
}
