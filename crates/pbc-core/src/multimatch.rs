//! Multi-pattern matching: finding, among all dictionary patterns, the best
//! one for a record.
//!
//! The paper uses Hyperscan, a multi-regex matcher, to test a record against
//! every pattern at once and then keeps the longest matching pattern
//! (Section 3.2). This module is the from-scratch substitute: patterns are
//! bucketed by a short literal-prefix anchor and screened with a cheap byte
//! signature before the exact glob matcher runs, and candidates are tried in
//! descending literal-length order so the first hit is the longest pattern.

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
    /// Most fields of any pattern: a span buffer this long serves every
    /// candidate.
    max_fields: usize,
}

#[derive(Debug, Clone)]
struct PatternEntry {
    id: u32,
    pattern: Pattern,
    /// Prefix anchor bytes (empty for floating patterns).
    anchor: Vec<u8>,
    /// 256-bit byte-occurrence signature of all literal bytes.
    signature: [u64; 4],
    literal_len: usize,
}

/// Compute the byte-occurrence signature of a byte string.
fn signature_of(bytes: impl Iterator<Item = u8>) -> [u64; 4] {
    let mut sig = [0u64; 4];
    for b in bytes {
        sig[(b >> 6) as usize] |= 1u64 << (b & 63);
    }
    sig
}

/// Whether every bit of `needle` is present in `haystack`.
fn signature_subset(needle: &[u64; 4], haystack: &[u64; 4]) -> bool {
    needle.iter().zip(haystack.iter()).all(|(n, h)| n & !h == 0)
}

impl MultiMatcher {
    /// Build a matcher for all patterns of a dictionary.
    pub fn new(dictionary: &PatternDictionary) -> Self {
        let mut anchored = Vec::new();
        let mut floating = Vec::new();
        for (id, pattern) in dictionary.iter() {
            let literal_bytes = pattern.segments().iter().flat_map(|s| match s {
                Segment::Literal(l) => l.to_vec(),
                Segment::Field(_) => Vec::new(),
            });
            let signature = signature_of(literal_bytes);
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
        let max_fields = dictionary
            .iter()
            .map(|(_, pattern)| pattern.field_count())
            .max()
            .unwrap_or(0);
        MultiMatcher {
            anchored,
            floating,
            max_fields,
        }
    }

    /// Number of patterns the matcher screens.
    pub fn pattern_count(&self) -> usize {
        self.anchored.len() + self.floating.len()
    }

    /// Find the longest pattern matching `record` (including field encoder
    /// constraints). Returns `(pattern id, match result)`.
    pub fn best_match(&self, record: &[u8]) -> Option<(u32, MatchResult)> {
        let record_sig = signature_of(record.iter().copied());
        // `(id, literal length)` of the best match so far; its spans are in
        // `best_spans`, and every candidate is matched into `spans`.
        let mut best: Option<(u32, usize)> = None;
        let mut best_spans = Vec::new();
        let mut spans = Vec::with_capacity(self.max_fields);

        // Entries are sorted by literal length descending, so the first
        // accepted anchored entry is the best anchored one; likewise for
        // floating entries. We still compare across both lists.
        for entries in [&self.anchored, &self.floating] {
            for entry in entries {
                if best.is_some_and(|(_, len)| entry.literal_len <= len) {
                    break;
                }
                if entry.literal_len > record.len()
                    || !signature_subset(&entry.signature, &record_sig)
                    || !record.starts_with(&entry.anchor)
                {
                    continue;
                }
                if match_record_into(&entry.pattern, record, &mut spans) {
                    best = Some((entry.id, entry.literal_len));
                    std::mem::swap(&mut spans, &mut best_spans);
                }
            }
        }
        best.map(|(id, _)| {
            (
                id,
                MatchResult {
                    field_spans: best_spans,
                },
            )
        })
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
