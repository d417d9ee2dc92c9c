//! Cluster representation used during pattern extraction.
//!
//! While clustering, each cluster is summarised by its evolving *wildcard
//! sequence* (the common subsequence of its members with gaps where they
//! differ — the `cs` of the paper's `Pat(c) = {cs, L}`), the number of
//! member records, and two summaries derived from the sequence once, when
//! the cluster is built: its encoding for the merge kernel and a 1-gram
//! signature (with its gap count) used for pruning.

use crate::dp;
use crate::onegram::OneGram;

/// One element of a cluster's wildcard sequence: a shared literal byte or a
/// gap (which becomes a wildcard field in the final pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatElem {
    /// A byte every member contains at this aligned position.
    Lit(u8),
    /// A varying region (residual subsequence slot).
    Gap,
}

/// A cluster of sample records plus its summary used by the greedy merging.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The wildcard sequence (common subsequence with gaps).
    pub cs: Vec<PatElem>,
    /// Indices of the member records in the sample set.
    pub members: Vec<usize>,
    /// Total record weight (≥ `members.len()` when duplicates were folded).
    pub weight: usize,
    /// 1-gram signature of the wildcard sequence's literal bytes.
    pub onegram: OneGram,
    /// `cs` as the merge kernel reads it ([`dp::encode`]).
    pub(crate) codes: Vec<u16>,
}

impl Cluster {
    /// A cluster over `cs`, with the summaries derived from it.
    pub fn new(cs: Vec<PatElem>, members: Vec<usize>, weight: usize) -> Self {
        Cluster {
            onegram: OneGram::from_elems(&cs),
            codes: dp::encode(&cs),
            cs,
            members,
            weight,
        }
    }

    /// Create a singleton cluster for one sample record.
    ///
    /// `max_cs_len` caps the number of leading bytes used as the wildcard
    /// sequence (long records are clustered on their prefix; a trailing gap
    /// keeps the eventual pattern matching the full record).
    pub fn singleton(index: usize, record: &[u8], weight: usize, max_cs_len: usize) -> Self {
        let take = record.len().min(max_cs_len);
        let mut cs: Vec<PatElem> = record[..take].iter().map(|&b| PatElem::Lit(b)).collect();
        if take < record.len() {
            cs.push(PatElem::Gap);
        }
        Cluster::new(cs, vec![index], weight)
    }

    /// Number of literal (non-gap) elements in the wildcard sequence.
    pub fn literal_len(&self) -> usize {
        self.cs
            .iter()
            .filter(|e| matches!(e, PatElem::Lit(_)))
            .count()
    }

    /// Number of gap regions in the wildcard sequence.
    pub fn gap_count(&self) -> usize {
        let mut count = 0;
        let mut in_gap = false;
        for e in &self.cs {
            match e {
                PatElem::Gap => {
                    if !in_gap {
                        count += 1;
                        in_gap = true;
                    }
                }
                PatElem::Lit(_) => in_gap = false,
            }
        }
        count
    }

    /// Merge bookkeeping: combine members and weights around a freshly
    /// merged wildcard sequence.
    pub fn merged_from(a: &Cluster, b: &Cluster, cs: Vec<PatElem>) -> Self {
        let mut members = Vec::with_capacity(a.members.len() + b.members.len());
        members.extend_from_slice(&a.members);
        members.extend_from_slice(&b.members);
        Cluster::new(cs, members, a.weight + b.weight)
    }

    /// Render the wildcard sequence in the paper's notation (`ab3*2`),
    /// coalescing adjacent gaps. Used in tests and debugging output.
    pub fn display(&self) -> String {
        let mut s = String::new();
        let mut in_gap = false;
        for e in &self.cs {
            match e {
                PatElem::Lit(b) => {
                    s.push(*b as char);
                    in_gap = false;
                }
                PatElem::Gap => {
                    if !in_gap {
                        s.push('*');
                        in_gap = true;
                    }
                }
            }
        }
        s
    }

    /// Parse the paper's notation into a wildcard sequence (for tests).
    pub fn cs_from_str(text: &str) -> Vec<PatElem> {
        text.bytes()
            .map(|b| {
                if b == b'*' {
                    PatElem::Gap
                } else {
                    PatElem::Lit(b)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_keeps_all_bytes_as_literals() {
        let c = Cluster::singleton(0, b"ab3cz2", 1, 1024);
        assert_eq!(c.literal_len(), 6);
        assert_eq!(c.gap_count(), 0);
        assert_eq!(c.display(), "ab3cz2");
        assert_eq!(c.weight, 1);
    }

    #[test]
    fn singleton_truncates_long_records_with_trailing_gap() {
        let record = vec![b'x'; 100];
        let c = Cluster::singleton(3, &record, 2, 16);
        assert_eq!(c.literal_len(), 16);
        assert_eq!(c.gap_count(), 1);
        assert!(c.display().ends_with('*'));
        assert_eq!(c.weight, 2);
    }

    #[test]
    fn display_coalesces_adjacent_gaps() {
        let c = Cluster::new(
            vec![
                PatElem::Lit(b'a'),
                PatElem::Gap,
                PatElem::Gap,
                PatElem::Lit(b'b'),
            ],
            vec![0],
            1,
        );
        assert_eq!(c.display(), "a*b");
        assert_eq!(c.gap_count(), 1);
    }

    #[test]
    fn cs_from_str_roundtrips_through_display() {
        let c = Cluster::new(Cluster::cs_from_str("ab3*2"), vec![0], 1);
        assert_eq!(c.display(), "ab3*2");
        assert_eq!(c.literal_len(), 4);
    }

    #[test]
    fn merged_from_combines_members_and_weights() {
        let a = Cluster::singleton(0, b"abc", 2, 64);
        let b = Cluster::singleton(1, b"abd", 3, 64);
        let merged = Cluster::merged_from(&a, &b, Cluster::cs_from_str("ab*"));
        assert_eq!(merged.members, vec![0, 1]);
        assert_eq!(merged.weight, 5);
        assert_eq!(merged.display(), "ab*");
    }
}
