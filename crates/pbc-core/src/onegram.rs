//! 1-gram distance pruning (Definition 5, Section 5.1).
//!
//! The 1-gram distance between two strings is computed from the multisets of
//! their symbols:
//!
//! ```text
//! Dist₁(s₁, s₂) = |MS₁ ∪ MS₂| − 2·|MS₁ ∩ MS₂|
//! ```
//!
//! Two clusters with very different symbol content cannot merge cheaply, so
//! the clustering loop uses a weighted form of this distance
//! ([`OneGram::merge_lower_bound`]) as a lower bound that orders candidate
//! pairs before the `O(n·m)` dynamic program of Algorithm 1 is run on them.

use crate::cluster::PatElem;

/// Byte-frequency signature (symbol multiset) of a wildcard sequence's
/// literal content, plus how many gaps the sequence carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneGram {
    counts: [u32; 256],
    total: u32,
    gaps: u32,
}

impl Default for OneGram {
    fn default() -> Self {
        OneGram {
            counts: [0u32; 256],
            total: 0,
            gaps: 0,
        }
    }
}

impl OneGram {
    /// Signature of a plain byte string.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut counts = [0u32; 256];
        for &b in bytes {
            counts[b as usize] += 1;
        }
        OneGram {
            counts,
            total: bytes.len() as u32,
            gaps: 0,
        }
    }

    /// Signature of a wildcard sequence: gaps stay out of the multiset and
    /// are counted on the side, for [`OneGram::merge_lower_bound`].
    pub fn from_elems(elems: &[PatElem]) -> Self {
        let mut sig = OneGram::default();
        for e in elems {
            match e {
                PatElem::Lit(b) => {
                    sig.counts[*b as usize] += 1;
                    sig.total += 1;
                }
                PatElem::Gap => sig.gaps += 1,
            }
        }
        sig
    }

    /// Number of symbols in the multiset.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Multiset 1-gram distance of Definition 5:
    /// `|MS₁ ∪ MS₂| − 2·|MS₁ ∩ MS₂|`, where union takes per-symbol maxima
    /// and intersection per-symbol minima. Negative values indicate heavy
    /// overlap (merging is likely cheap); `n₁ + n₂` indicates disjoint
    /// content (merging demotes everything to residuals).
    pub fn distance(&self, other: &Self) -> i64 {
        let mut union = 0i64;
        let mut inter = 0i64;
        for i in 0..256 {
            let a = i64::from(self.counts[i]);
            let b = i64::from(other.counts[i]);
            union += a.max(b);
            inter += a.min(b);
        }
        union - 2 * inter
    }

    /// A lower bound on the encoding-length increment
    /// ([`crate::dp::min_encoding_length_increment`]) of merging two clusters
    /// with these signatures and the given member counts.
    ///
    /// Every alignment's cost is a sum of three kinds of terms, and each is
    /// bounded from the signatures alone:
    ///
    /// * a literal is kept only if it is matched to an equal literal of the
    ///   other sequence, so at least `Σ max(0, aᵢ − bᵢ)` of this side's
    ///   literals are demoted, at `size_self` each (likewise for `other`);
    /// * a gap can never be kept, and absorbing one refunds its own
    ///   cluster's size: exactly `gaps × size` per side, which is what the
    ///   bound has to give back to stay below the exact value;
    /// * each residual region opened costs `size_self + size_other`, and at
    ///   least one opens unless nothing is demoted at all.
    ///
    /// Clustering relies on `bound ≤ exact` to pop candidate pairs in the
    /// order the exhaustive computation would (see the `clustering` module
    /// docs); the proptest below checks it against the DP.
    pub fn merge_lower_bound(&self, other: &Self, size_self: usize, size_other: usize) -> i64 {
        let mut only_self = 0i64;
        let mut only_other = 0i64;
        for i in 0..256 {
            let a = i64::from(self.counts[i]);
            let b = i64::from(other.counts[i]);
            only_self += (a - b).max(0);
            only_other += (b - a).max(0);
        }
        let (size_self, size_other) = (size_self as i64, size_other as i64);
        let (gaps_self, gaps_other) = (i64::from(self.gaps), i64::from(other.gaps));
        let demoted = only_self + only_other + gaps_self + gaps_other;
        let opened = if demoted > 0 {
            size_self + size_other
        } else {
            0
        };
        opened + (only_self - gaps_self) * size_self + (only_other - gaps_other) * size_other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::dp::min_encoding_length_increment;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn identical_strings_have_negative_distance() {
        let a = OneGram::from_bytes(b"aab");
        let b = OneGram::from_bytes(b"aab");
        // |union| = 3, |inter| = 3 → 3 - 6 = -3.
        assert_eq!(a.distance(&b), -3);
    }

    #[test]
    fn disjoint_strings_have_distance_equal_to_total_length() {
        let a = OneGram::from_bytes(b"aaa");
        let b = OneGram::from_bytes(b"bbbb");
        assert_eq!(a.distance(&b), 7);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = OneGram::from_bytes(b"hello world");
        let b = OneGram::from_bytes(b"help the world");
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn partially_overlapping_strings_fall_in_between() {
        let a = OneGram::from_bytes(b"abcd");
        let b = OneGram::from_bytes(b"abxy");
        // union = {a,b,c,d,x,y} = 6, inter = {a,b} = 2 → 6 - 4 = 2.
        assert_eq!(a.distance(&b), 2);
        let identical = OneGram::from_bytes(b"abcd").distance(&OneGram::from_bytes(b"abcd"));
        let disjoint = OneGram::from_bytes(b"abcd").distance(&OneGram::from_bytes(b"wxyz"));
        assert!(identical < a.distance(&b));
        assert!(a.distance(&b) < disjoint);
    }

    #[test]
    fn gaps_are_ignored_in_element_signatures() {
        let elems = crate::cluster::Cluster::cs_from_str("ab*cd*");
        let sig = OneGram::from_elems(&elems);
        assert_eq!(sig.total(), 4);
        assert_eq!(sig.distance(&OneGram::from_bytes(b"abcd")), -4);
    }

    #[test]
    fn lower_bound_orders_similar_before_dissimilar() {
        let base = OneGram::from_bytes(b"user=alice action=login status=ok");
        let similar = OneGram::from_bytes(b"user=bob action=login status=ok");
        let dissimilar = OneGram::from_bytes(b"7f3a9c0e-22bb-4f6d-9a1e-55c2");
        let lb_similar = base.merge_lower_bound(&similar, 5, 5);
        let lb_dissimilar = base.merge_lower_bound(&dissimilar, 5, 5);
        assert!(lb_similar < lb_dissimilar);
    }

    fn bound_and_exact(x: &[PatElem], y: &[PatElem], sx: usize, sy: usize) -> (i64, i64) {
        (
            OneGram::from_elems(x).merge_lower_bound(&OneGram::from_elems(y), sx, sy),
            min_encoding_length_increment(x, y, sx, sy),
        )
    }

    #[test]
    fn lower_bound_holds_where_gap_refunds_bite() {
        // "q*" + "z" at sizes 10 and 1: the absorbed gap refunds 10, which a
        // bound that counts only demoted literals overshoots.
        for (x, y, sx, sy) in [
            ("q*", "z", 10, 1),
            ("*", "*", 3, 4),
            ("a*b*c", "abc", 6, 1),
            ("*a*", "", 5, 2),
            ("abc", "abc", 2, 2),
            ("", "", 1, 1),
        ] {
            let (bound, exact) =
                bound_and_exact(&Cluster::cs_from_str(x), &Cluster::cs_from_str(y), sx, sy);
            assert!(bound <= exact, "{x:?} {y:?}: bound {bound} > exact {exact}");
        }
        let q = Cluster::cs_from_str("q*");
        assert_eq!(
            bound_and_exact(&q, &Cluster::cs_from_str("z"), 10, 1),
            (12, 12)
        );
    }

    /// Elements over a three-letter alphabet with gaps mixed in (adjacent
    /// ones too: the bound counts gap elements, as the DP refunds them).
    fn elems() -> impl Strategy<Value = Vec<PatElem>> {
        vec(0u8..4, 0..13).prop_map(|codes| {
            codes
                .into_iter()
                .map(|c| match c {
                    0 => PatElem::Gap,
                    c => PatElem::Lit(b'a' + c),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn lower_bound_never_exceeds_the_exact_increment(
            x in elems(),
            y in elems(),
            size_x in 1usize..7,
            size_y in 1usize..7,
        ) {
            let (bound, exact) = bound_and_exact(&x, &y, size_x, size_y);
            prop_assert!(
                bound <= exact,
                "x={:?} y={:?} sizes=({}, {}): bound {} > exact {}", x, y, size_x, size_y, bound, exact
            );
        }
    }
}
