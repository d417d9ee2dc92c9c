//! Entropy model of pattern-based compression (Section 6 of the paper).
//!
//! Each record is modelled as generated by a joint distribution over its
//! pattern and the characters of its residual subsequence; the average
//! encoding length of a record is
//!
//! ```text
//! E(S) = E(P) + |R|·E(R)                                 (Equation 4)
//! E(P) = −Σᵢ Pᵢ log₂ Pᵢ                                   (Equation 5)
//! E(R) = Σᵢ Pᵢ E(Rᵢ),   E(Rᵢ) = −Σⱼ pᵢⱼ log₂ pᵢⱼ            (Equation 6)
//! ```
//!
//! where `Pᵢ` is the fraction of records carrying pattern `i`, `E(Rᵢ)` is the
//! per-character entropy of cluster `i`'s residuals and `|R|` is the average
//! residual length. Section 6 shows that greedy minimal-encoding-length
//! merging is (under the stated assumptions) equivalent to greedy minimal
//! entropy merging; the entropy-based criterion here is used both for that
//! analysis and as the "Entropy-based" ablation arm of Figure 7.

use std::collections::HashMap;

use crate::cluster::Cluster;
use crate::encoding_length::pattern_from_cs;
use crate::matching::match_structure;

/// Per-clustering entropy summary (all terms of Equation 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntropyBreakdown {
    /// `E(P)`: entropy of the pattern-label distribution, in bits.
    pub pattern_entropy: f64,
    /// `E(R)`: average per-character entropy of residuals, in bits.
    pub residual_entropy: f64,
    /// `|R|`: average residual length per record, in characters.
    pub avg_residual_len: f64,
    /// `E(S) = E(P) + |R|·E(R)`: expected bits per record.
    pub total: f64,
}

/// Shannon entropy (bits) of a byte histogram.
fn histogram_entropy(counts: &HashMap<u8, u64>, total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    counts
        .values()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Compute the Section-6 entropy breakdown of a clustering over `samples`.
///
/// Residuals are obtained by matching each member against its cluster's
/// wildcard-sequence pattern (VARCHAR model), exactly as the clustering sees
/// the data.
pub fn clustering_entropy(clusters: &[Cluster], samples: &[Vec<u8>]) -> EntropyBreakdown {
    let total_records: usize = clusters.iter().map(|c| c.members.len()).sum();
    if total_records == 0 {
        return EntropyBreakdown {
            pattern_entropy: 0.0,
            residual_entropy: 0.0,
            avg_residual_len: 0.0,
            total: 0.0,
        };
    }
    let n = total_records as f64;

    let mut pattern_entropy = 0.0;
    let mut residual_entropy = 0.0;
    let mut total_residual_bytes = 0u64;

    for cluster in clusters {
        if cluster.members.is_empty() {
            continue;
        }
        let p_i = cluster.members.len() as f64 / n;
        pattern_entropy += -p_i * p_i.log2();

        let pattern = pattern_from_cs(&cluster.cs);
        let mut counts: HashMap<u8, u64> = HashMap::new();
        let mut cluster_residual_bytes = 0u64;
        for &idx in &cluster.members {
            let record = &samples[idx];
            let residual_ranges: Vec<(usize, usize)> = match match_structure(&pattern, record) {
                Some(m) => m.field_spans,
                // A member that fails to match (possible only with capped
                // sequences) contributes its whole content as residual.
                None => vec![(0, record.len())],
            };
            for (s, e) in residual_ranges {
                for &b in &record[s..e] {
                    *counts.entry(b).or_insert(0) += 1;
                }
                cluster_residual_bytes += (e - s) as u64;
            }
        }
        total_residual_bytes += cluster_residual_bytes;
        residual_entropy += p_i * histogram_entropy(&counts, cluster_residual_bytes);
    }

    let avg_residual_len = total_residual_bytes as f64 / n;
    EntropyBreakdown {
        pattern_entropy,
        residual_entropy,
        avg_residual_len,
        total: pattern_entropy + avg_residual_len * residual_entropy,
    }
}

/// The entropy-criterion discriminant for merging two clusters
/// (Equations 7–9): the change in total residual symbol occurrences,
/// `g(Sᵢ, Sⱼ) = L' − L`, where `L` counts residual symbols before the merge
/// and `L'` after. Smaller is better; negative values cannot occur because a
/// merged pattern never covers more of a record than the separate patterns
/// did.
///
/// `merged_literal_len` is the literal length of the merged wildcard
/// sequence (the LCS retained by the merge); the per-cluster terms follow
/// from each member losing `(own literal length − merged literal length)`
/// pattern characters to its residual.
pub fn entropy_discriminant(
    cluster_x: &Cluster,
    cluster_y: &Cluster,
    merged_literal_len: usize,
) -> i64 {
    let lost_x = cluster_x.literal_len().saturating_sub(merged_literal_len) as i64;
    let lost_y = cluster_y.literal_len().saturating_sub(merged_literal_len) as i64;
    lost_x * cluster_x.weight as i64 + lost_y * cluster_y.weight as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    fn cluster_of(cs: &str, members: Vec<usize>) -> Cluster {
        let weight = members.len();
        Cluster::new(Cluster::cs_from_str(cs), members, weight)
    }

    #[test]
    fn single_cluster_has_zero_pattern_entropy() {
        let samples = vec![b"key=1".to_vec(), b"key=2".to_vec(), b"key=3".to_vec()];
        let clusters = vec![cluster_of("key=*", vec![0, 1, 2])];
        let e = clustering_entropy(&clusters, &samples);
        assert!(e.pattern_entropy.abs() < 1e-12);
        assert!((e.avg_residual_len - 1.0).abs() < 1e-12);
        // Residual characters are '1', '2', '3' → log2(3) bits each.
        assert!((e.residual_entropy - 3f64.log2()).abs() < 1e-9);
        assert!((e.total - 3f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn uniform_two_cluster_split_has_one_bit_of_pattern_entropy() {
        let samples = vec![
            b"GET /a".to_vec(),
            b"GET /b".to_vec(),
            b"POST /a".to_vec(),
            b"POST /b".to_vec(),
        ];
        let clusters = vec![
            cluster_of("GET /*", vec![0, 1]),
            cluster_of("POST /*", vec![2, 3]),
        ];
        let e = clustering_entropy(&clusters, &samples);
        assert!((e.pattern_entropy - 1.0).abs() < 1e-12);
        assert!((e.avg_residual_len - 1.0).abs() < 1e-12);
    }

    #[test]
    fn better_patterns_reduce_total_entropy() {
        // Same records, two clusterings: one with a precise pattern, one with
        // a trivial pattern that leaves everything residual.
        let samples: Vec<Vec<u8>> = (0..16)
            .map(|i| format!("sensor={:02} status=ok", i).into_bytes())
            .collect();
        let precise = vec![cluster_of("sensor=* status=ok", (0..16).collect())];
        let trivial = vec![cluster_of("s*", (0..16).collect())];
        let e_precise = clustering_entropy(&precise, &samples);
        let e_trivial = clustering_entropy(&trivial, &samples);
        assert!(
            e_precise.total < e_trivial.total,
            "precise {} vs trivial {}",
            e_precise.total,
            e_trivial.total
        );
    }

    #[test]
    fn empty_clustering_is_all_zero() {
        let e = clustering_entropy(&[], &[]);
        assert_eq!(e.total, 0.0);
        assert_eq!(e.pattern_entropy, 0.0);
    }

    #[test]
    fn entropy_discriminant_prefers_structure_preserving_merges() {
        let a = cluster_of("user=alice action=login", vec![0, 1, 2]);
        let b = cluster_of("user=bobby action=login", vec![3, 4]);
        let c = cluster_of("zzzzzzzz", vec![5]);
        // Merging a and b keeps "user=" and " action=login" (≈ 19 chars).
        let ab = entropy_discriminant(&a, &b, 19);
        // Merging a and c keeps nothing.
        let ac = entropy_discriminant(&a, &c, 0);
        assert!(ab < ac);
        // Merging identical structures loses nothing.
        assert_eq!(entropy_discriminant(&a, &a, a.literal_len()), 0);
    }
}
