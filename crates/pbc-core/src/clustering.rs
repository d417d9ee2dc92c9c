//! Greedy agglomerative clustering with the minimal-encoding-length
//! criterion (Section 4.2, Figure 3), plus the edit-distance and entropy
//! criteria used by the ablation of Figure 7, and the 1-gram pruning of
//! Section 5.1.
//!
//! Every sample record starts as its own cluster; each iteration merges the
//! pair of clusters with the smallest encoding-length increment until only
//! `target_clusters` remain. Candidate pairs are kept in a lazy priority
//! queue: with pruning enabled a pair enters the queue with its cheap 1-gram
//! lower bound and is only evaluated with the exact `O(n·m)` dynamic program
//! when it reaches the front — the same work-avoidance idea as the paper's
//! pruning strategy, organised so the result stays identical to the
//! exhaustive computation.
//!
//! That identity rests on one property: [`OneGram::merge_lower_bound`]
//! never exceeds the exact increment (argued in its doc comment, checked by
//! a proptest against the DP). The queue orders entries by `(score, a, b)`,
//! so when an exact entry is popped every other live pair has a bound —
//! hence an exact score — that is no smaller, or an equal one with a later
//! `(a, b)`: exactly the pair the exhaustive queue would pop. A bound that
//! overshoots would let a more expensive pair be merged first.
//!
//! The exact evaluations are where training spends its time, so the scratch
//! rows of the merge kernel (`dp::Rows`) are owned here and reused by
//! every evaluation of one call.
//!
//! [`OneGram::merge_lower_bound`]: crate::onegram::OneGram::merge_lower_bound

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use crate::cluster::{Cluster, PatElem};
use crate::dp;
use crate::entropy::entropy_discriminant;

/// Which closeness measure drives the greedy merging (Figure 7's ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// The paper's criterion: minimal encoding-length increment
    /// (Definition 3, computed by Algorithm 1).
    EncodingLength,
    /// Baseline: Levenshtein distance between the clusters' wildcard
    /// sequences.
    EditDistance,
    /// Baseline: the entropy discriminant of Section 6 (Equation 9).
    Entropy,
}

/// Clustering parameters.
#[derive(Debug, Clone)]
pub struct ClusteringConfig {
    /// Stop when this many clusters remain (the paper's `k`).
    pub target_clusters: usize,
    /// Closeness criterion.
    pub criterion: Criterion,
    /// Enable the 1-gram lower-bound pruning of Section 5.1.
    pub use_onegram_pruning: bool,
    /// Cap on the wildcard-sequence length used during clustering; longer
    /// records are clustered on their prefix (a trailing gap keeps the
    /// resulting pattern matching complete records).
    pub max_cs_len: usize,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            target_clusters: 64,
            criterion: Criterion::EncodingLength,
            use_onegram_pruning: true,
            max_cs_len: 512,
        }
    }
}

/// Output of [`cluster_records`], including the work counters reported by
/// the Figure 8 experiment.
#[derive(Debug, Clone)]
pub struct ClusteringResult {
    /// The surviving clusters.
    pub clusters: Vec<Cluster>,
    /// Number of merges performed.
    pub merges: usize,
    /// Number of exact distance evaluations (dynamic programs / edit
    /// distances) that were run.
    pub exact_evaluations: usize,
    /// Number of candidate pairs whose exact evaluation was avoided: the
    /// pair was still waiting behind its lower bound when one of its
    /// clusters was merged away or merging stopped. With pruning on,
    /// `exact_evaluations + pruned_pairs` is the number of pairs created.
    pub pruned_pairs: usize,
}

/// Heap entry: candidate merge of two clusters identified by generation
/// stamps. `exact` records whether `score` is the exact criterion value or
/// the cheap lower bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    score: i64,
    a: u64,
    b: u64,
    exact: bool,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .cmp(&other.score)
            .then_with(|| self.a.cmp(&other.a))
            .then_with(|| self.b.cmp(&other.b))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Greedy agglomerative clustering of `samples` under the given
/// configuration.
pub fn cluster_records(samples: &[Vec<u8>], config: &ClusteringConfig) -> ClusteringResult {
    // --- Deduplicate identical records (they trivially share a pattern). ---
    // pbc-allow(determinism): lookup-only dedup index, never iterated; slot order follows input order
    let mut first_index: HashMap<&[u8], usize> = HashMap::new();
    let mut weights: Vec<usize> = Vec::new();
    let mut representatives: Vec<usize> = Vec::new();
    let mut extra_members: Vec<Vec<usize>> = Vec::new();
    for (i, rec) in samples.iter().enumerate() {
        match first_index.get(rec.as_slice()) {
            Some(&slot) => {
                weights[slot] += 1;
                extra_members[slot].push(i);
            }
            None => {
                first_index.insert(rec.as_slice(), representatives.len());
                representatives.push(i);
                weights.push(1);
                extra_members.push(Vec::new());
            }
        }
    }

    // --- Build singleton clusters. ---
    // Keyed by generation stamp in a BTreeMap: every iteration over the
    // active set (pair seeding, re-pairing after a merge, final collection)
    // must follow a deterministic order, or extracted dictionaries differ
    // between identically-trained compressors (HashMap order is randomized
    // per instance, which broke pbc-archive's byte-identical-segments
    // guarantee).
    let mut stamps: u64 = 0;
    let mut active: BTreeMap<u64, Cluster> = BTreeMap::new();
    for (slot, &rep) in representatives.iter().enumerate() {
        let mut cluster = Cluster::singleton(rep, &samples[rep], weights[slot], config.max_cs_len);
        cluster.members.extend(extra_members[slot].iter().copied());
        active.insert(stamps, cluster);
        stamps += 1;
    }

    let mut result = ClusteringResult {
        clusters: Vec::new(),
        merges: 0,
        exact_evaluations: 0,
        pruned_pairs: 0,
    };

    if active.len() <= config.target_clusters {
        result.clusters = active.into_values().collect();
        return result;
    }

    // --- Seed the candidate queue with all pairs. ---
    let mut rows = dp::Rows::default();
    let mut heap: BinaryHeap<Reverse<Candidate>> = BinaryHeap::new();
    let ids: Vec<u64> = active.keys().copied().collect();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            let ca = &active[&a];
            let cb = &active[&b];
            let candidate = seed_candidate(ca, cb, a, b, config, &mut result, &mut rows);
            heap.push(Reverse(candidate));
        }
    }

    // --- Greedy merging. ---
    while active.len() > config.target_clusters {
        let Some(Reverse(cand)) = heap.pop() else {
            break;
        };
        let (Some(ca), Some(cb)) = (active.get(&cand.a), active.get(&cand.b)) else {
            // One of the clusters was already merged away: the pair is stale.
            if !cand.exact {
                result.pruned_pairs += 1;
            }
            continue;
        };
        if !cand.exact {
            // Lazily replace the lower bound with the exact value and requeue.
            let exact = exact_score(ca, cb, config.criterion, &mut result, &mut rows);
            heap.push(Reverse(Candidate {
                score: exact,
                a: cand.a,
                b: cand.b,
                exact: true,
            }));
            continue;
        }

        // Merge the pair.
        let merged = Cluster::merged_from(ca, cb, merge_cs(ca, cb, &mut rows));
        active.remove(&cand.a);
        active.remove(&cand.b);
        let new_id = stamps;
        stamps += 1;
        result.merges += 1;

        // New candidate pairs between the merged cluster and all survivors.
        for (&other_id, other) in active.iter() {
            let candidate = seed_candidate(
                &merged,
                other,
                new_id,
                other_id,
                config,
                &mut result,
                &mut rows,
            );
            heap.push(Reverse(candidate));
        }
        active.insert(new_id, merged);
    }

    // Pairs still queued behind their lower bound were never evaluated.
    result.pruned_pairs += heap.iter().filter(|c| !c.0.exact).count();
    result.clusters = active.into_values().collect();
    result
}

/// Build the initial candidate entry for a pair: the exact score when
/// pruning is off (or for non-EL criteria), the 1-gram lower bound otherwise.
fn seed_candidate(
    ca: &Cluster,
    cb: &Cluster,
    a: u64,
    b: u64,
    config: &ClusteringConfig,
    result: &mut ClusteringResult,
    rows: &mut dp::Rows,
) -> Candidate {
    if config.use_onegram_pruning && config.criterion == Criterion::EncodingLength {
        let bound = ca
            .onegram
            .merge_lower_bound(&cb.onegram, ca.weight, cb.weight);
        Candidate {
            score: bound,
            a,
            b,
            exact: false,
        }
    } else {
        let score = exact_score(ca, cb, config.criterion, result, rows);
        Candidate {
            score,
            a,
            b,
            exact: true,
        }
    }
}

/// Exact criterion value for a pair of clusters.
fn exact_score(
    ca: &Cluster,
    cb: &Cluster,
    criterion: Criterion,
    result: &mut ClusteringResult,
    rows: &mut dp::Rows,
) -> i64 {
    result.exact_evaluations += 1;
    match criterion {
        Criterion::EncodingLength => {
            dp::increment(&ca.codes, &cb.codes, ca.weight, cb.weight, rows)
        }
        Criterion::EditDistance => edit_distance(&ca.cs, &cb.cs),
        Criterion::Entropy => {
            let merged_literal_len = merge_cs(ca, cb, rows)
                .iter()
                .filter(|e| matches!(e, PatElem::Lit(_)))
                .count();
            entropy_discriminant(ca, cb, merged_literal_len)
        }
    }
}

/// Merged wildcard sequence of two clusters (always via the DP alignment, so
/// all three criteria produce valid patterns and only the *selection* of
/// pairs differs — which is what the ablation isolates).
fn merge_cs(ca: &Cluster, cb: &Cluster, rows: &mut dp::Rows) -> Vec<PatElem> {
    dp::merge_encoded(&ca.codes, &cb.codes, ca.weight, cb.weight, rows).cs
}

/// Levenshtein distance between two wildcard sequences (gaps count as an
/// ordinary symbol), used by the edit-distance ablation arm.
pub fn edit_distance(a: &[PatElem], b: &[PatElem]) -> i64 {
    let n = a.len();
    let m = b.len();
    if n == 0 {
        return m as i64;
    }
    if m == 0 {
        return n as i64;
    }
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m] as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv_like_samples() -> Vec<Vec<u8>> {
        let mut samples = Vec::new();
        for i in 0..30 {
            samples.push(
                format!(
                    "user_profile:{{\"id\": {}, \"plan\": \"pro\", \"active\": true}}",
                    1000 + i
                )
                .into_bytes(),
            );
        }
        for i in 0..30 {
            samples.push(
                format!(
                    "order_event:{{\"order\": {}, \"status\": \"shipped\", \"items\": {}}}",
                    77000 + i,
                    i % 9
                )
                .into_bytes(),
            );
        }
        for i in 0..30 {
            samples.push(
                format!(
                    "2023-06-0{} INFO worker-{} heartbeat ok",
                    (i % 9) + 1,
                    i % 4
                )
                .into_bytes(),
            );
        }
        samples
    }

    #[test]
    fn clustering_recovers_the_three_record_families() {
        let samples = kv_like_samples();
        let config = ClusteringConfig {
            target_clusters: 3,
            ..ClusteringConfig::default()
        };
        let result = cluster_records(&samples, &config);
        assert_eq!(result.clusters.len(), 3);
        // Each cluster should be pure: all members from the same family.
        for cluster in &result.clusters {
            let families: std::collections::HashSet<usize> =
                cluster.members.iter().map(|&i| i / 30).collect();
            assert_eq!(
                families.len(),
                1,
                "cluster {} mixes families {:?}",
                cluster.display(),
                families
            );
        }
        // Total membership is preserved.
        let total: usize = result.clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, samples.len());
        assert_eq!(result.merges, samples.len() - 3 - duplicates(&samples));
    }

    fn duplicates(samples: &[Vec<u8>]) -> usize {
        let unique: std::collections::HashSet<&[u8]> =
            samples.iter().map(|s| s.as_slice()).collect();
        samples.len() - unique.len()
    }

    #[test]
    fn clusters_retain_shared_literals_in_their_patterns() {
        let samples = kv_like_samples();
        let config = ClusteringConfig {
            target_clusters: 3,
            ..ClusteringConfig::default()
        };
        let result = cluster_records(&samples, &config);
        let displays: Vec<String> = result.clusters.iter().map(|c| c.display()).collect();
        assert!(
            displays.iter().any(|d| d.contains("user_profile")),
            "expected a user_profile pattern in {displays:?}"
        );
        assert!(displays.iter().any(|d| d.contains("order_event")));
        assert!(displays.iter().any(|d| d.contains("INFO worker-")));
    }

    #[test]
    fn pruned_and_unpruned_clustering_agree_on_the_clusters_themselves() {
        let samples = kv_like_samples();
        let base = ClusteringConfig {
            target_clusters: 3,
            ..ClusteringConfig::default()
        };
        let pruned = cluster_records(&samples, &base);
        let naive = cluster_records(
            &samples,
            &ClusteringConfig {
                use_onegram_pruning: false,
                ..base
            },
        );
        let summary = |r: &ClusteringResult| -> Vec<(Vec<PatElem>, Vec<usize>)> {
            r.clusters
                .iter()
                .map(|c| (c.cs.clone(), c.members.clone()))
                .collect()
        };
        assert_eq!(summary(&pruned), summary(&naive));
        assert_eq!(pruned.merges, naive.merges);
        // Pruning must reduce the number of exact DP evaluations.
        assert!(
            pruned.exact_evaluations < naive.exact_evaluations,
            "pruned {} vs naive {}",
            pruned.exact_evaluations,
            naive.exact_evaluations
        );
        // Every pair created was either evaluated or pruned: all pairs of
        // the unique records, then one per survivor after each merge.
        let unique = samples.len() - duplicates(&samples);
        let created =
            unique * (unique - 1) / 2 + (1..=pruned.merges).map(|k| unique - k - 1).sum::<usize>();
        assert_eq!(pruned.exact_evaluations + pruned.pruned_pairs, created);
        assert_eq!((naive.exact_evaluations, naive.pruned_pairs), (created, 0));
    }

    #[test]
    fn fewer_unique_records_than_target_returns_singletons() {
        let samples = vec![b"a".to_vec(), b"b".to_vec(), b"a".to_vec()];
        let config = ClusteringConfig {
            target_clusters: 10,
            ..ClusteringConfig::default()
        };
        let result = cluster_records(&samples, &config);
        assert_eq!(result.clusters.len(), 2);
        assert_eq!(result.merges, 0);
        // The duplicate record is folded into one cluster with weight 2.
        let weights: Vec<usize> = result.clusters.iter().map(|c| c.weight).collect();
        assert!(weights.contains(&2));
    }

    #[test]
    fn all_criteria_produce_valid_partitions() {
        let samples = kv_like_samples();
        for criterion in [
            Criterion::EncodingLength,
            Criterion::EditDistance,
            Criterion::Entropy,
        ] {
            let config = ClusteringConfig {
                target_clusters: 4,
                criterion,
                ..ClusteringConfig::default()
            };
            let result = cluster_records(&samples, &config);
            assert_eq!(result.clusters.len(), 4, "criterion {criterion:?}");
            let total: usize = result.clusters.iter().map(|c| c.members.len()).sum();
            assert_eq!(total, samples.len(), "criterion {criterion:?}");
        }
    }

    #[test]
    fn edit_distance_matches_known_values() {
        use crate::cluster::Cluster;
        let d =
            |a: &str, b: &str| edit_distance(&Cluster::cs_from_str(a), &Cluster::cs_from_str(b));
        assert_eq!(d("kitten", "sitting"), 3);
        assert_eq!(d("", "abc"), 3);
        assert_eq!(d("abc", "abc"), 0);
        assert_eq!(d("a*c", "abc"), 1);
    }

    #[test]
    fn empty_sample_set_yields_no_clusters() {
        let result = cluster_records(&[], &ClusteringConfig::default());
        assert!(result.clusters.is_empty());
        assert_eq!(result.merges, 0);
    }
}
