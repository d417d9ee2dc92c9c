//! The compaction planner: true leveling over a two-level cold tier.
//!
//! The cold tier is split into two levels:
//!
//! * **L0** — spill segments in recency order (newest first). Segments may
//!   overlap each other arbitrarily: each one is just a drained slice of
//!   the hot tier. Reads walk them newest-first.
//! * **L1** — **sorted, pairwise non-overlapping key partitions**. Reads
//!   binary-search for the single partition covering a key, so the cold
//!   read path costs O(L0) + O(log L1) instead of O(segments).
//!
//! Jobs are **range-selected**, LSM-style: pick a contiguous L0 run, pull
//! in exactly the L1 partitions whose key ranges intersect it, merge, and
//! write the output back to L1 split at `target_partition_bytes`
//! boundaries. Two soundness rules make this correct:
//!
//! 1. **An L0 run may only be promoted when no *older* L0 segment's key
//!    range intersects the run's range.** Output lands in L1, which reads
//!    consult *after* every L0 segment — an older L0 segment holding a key
//!    of the output would shadow the newer merged version. (Newer L0
//!    segments above the run are fine: their versions really are newer.)
//!    The oldest L0 segment always satisfies this vacuously, so planning
//!    always converges.
//! 2. **Every L1 partition intersecting the run's range is included.**
//!    With rule 1 this means nothing older than the job's inputs can hold
//!    any key the output covers — so **every job drops tombstones**: L1,
//!    the bottom level, never stores a tombstone.
//!
//! **Promotion is bounded by bytes, not by segment count.** Promotions
//! run once L0 holds at least as many bytes as the L1 partitions its key
//! range intersects, once L0 holds a full `max_job_segments` batch, or
//! once cold dead weight crosses `max_dead_ratio`. The byte rule keeps a
//! store whose spills each cover the whole key space at an L0 depth of
//! one or two, while a promotion rewrites at most about twice what it
//! promotes; the batch rule covers large stores, where one spill is small
//! against the L1 bytes it intersects.
//!
//! L1 itself is maintained by **consolidation jobs**: when the partition
//! count exceeds `max_segments`, adjacent undersized partitions (combined
//! bytes within `target_partition_bytes`) are merged pairwise-disjointly.
//!
//! This module is the one owner of that geometry: whether a segment
//! intersects a key interval (`SegmentStats::intersects`), which L1
//! partitions cover one (`covering_l1`), and the two rules above
//! (`promotion_l1`). The planner, job validation, point gets and range
//! scans all ask it rather than comparing keys themselves.

use std::fmt;
use std::ops::Range;

/// Level tag for an L0 (recency-ordered spill) segment.
pub const LEVEL_L0: u8 = 0;
/// Level tag for an L1 (sorted, non-overlapping) partition.
pub const LEVEL_L1: u8 = 1;

/// Statistics for one live segment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment id (monotonic; larger = newer).
    pub id: u64,
    /// Which level the segment lives on ([`LEVEL_L0`] or [`LEVEL_L1`]).
    pub level: u8,
    /// Records in the segment: live entries plus tombstones.
    pub records: u64,
    /// Tombstone records among them.
    pub tombstones: u64,
    /// Segment file size in bytes.
    pub bytes: u64,
    /// Smallest record key.
    pub min_key: Vec<u8>,
    /// Largest record key.
    pub max_key: Vec<u8>,
}

impl SegmentStats {
    /// This segment's key range (`None` for an empty segment, which
    /// overlaps nothing).
    pub fn range(&self) -> Option<KeyRange> {
        if self.records == 0 {
            None
        } else {
            Some(KeyRange::bounded(
                self.min_key.clone(),
                self.max_key.clone(),
            ))
        }
    }

    /// Whether two segments' key ranges intersect (empty segments never
    /// overlap anything).
    pub fn overlaps(&self, other: &SegmentStats) -> bool {
        other.records > 0 && self.intersects(&other.min_key, Some(&other.max_key))
    }

    /// Whether this segment may hold a key in the closed interval
    /// `[min, max]` (`max = None`: unbounded above). An empty segment
    /// holds none.
    pub(crate) fn intersects(&self, min: &[u8], max: Option<&[u8]>) -> bool {
        self.records > 0
            && self.max_key.as_slice() >= min
            && max.is_none_or(|max| self.min_key.as_slice() <= max)
    }
}

/// A segment as the leveling geometry sees it: its stats. The planner
/// works on bare stats, reads and jobs on live segments.
pub(crate) trait Leveled {
    fn stats(&self) -> &SegmentStats;
}

impl Leveled for SegmentStats {
    fn stats(&self) -> &SegmentStats {
        self
    }
}

/// The L1 partitions (indices into `l1`, sorted and pairwise disjoint)
/// that intersect `[min, max]` — a contiguous run, found by two binary
/// searches. A point lookup asks for `[key, key]` and gets at most one.
pub(crate) fn covering_l1<S: Leveled>(l1: &[S], min: &[u8], max: Option<&[u8]>) -> Range<usize> {
    let first = l1.partition_point(|p| p.stats().max_key.as_slice() < min);
    let end = match max {
        Some(max) => l1.partition_point(|p| p.stats().min_key.as_slice() <= max),
        None => l1.len(),
    };
    first..end.max(first)
}

/// Soundness rules 1 and 2 (see the [module docs](self)) for promoting
/// the L0 run `l0[run]`: `None` when an older L0 segment intersects the
/// run's interval, else the L1 partitions the job must merge in. A run
/// holding no key needs none.
pub(crate) fn promotion_l1<S: Leveled>(
    l0: &[S],
    run: Range<usize>,
    l1: &[S],
) -> Option<Range<usize>> {
    let Some((min, max)) = bounds(&l0[run.clone()]) else {
        return Some(0..0);
    };
    let older = &l0[run.end..];
    if older.iter().any(|s| s.stats().intersects(min, Some(max))) {
        return None;
    }
    Some(covering_l1(l1, min, Some(max)))
}

/// The smallest closed interval holding every key of `segments`, borrowed
/// from their stats (`None` if every segment is empty).
fn bounds<'a, S: Leveled + 'a>(
    segments: impl IntoIterator<Item = &'a S>,
) -> Option<(&'a [u8], &'a [u8])> {
    segments
        .into_iter()
        .map(Leveled::stats)
        .filter(|s| s.records > 0)
        .map(|s| (s.min_key.as_slice(), s.max_key.as_slice()))
        .reduce(|(lo, hi), (min, max)| (lo.min(min), hi.max(max)))
}

/// A closed key interval `[min, max]`; `max = None` means unbounded above
/// (only a full compaction's job uses that). The empty byte string
/// is the smallest possible key, so `min: vec![]` reaches all the way down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive lower bound.
    pub min: Vec<u8>,
    /// Inclusive upper bound; `None` = +infinity.
    pub max: Option<Vec<u8>>,
}

impl KeyRange {
    /// The range covering every possible key.
    pub fn everything() -> Self {
        KeyRange {
            min: Vec::new(),
            max: None,
        }
    }

    /// A bounded range `[min, max]`.
    pub fn bounded(min: Vec<u8>, max: Vec<u8>) -> Self {
        debug_assert!(min <= max, "inverted key range");
        KeyRange {
            min,
            max: Some(max),
        }
    }
}

/// The union interval of some segments' stats (`None` if every segment
/// is empty).
fn range_of<'a>(segments: impl IntoIterator<Item = &'a SegmentStats>) -> Option<KeyRange> {
    bounds(segments).map(|(min, max)| KeyRange::bounded(min.to_vec(), max.to_vec()))
}

/// Trigger thresholds and job bounds for the [`CompactionPlanner`].
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Plan L1 consolidation jobs while the L1 partition count exceeds
    /// this. Promotions do not read it: they trigger on L0 bytes against
    /// the L1 bytes L0 intersects, on a full `max_job_segments` batch, or
    /// on `max_dead_ratio`.
    pub max_segments: usize,
    /// Plan a job once cold tombstones exceed this fraction of cold
    /// records. Tombstones only ever live in L0 (every job drops them on
    /// the way into L1), so this drains the dead weight toward zero.
    pub max_dead_ratio: f64,
    /// Hard cap on L0 segments merged per job (the "incremental" bound:
    /// one job rewrites a bounded run, never the whole store). The L1
    /// partitions a run's range intersects come on top — correctness
    /// requires all of them. Also the batch trigger: an L0 holding this
    /// many segments promotes whatever its bytes.
    pub max_job_segments: usize,
    /// Split L1 outputs at this boundary: a job's merged stream rolls to a
    /// new partition once the current one's serialized payload reaches
    /// this many bytes. Also the consolidation threshold — adjacent L1
    /// partitions are merged only while their combined size stays within
    /// it.
    pub target_partition_bytes: u64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            max_segments: 8,
            max_dead_ratio: 0.25,
            max_job_segments: 4,
            target_partition_bytes: 8 * 1024 * 1024,
        }
    }
}

/// One bounded unit of compaction work. The output always lands in L1,
/// split at [`PlannerConfig::target_partition_bytes`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionJob {
    /// L0 segments to merge, newest first, contiguous in the L0 order.
    /// Empty for an L1-only consolidation job.
    pub l0_inputs: Vec<u64>,
    /// L1 partitions to merge in, ascending key order. For a promotion
    /// this is every partition intersecting the L0 run's range; for a
    /// consolidation, an adjacent run of partitions.
    pub l1_inputs: Vec<u64>,
    /// The union key interval of every input; the outputs are confined
    /// to it. Traced with the job and named in its error reports.
    pub range: KeyRange,
    /// Whether the output stream splits at
    /// [`PlannerConfig::target_partition_bytes`]. True for promotions
    /// (and full compactions); **false for consolidations**, which must
    /// merge their inputs into exactly one partition — the consolidation
    /// threshold is measured in compressed file bytes while the split
    /// boundary is measured in estimated raw bytes, and letting a
    /// consolidation re-split would let the planner re-plan the same
    /// small partitions forever.
    pub split_outputs: bool,
    /// The planner's score (higher = more urgent); informational.
    pub score: f64,
}

impl CompactionJob {
    /// Every input id, L0 run first.
    pub fn input_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.l0_inputs.iter().chain(self.l1_inputs.iter()).copied()
    }
}

impl fmt::Display for CompactionJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.l0_inputs.is_empty() {
            write!(
                f,
                "consolidate {} L1 partition(s) {:?}",
                self.l1_inputs.len(),
                self.l1_inputs
            )
        } else {
            write!(
                f,
                "promote {} L0 segment(s) {:?} into {} L1 partition(s) {:?}",
                self.l0_inputs.len(),
                self.l0_inputs,
                self.l1_inputs.len(),
                self.l1_inputs,
            )
        }
    }
}

/// Scores leveled candidate jobs and emits the best one; see the
/// [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct CompactionPlanner {
    config: PlannerConfig,
}

impl CompactionPlanner {
    /// A planner with the given thresholds.
    pub fn new(config: PlannerConfig) -> Self {
        CompactionPlanner { config }
    }

    /// The thresholds this planner runs under.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Whether promotion jobs should run. L0 must hold a key, and one of
    /// three triggers must hold:
    ///
    /// * **bytes** — L0 holds at least as many bytes as the L1 partitions
    ///   its key range intersects (all of L1 when L1 is empty: the first
    ///   spill promotes at once). A promotion then rewrites at most about
    ///   twice what it promotes, and L0 stays shallow however many
    ///   overlapping spills a workload makes: each one is a merge source
    ///   for every scan and a probe for every cold get;
    /// * **batch** — L0 holds a full `max_job_segments` batch. In a large
    ///   store one spill's bytes are small against the L1 partitions it
    ///   intersects, and soundness rule 2 makes that fan-in uncappable;
    ///   batching amortizes it across `max_job_segments` spills;
    /// * **dead weight** — cold tombstones exceed `max_dead_ratio`.
    ///   Tombstones only drain by promotion, so this one never waits.
    fn promotion_triggered(&self, l0: &[SegmentStats], l1: &[SegmentStats]) -> bool {
        let Some((min, max)) = bounds(l0) else {
            return false;
        };
        let l0_bytes: u64 = l0.iter().map(|s| s.bytes).sum();
        let l1_bytes: u64 = l1[covering_l1(l1, min, Some(max))]
            .iter()
            .map(|s| s.bytes)
            .sum();
        if l0_bytes >= l1_bytes || l0.len() >= self.config.max_job_segments.max(1) {
            return true;
        }
        let records: u64 = l0.iter().chain(l1).map(|s| s.records).sum();
        let tombstones: u64 = l0.iter().chain(l1).map(|s| s.tombstones).sum();
        records > 0 && tombstones as f64 / records as f64 > self.config.max_dead_ratio
    }

    /// Whether the current two-level segment set crosses a trigger: a
    /// promotion trigger, or more than `max_segments` L1 partitions.
    pub fn should_compact(&self, l0: &[SegmentStats], l1: &[SegmentStats]) -> bool {
        self.promotion_triggered(l0, l1) || l1.len() > self.config.max_segments
    }

    /// Score one candidate: benefit from dead entries dropped, L0↔L0
    /// shadow folding, and read-path relief, divided by the bytes the job
    /// must rewrite so cheap jobs win at equal benefit.
    fn score(&self, l0_run: &[SegmentStats], l1_sel: &[SegmentStats]) -> f64 {
        let records: u64 = l0_run.iter().map(|s| s.records).sum();
        let tombstones: u64 = l0_run.iter().map(|s| s.tombstones).sum();
        let dead = if records == 0 {
            0.0
        } else {
            tombstones as f64 / records as f64
        };
        let overlap = if l0_run.len() < 2 {
            0.0
        } else {
            let overlapping = l0_run
                .windows(2)
                .filter(|pair| pair[0].overlaps(&pair[1]))
                .count();
            overlapping as f64 / (l0_run.len() - 1) as f64
        };
        // Every promoted L0 segment leaves the linear scan; consolidated
        // L1 partitions shrink the binary-searched set.
        let relief = l0_run.len() as f64 * 0.25 + (l1_sel.len().saturating_sub(1) as f64) * 0.125;
        let bytes: u64 = l0_run.iter().chain(l1_sel).map(|s| s.bytes).sum();
        let cost = 1.0 + bytes as f64 / (16.0 * 1024.0 * 1024.0);
        (2.0 * dead + overlap + relief) / cost
    }

    /// Pick the best job, or `None` when no threshold is crossed or
    /// nothing eligible remains.
    ///
    /// `l0` is newest first (the store's L0 order), `l1` ascending by key
    /// range. Candidate L0 runs must satisfy soundness rule 1 (no older
    /// L0 segment overlapping the run's interval); ties prefer older runs
    /// so the tail — and its tombstones — drains first.
    pub fn plan(&self, l0: &[SegmentStats], l1: &[SegmentStats]) -> Option<CompactionJob> {
        let mut best: Option<CompactionJob> = None;
        let mut consider = |candidate: CompactionJob| {
            if best.as_ref().is_none_or(|b| candidate.score >= b.score) {
                best = Some(candidate);
            }
        };

        if self.promotion_triggered(l0, l1) {
            let cap = self.config.max_job_segments.max(1);
            for start in 0..l0.len() {
                for len in 1..=cap.min(l0.len() - start) {
                    let run = start..start + len;
                    let Some(l1_sel) = promotion_l1(l0, run.clone(), l1) else {
                        continue;
                    };
                    let (run, l1_sel) = (&l0[run], &l1[l1_sel]);
                    let Some(range) = range_of(run.iter().chain(l1_sel)) else {
                        continue;
                    };
                    consider(CompactionJob {
                        l0_inputs: run.iter().map(|s| s.id).collect(),
                        l1_inputs: l1_sel.iter().map(|s| s.id).collect(),
                        range,
                        split_outputs: true,
                        score: self.score(run, l1_sel),
                    });
                }
            }
        }

        // L1 consolidation under partition-count pressure: adjacent runs
        // whose combined size still fits one target partition.
        if l1.len() > self.config.max_segments {
            let cap = self.config.max_job_segments;
            for start in 0..l1.len() {
                for len in 2..=cap.min(l1.len() - start) {
                    let run = &l1[start..start + len];
                    let bytes: u64 = run.iter().map(|s| s.bytes).sum();
                    if bytes > self.config.target_partition_bytes {
                        break;
                    }
                    let Some(range) = range_of(run) else {
                        continue;
                    };
                    consider(CompactionJob {
                        l0_inputs: Vec::new(),
                        l1_inputs: run.iter().map(|s| s.id).collect(),
                        range,
                        split_outputs: false,
                        score: self.score(&[], run),
                    });
                }
            }
        }

        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// L0 stats, newest-first by position like the store's list.
    fn seg(id: u64, records: u64, tombstones: u64, bytes: u64, range: (u8, u8)) -> SegmentStats {
        SegmentStats {
            id,
            level: LEVEL_L0,
            records,
            tombstones,
            bytes,
            min_key: vec![b'k', range.0],
            max_key: vec![b'k', range.1],
        }
    }

    fn part(id: u64, records: u64, bytes: u64, range: (u8, u8)) -> SegmentStats {
        SegmentStats {
            level: LEVEL_L1,
            ..seg(id, records, 0, bytes, range)
        }
    }

    #[test]
    fn no_trigger_no_job() {
        // L0 is lighter than the L1 it intersects, short of a batch, and
        // barely dead.
        let planner = CompactionPlanner::new(PlannerConfig {
            max_segments: 4,
            ..PlannerConfig::default()
        });
        let l0 = vec![
            seg(3, 100, 0, 1_000, (0, 50)),
            seg(2, 100, 5, 1_000, (51, 99)),
        ];
        let l1 = vec![part(1, 1_000, 10_000, (0, 99))];
        assert!(!planner.should_compact(&l0, &l1));
        assert_eq!(planner.plan(&l0, &l1), None);
    }

    #[test]
    fn l0_bytes_reaching_the_intersected_l1_bytes_promote() {
        // One L1 partition of B bytes and two overlapping spills of the
        // whole key space totalling B: far below any segment count, but
        // every scan already merges three sources.
        let planner = CompactionPlanner::new(PlannerConfig {
            max_segments: 8,
            ..PlannerConfig::default()
        });
        let l1 = vec![part(1, 1_000, 10_000, (0, 99))];
        let l0 = vec![
            seg(3, 400, 0, 6_000, (0, 99)),
            seg(2, 300, 0, 4_000, (0, 99)),
        ];
        assert!(planner.should_compact(&l0, &l1));
        let job = planner.plan(&l0, &l1).unwrap();
        assert_eq!(job.l0_inputs, vec![3, 2], "both spills in one job");
        assert_eq!(job.l1_inputs, vec![1]);
        // One byte short of B: nothing yet.
        let lighter = vec![
            seg(3, 400, 0, 6_000, (0, 99)),
            seg(2, 300, 0, 3_999, (0, 99)),
        ];
        assert!(!planner.should_compact(&lighter, &l1));
        // Only the L1 bytes L0's range intersects count: a heavy partition
        // beside it does not hold the promotion back.
        let beside = vec![
            part(1, 1_000, 10_000, (0, 99)),
            part(4, 9_000, 90_000, (120, 200)),
        ];
        assert!(planner.should_compact(&l0, &beside));
        // With L1 empty, the first spill promotes at once.
        assert!(planner.should_compact(&l0[1..], &[]));
    }

    #[test]
    fn batch_trigger_promotes_a_bounded_oldest_run() {
        let planner = CompactionPlanner::new(PlannerConfig {
            max_job_segments: 2,
            ..PlannerConfig::default()
        });
        // All segments cover the same range, so only oldest-suffix runs
        // are sound promotion candidates. L1 outweighs L0, so only the
        // full batch triggers.
        let l0: Vec<SegmentStats> = (0..6)
            .map(|i| seg(10 - i as u64, 100, 0, 1_000, (0, 99)))
            .collect();
        let l1 = vec![part(1, 1_000, 100_000, (0, 99))];
        assert!(!planner.should_compact(&l0[..1], &l1), "short of a batch");
        assert!(planner.should_compact(&l0, &l1));
        let job = planner.plan(&l0, &l1).unwrap();
        assert_eq!(job.l0_inputs, vec![6, 5], "bounded oldest suffix");
        assert_eq!(job.l1_inputs, vec![1], "the intersected partition");
    }

    #[test]
    fn promotion_selects_exactly_the_overlapping_l1_partitions() {
        let planner = CompactionPlanner::new(PlannerConfig {
            max_job_segments: 1, // a batch of one: always triggered
            ..PlannerConfig::default()
        });
        let l0 = vec![seg(9, 100, 0, 1_000, (30, 60))];
        let l1 = vec![
            part(1, 100, 1_000, (0, 10)),
            part(2, 100, 1_000, (20, 40)),
            part(3, 100, 1_000, (50, 70)),
            part(4, 100, 1_000, (80, 99)),
        ];
        let job = planner.plan(&l0, &l1).unwrap();
        assert_eq!(job.l0_inputs, vec![9]);
        assert_eq!(job.l1_inputs, vec![2, 3], "range-selected partitions");
        assert_eq!(
            job.range,
            KeyRange::bounded(vec![b'k', 20], vec![b'k', 70]),
            "the job range covers the L1 extension"
        );
    }

    #[test]
    fn runs_with_an_older_overlapping_l0_segment_are_never_planned() {
        let planner = CompactionPlanner::new(PlannerConfig {
            max_job_segments: 1,
            ..PlannerConfig::default()
        });
        // Segment 9 (newest) overlaps segment 7 (oldest): promoting 9
        // alone would let 7's stale versions shadow the L1 output. Segment
        // 8 overlaps nothing older, so 8 and 7 are the sound candidates.
        let l0 = vec![
            seg(9, 100, 0, 1_000, (0, 30)),
            seg(8, 100, 0, 1_000, (40, 60)),
            seg(7, 100, 0, 1_000, (10, 20)),
        ];
        let job = planner.plan(&l0, &[]).unwrap();
        assert_ne!(job.l0_inputs, vec![9], "9 is blocked by older 7");
    }

    #[test]
    fn dead_ratio_trigger_prefers_the_tombstone_heavy_run() {
        let planner = CompactionPlanner::new(PlannerConfig {
            max_dead_ratio: 0.2,
            max_job_segments: 8, // never a full batch
            ..PlannerConfig::default()
        });
        let l0 = vec![
            seg(9, 100, 0, 1_000, (0, 20)),
            seg(8, 100, 0, 1_000, (21, 40)),
            seg(7, 100, 80, 1_000, (41, 60)),
            seg(6, 100, 70, 1_000, (61, 80)),
        ];
        // L1 outweighs L0: only dead weight triggers.
        let l1 = vec![part(1, 100, 100_000, (0, 99))];
        let live: Vec<SegmentStats> = l0
            .iter()
            .map(|s| SegmentStats {
                tombstones: 0,
                ..s.clone()
            })
            .collect();
        assert!(!planner.should_compact(&live, &l1));
        let job = planner.plan(&l0, &l1).unwrap();
        assert_eq!(job.l0_inputs, vec![7, 6], "the dead run wins");
    }

    #[test]
    fn smaller_runs_win_at_equal_benefit() {
        let planner = CompactionPlanner::new(PlannerConfig {
            max_dead_ratio: 0.9,
            max_job_segments: 2,
            ..PlannerConfig::default()
        });
        // Identical overlap/deadness, but the old pair is far smaller.
        let l0 = vec![
            seg(9, 1_000, 0, 8 << 20, (0, 10)),
            seg(8, 1_000, 0, 8 << 20, (0, 10)),
            seg(7, 10, 0, 60 << 10, (50, 60)),
            seg(6, 10, 0, 60 << 10, (50, 60)),
        ];
        let job = planner.plan(&l0, &[]).unwrap();
        assert_eq!(job.l0_inputs, vec![7, 6], "cheaper rewrite wins");
    }

    #[test]
    fn l1_pressure_consolidates_small_adjacent_partitions() {
        let planner = CompactionPlanner::new(PlannerConfig {
            max_segments: 2,
            max_job_segments: 3,
            target_partition_bytes: 4_000,
            ..PlannerConfig::default()
        });
        let l1 = vec![
            part(1, 100, 1_500, (0, 10)),
            part(2, 100, 1_500, (20, 30)),
            part(3, 100, 5_000, (40, 60)),
            part(4, 100, 1_500, (70, 99)),
        ];
        let job = planner.plan(&[], &l1).unwrap();
        assert!(job.l0_inputs.is_empty(), "consolidation is L1-only");
        assert_eq!(job.l1_inputs, vec![1, 2], "combined size fits the target");
        // A full partition never consolidates past the target.
        assert!(!job.l1_inputs.contains(&3));
        assert!(
            !job.split_outputs,
            "consolidations merge to exactly one partition"
        );
    }

    #[test]
    fn a_lone_spill_against_a_larger_l1_waits_for_a_full_batch() {
        // In a large store one spill is small against the L1 partitions
        // it intersects. It must NOT trigger a promotion on its own (each
        // promotion has to pull in every intersecting L1 partition, so
        // per-spill promotion would rewrite O(L1) bytes per spill); only
        // a full batch of max_job_segments L0 segments does.
        let planner = CompactionPlanner::new(PlannerConfig {
            max_job_segments: 3,
            ..PlannerConfig::default()
        });
        let l1: Vec<SegmentStats> = (0..6)
            .map(|i| part(i + 1, 40, 8 << 20, (i as u8 * 10, i as u8 * 10 + 9)))
            .collect();
        let one_spill = vec![seg(100, 50, 0, 4_096, (0, 59))];
        assert_eq!(
            planner.plan(&one_spill, &l1),
            None,
            "one spill against a big L1 waits for a batch"
        );
        let batch: Vec<SegmentStats> = (0..3)
            .map(|i| seg(100 + i, 50, 0, 4_096, (0, 59)))
            .collect();
        let job = planner.plan(&batch, &l1).unwrap();
        assert!(!job.l0_inputs.is_empty(), "a full batch promotes");
        // Dead weight is never gated behind batching: tombstones only
        // drain by promotion. (The ratio is measured across all cold
        // records, so the spill must carry enough tombstones to matter.)
        let dead_spill = vec![seg(100, 200, 180, 4_096, (0, 59))];
        assert!(
            planner.plan(&dead_spill, &l1).is_some(),
            "the dead-ratio trigger still promotes a lone spill"
        );
    }

    #[test]
    fn consolidation_planning_converges_to_a_fixed_point() {
        // Livelock regression: the consolidation threshold is compressed
        // file bytes while the merge's split boundary is estimated raw
        // bytes. If consolidations could re-split, the planner would
        // re-plan the same small partitions forever — so every
        // consolidation is single-output, and repeatedly applying planned
        // jobs must reach a state the planner is satisfied with.
        let planner = CompactionPlanner::new(PlannerConfig {
            max_segments: 2,
            max_job_segments: 2,
            target_partition_bytes: 10_000,
            ..PlannerConfig::default()
        });
        let mut l1: Vec<SegmentStats> = (0..12)
            .map(|i| part(i + 1, 50, 3_000, (i as u8 * 8, i as u8 * 8 + 4)))
            .collect();
        let mut next_id = 100u64;
        let mut steps = 0;
        while let Some(job) = planner.plan(&[], &l1) {
            steps += 1;
            assert!(steps < 64, "consolidation planning must converge");
            assert!(!job.split_outputs);
            // Apply the job as the store would: one merged partition
            // replaces the inputs.
            let start = l1
                .iter()
                .position(|p| p.id == job.l1_inputs[0])
                .expect("inputs live");
            let run: Vec<SegmentStats> =
                l1.splice(start..start + job.l1_inputs.len(), []).collect();
            next_id += 1;
            l1.insert(
                start,
                SegmentStats {
                    id: next_id,
                    level: LEVEL_L1,
                    records: run.iter().map(|s| s.records).sum(),
                    tombstones: 0,
                    bytes: run.iter().map(|s| s.bytes).sum(),
                    min_key: run.first().expect("non-empty").min_key.clone(),
                    max_key: run.last().expect("non-empty").max_key.clone(),
                },
            );
        }
        assert!(steps > 0, "the small partitions must consolidate at all");
        assert!(l1.len() < 12, "consolidation shrank the partition count");
    }

    #[test]
    fn empty_input_plans_nothing() {
        let planner = CompactionPlanner::default();
        assert!(!planner.should_compact(&[], &[]));
        assert_eq!(planner.plan(&[], &[]), None);
    }

    #[test]
    fn overlap_predicate_handles_empty_segments() {
        let a = seg(1, 10, 0, 100, (0, 50));
        let b = seg(2, 10, 0, 100, (40, 90));
        let c = seg(3, 10, 0, 100, (60, 90));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        let empty = SegmentStats::default();
        assert!(!a.overlaps(&empty));
        assert!(!empty.overlaps(&a));
        assert_eq!(empty.range(), None);
    }
}
