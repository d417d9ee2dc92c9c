//! Compaction jobs: plan, reserve, validate against the live tier, merge,
//! commit as one generation bump. Owns the staleness rules (a plan that
//! lost a race is replanned, never an error) and the background pass.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pbc_archive::{CodecSpec, SegmentConfig, SegmentReader};
use pbc_obs::Event;

use crate::commit::{segment_file_name, ColdSegment, ColdTier, UncommittedFiles};
use crate::compact::merge_segments;
use crate::error::Result;
use crate::planner::{promotion_l1, CompactionJob, KeyRange, SegmentStats, LEVEL_L1};
use crate::store::TierInner;

/// What a compaction (full [`crate::TieredStore::compact`] or one planned
/// job) reports.
#[derive(Debug, Clone, Default)]
pub struct CompactionSummary {
    /// Segments merged away (L0 inputs + L1 inputs).
    pub merged_segments: usize,
    /// L1 partitions the job produced.
    pub output_partitions: usize,
    /// Live entries surviving into the output partitions.
    pub live_entries: u64,
    /// Entries dropped because a newer segment shadowed them.
    pub shadowed_dropped: u64,
    /// Tombstones dropped (leveled jobs include everything at or below
    /// their key range, so this is every input tombstone).
    pub tombstones_dropped: u64,
}

impl TierInner {
    /// Plan the best job against current stats and reservations.
    fn plan_next(&self) -> Option<CompactionJob> {
        let (l0, l1) = self.leveled_stats();
        let reserved = self.reservations.snapshot();
        self.planner.plan(&l0, &l1, &reserved)
    }

    /// One background maintenance pass: planned compaction jobs until no
    /// trigger remains or shutdown/pause intervenes, with WAL upkeep
    /// (periodic fsync, threshold checkpoint) before each one — under
    /// steady writes the planner keeps finding jobs, and the log must
    /// stay near its checkpoint threshold meanwhile. Returns `false` when
    /// anything errored (counted; the maintenance loop backs off before
    /// retrying).
    pub(crate) fn background_pass(&self) -> bool {
        while !self.maint.is_shutdown() && !self.maint.is_paused() {
            if !self.wal_pass() {
                return false;
            }
            let Some(job) = self.plan_next() else {
                return true;
            };
            // On a lost reservation race (`Ok(None)`), replan right away:
            // the planner sees the now-claimed range and either proposes
            // disjoint work or returns `None`, so this never spins against
            // the winning compactor.
            if let Err(e) = self.run_job(&job) {
                // Keep the actual error, not just the count: the ring
                // retains what failed and why for later inspection.
                self.obs
                    .record_background_error(describe_job(&job), e.to_string());
                return false;
            }
        }
        true
    }

    pub(crate) fn run_pending_compactions(&self) -> Result<usize> {
        let mut jobs = 0usize;
        let mut lost_races = 0usize;
        // Every promotion shrinks L0 and every consolidation shrinks L1,
        // so planning converges; the caps are backstops against planner
        // bugs, not tuning knobs.
        while jobs < 1_000 && lost_races < 1_000 {
            let Some(job) = self.plan_next() else {
                break;
            };
            if self.run_job(&job)?.is_none() {
                // Another compactor reserved this range or retired these
                // inputs between our plan and our reservation. Replan:
                // the next pass sees the claimed range (and the updated
                // tier), so it finds disjoint work or cleanly runs out —
                // the documented contract is to drain every crossed
                // trigger, not to stop at the first lost race.
                lost_races += 1;
                continue;
            }
            jobs += 1;
        }
        Ok(jobs)
    }

    /// Run one planned job under a key-range reservation. Returns
    /// `Ok(None)` when the job went stale — its range is reserved by a
    /// concurrent job, or its inputs no longer match the live tier —
    /// which is not an error: the caller simply replans against current
    /// state.
    fn run_job(&self, job: &CompactionJob) -> Result<Option<CompactionSummary>> {
        let Some(_reservation) = self.reservations.try_reserve(job.range.clone()) else {
            self.obs.trace(Event::CompactionAborted {
                reason: "key range reserved by a concurrent job".into(),
            });
            return Ok(None);
        };
        self.run_job_reserved(job)
    }

    /// The reserved body of [`TierInner::run_job`]: validate the plan
    /// against the live tier, merge, and commit "retire inputs, add
    /// output partitions" as one generation bump. Caller holds the job's
    /// key-range reservation, which is what licenses every unsynchronized
    /// step here: no concurrent job can touch segments inside the range.
    fn run_job_reserved(&self, job: &CompactionJob) -> Result<Option<CompactionSummary>> {
        let snapshot = self.cold_snapshot();
        let Some((l0_run, l1_run)) = validate_job(&snapshot, job) else {
            self.obs.trace(Event::CompactionAborted {
                reason: "plan went stale: inputs no longer contiguous in the live tier".into(),
            });
            return Ok(None);
        };
        self.obs.trace(Event::CompactionPlanned {
            l0_inputs: job.l0_inputs.len(),
            l1_inputs: job.l1_inputs.len(),
            min_key: job.range.min.clone(),
            max_key: job.range.max.clone(),
        });
        // Newest-first merge rank: the L0 run in recency order, then the
        // L1 partitions (their versions are older than any L0 version of
        // the same key — the leveling invariant).
        let run = || {
            snapshot.l0[l0_run.clone()]
                .iter()
                .chain(&snapshot.l1[l1_run.clone()])
        };
        let readers: Vec<&SegmentReader> = run().map(|s| &s.reader).collect();
        let codec = self.codec.job_spec(
            run().map(|s| s.stats.records).sum(),
            snapshot.iter().map(|s| s.stats.records).sum(),
        );
        // Only committed jobs land in the histogram — aborted and failed
        // ones would skew it with durations of work that produced nothing.
        let timer = self.obs.compaction_ns.start_timer();
        let result = self.merge_and_commit(job, &readers, codec);
        match &result {
            Ok(Some(_)) => timer.observe(),
            _ => timer.cancel(),
        }
        result
    }

    /// Merge `readers` into split L1 partitions and commit the swap.
    fn merge_and_commit(
        &self,
        job: &CompactionJob,
        readers: &[&SegmentReader],
        codec: CodecSpec,
    ) -> Result<Option<CompactionSummary>> {
        let mut next_output = || {
            let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
            let name = segment_file_name(id);
            let path = self.config.dir.join(&name);
            (id, name, path)
        };
        // Consolidation jobs must merge to exactly one partition (their
        // qualifying threshold is compressed bytes; re-splitting on the
        // raw-byte boundary could re-create the small partitions the
        // planner just targeted, and it would re-plan them forever).
        let split_bytes = job
            .split_outputs
            .then(|| self.config.planner.target_partition_bytes.max(1));
        let outcome = merge_segments(
            readers,
            &SegmentConfig {
                codec: codec.clone(),
                ..self.config.segment.clone()
            },
            split_bytes,
            &self.obs.writer,
            &mut next_output,
        )?;
        // No manifest names the outputs until the publish below: every
        // early return before it removes them all.
        let mut uncommitted = UncommittedFiles::default();
        for output in &outcome.outputs {
            uncommitted.push(output.path.clone());
        }
        let replacements = outcome
            .outputs
            .iter()
            .map(|output| {
                self.open_written(
                    output.file_name.clone(),
                    SegmentStats {
                        id: output.id,
                        level: LEVEL_L1,
                        records: output.summary.record_count,
                        bytes: output.summary.file_bytes,
                        ..SegmentStats::default()
                    },
                )
            })
            .collect::<Result<Vec<_>>>()?;

        // Commit: rebuild the tier with the inputs replaced by the output
        // partitions. Concurrent spills may have prepended L0 segments and
        // disjoint jobs may have rewritten other ranges since our snapshot
        // — relocate the inputs in the *current* tier (inside our reserved
        // range nothing can have touched them; if they are gone anyway,
        // the plan was stale before we reserved). The commit lock covers
        // the slow manifest fsync; the cold write lock is held only for
        // the pointer swap, so readers never wait on the fsync.
        let (retired, generation): (Vec<Arc<ColdSegment>>, u64) = {
            let _commit = self.commit_guard();
            let current = self.cold_snapshot();
            let Some((l0_run, l1_run)) = validate_job(&current, job) else {
                self.obs.trace(Event::CompactionAborted {
                    reason: "plan went stale at commit: inputs already retired".into(),
                });
                return Ok(None);
            };
            let (mut l0, mut l1) = (current.l0.clone(), current.l1.clone());
            let retired: Vec<Arc<ColdSegment>> = l0.drain(l0_run).chain(l1.drain(l1_run)).collect();
            // The merge emits keys in ascending order, so `replacements`
            // is ascending and disjoint; splice it in at its sorted
            // position.
            if let Some(first) = replacements.first() {
                let at = l1.partition_point(|p| p.stats.max_key < first.stats.min_key);
                l1.splice(at..at, replacements.iter().cloned());
            }
            let tier = Arc::new(ColdTier { l0, l1 });
            tier.check_l1_invariant()?;
            let generation = self.publish(tier)?;
            uncommitted.disarm();
            (retired, generation)
        };

        self.unlink_retired(&retired);
        self.obs.segments_retired.add(retired.len() as u64);
        if let Some(first) = outcome.outputs.first() {
            self.codec.adopt(&codec, &first.summary.block_codec);
        }
        self.obs.compactions.inc();
        self.obs.trace(Event::CompactionCommitted {
            generation,
            inputs: retired.len(),
            outputs: outcome.outputs.len(),
            input_bytes: retired.iter().map(|s| s.stats.bytes).sum(),
            output_bytes: outcome.outputs.iter().map(|o| o.summary.file_bytes).sum(),
            live_entries: outcome.live_entries,
        });
        Ok(Some(CompactionSummary {
            merged_segments: retired.len(),
            output_partitions: outcome.outputs.len(),
            live_entries: outcome.live_entries,
            shadowed_dropped: outcome.shadowed_dropped,
            tombstones_dropped: outcome.tombstones_dropped,
        }))
    }

    /// Full merge: every segment on both levels into fresh L1 partitions,
    /// under a whole-key-space reservation (waits for in-flight jobs).
    pub(crate) fn compact(&self) -> Result<CompactionSummary> {
        let _reservation = self.reservations.reserve_blocking(KeyRange::everything());
        let snapshot = self.cold_snapshot();
        if snapshot.is_empty() {
            return Ok(CompactionSummary::default());
        }
        let job = CompactionJob {
            l0_inputs: snapshot.l0.iter().map(|s| s.stats.id).collect(),
            l1_inputs: snapshot.l1.iter().map(|s| s.stats.id).collect(),
            range: KeyRange::everything(),
            split_outputs: true,
            score: f64::INFINITY,
        };
        Ok(self.run_job_reserved(&job)?.unwrap_or_default())
    }
}

/// Human-readable job description for the background-error ring: what the
/// failing pass was merging and over which key range.
fn describe_job(job: &CompactionJob) -> String {
    format!(
        "compaction of {} L0 + {} L1 segments over [{}, {}]",
        job.l0_inputs.len(),
        job.l1_inputs.len(),
        String::from_utf8_lossy(&job.range.min),
        job.range
            .max
            .as_deref()
            .map_or("+inf".into(), String::from_utf8_lossy),
    )
}

/// Locate a job's inputs in the live tier: the L0 inputs as a contiguous
/// newest-first run, the L1 inputs as a contiguous ascending run, and the
/// planner's soundness rules still holding for them. `None` means the plan
/// went stale (another compactor got there first) — not an error.
fn validate_job(tier: &ColdTier, job: &CompactionJob) -> Option<(Range<usize>, Range<usize>)> {
    let l0_run = locate_run(&tier.l0, &job.l0_inputs)?;
    let l1_run = locate_run(&tier.l1, &job.l1_inputs)?;
    let required = promotion_l1(&tier.l0, l0_run.clone(), &tier.l1)?;
    let included =
        required.is_empty() || (l1_run.start <= required.start && required.end <= l1_run.end);
    included.then_some((l0_run, l1_run))
}

/// Find `inputs` as a contiguous run of `list` (by id); `None` when any
/// input is missing or out of order. Empty inputs locate as the empty run
/// at the front.
fn locate_run(list: &[Arc<ColdSegment>], inputs: &[u64]) -> Option<Range<usize>> {
    if inputs.is_empty() {
        return Some(0..0);
    }
    let start = list.iter().position(|s| s.stats.id == inputs[0])?;
    let end = start + inputs.len();
    if end > list.len() {
        return None;
    }
    list[start..end]
        .iter()
        .zip(inputs)
        .all(|(s, &id)| s.stats.id == id)
        .then_some(start..end)
}
