//! Compaction jobs: plan and merge from one snapshot, commit as one
//! generation bump, all under the one `compactor` lock; and the
//! background pass that runs them.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pbc_archive::{CodecSpec, SegmentConfig, SegmentReader};
use pbc_obs::Event;

use crate::commit::{ColdSegment, ColdTier, UncommittedFiles};
use crate::compact::merge_segments;
use crate::error::{Result, TierError};
use crate::manifest::segment_file_name;
use crate::planner::{promotion_l1, CompactionJob, KeyRange, LEVEL_L1};
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
    /// Plan the best job over `cold`, the snapshot the job will merge.
    fn plan_next(&self, cold: &ColdTier) -> Option<CompactionJob> {
        let (l0, l1) = cold.leveled_stats();
        self.planner.plan(&l0, &l1)
    }

    /// One background maintenance pass: planned compaction jobs until no
    /// trigger remains or shutdown/pause intervenes, with WAL upkeep
    /// (periodic fsync, threshold checkpoint) before each one — under
    /// steady writes the planner keeps finding jobs, and the log must
    /// stay near its checkpoint threshold meanwhile. Each round holds the
    /// `compactor` lock and checks the pause under it (see
    /// [`crate::maintenance`]). Returns `false` when anything errored
    /// (counted; the maintenance loop backs off before retrying).
    pub(crate) fn background_pass(&self) -> bool {
        loop {
            let _compactor = self.compactor_guard();
            if self.maint.is_shutdown() || self.maint.is_paused() {
                return true;
            }
            if !self.wal_pass() {
                return false;
            }
            let cold = self.cold_snapshot();
            let Some(job) = self.plan_next(&cold) else {
                return true;
            };
            if let Err(e) = self.run_job(&cold, &job) {
                // Keep the actual error, not just the count: the ring
                // retains what failed and why for later inspection.
                self.obs
                    .record_background_error(describe_job(&job), e.to_string());
                return false;
            }
        }
    }

    pub(crate) fn run_pending_compactions(&self) -> Result<usize> {
        // A running compactor works through the same triggers; waiting
        // out its job would only delay the caller.
        let Some(_compactor) = self.try_compactor_guard() else {
            return Ok(0);
        };
        // Drain the backlog found at entry: a writer spilling meanwhile
        // would otherwise keep a trigger crossed for as long as it
        // writes. Promotions of only those later spills are left to the
        // next call; consolidations still run.
        let first_later_id = self.next_segment_id.load(Ordering::Relaxed);
        let mut jobs = 0usize;
        // Every promotion shrinks L0 and every consolidation shrinks L1,
        // so planning converges; the cap is a backstop against planner
        // bugs, not a tuning knob.
        while jobs < 1_000 {
            let cold = self.cold_snapshot();
            let Some(job) = self.plan_next(&cold) else {
                break;
            };
            let only_later =
                !job.l0_inputs.is_empty() && job.l0_inputs.iter().all(|&id| id >= first_later_id);
            if only_later {
                break;
            }
            self.run_job(&cold, &job)?;
            jobs += 1;
        }
        Ok(jobs)
    }

    /// Merge `job`'s inputs, taken from `cold` (the snapshot it was
    /// planned from), and commit "retire inputs, add output partitions"
    /// as one generation bump. Caller holds the `compactor` lock, so no
    /// other job can have touched the inputs since the plan.
    fn run_job(&self, cold: &ColdTier, job: &CompactionJob) -> Result<CompactionSummary> {
        self.obs.trace(Event::CompactionPlanned {
            l0_inputs: job.l0_inputs.len(),
            l1_inputs: job.l1_inputs.len(),
            min_key: job.range.min.clone(),
            max_key: job.range.max.clone(),
        });
        // Newest-first merge rank: the L0 run in recency order, then the
        // L1 partitions (their versions are older than any L0 version of
        // the same key — the leveling invariant). `cold.iter()` walks
        // exactly that order.
        let inputs: Vec<&Arc<ColdSegment>> = cold
            .iter()
            .filter(|s| job.input_ids().any(|id| id == s.stats.id))
            .collect();
        let readers: Vec<&SegmentReader> = inputs.iter().map(|s| &s.reader).collect();
        let codec = self.codec.job_spec(
            inputs.iter().map(|s| s.stats.records).sum(),
            cold.iter().map(|s| s.stats.records).sum(),
        );
        // Only committed jobs land in the histogram — failed ones would
        // skew it with durations of work that produced nothing.
        let timer = self.obs.compaction_ns.start_timer();
        let result = self.merge_and_commit(job, &readers, codec);
        match &result {
            Ok(_) => timer.observe(),
            Err(_) => timer.cancel(),
        }
        result
    }

    /// Merge `readers` into split L1 partitions and commit the swap.
    fn merge_and_commit(
        &self,
        job: &CompactionJob,
        readers: &[&SegmentReader],
        codec: CodecSpec,
    ) -> Result<CompactionSummary> {
        let mut next_output = || {
            let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
            (id, self.config.dir.join(segment_file_name(id)))
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
            .map(|output| ColdSegment::open(&self.config, &self.obs, output.id, LEVEL_L1))
            .collect::<Result<Vec<_>>>()?;

        // Commit: rebuild the tier with the inputs replaced by the output
        // partitions. Spills may have prepended L0 segments since our
        // snapshot, so relocate the inputs in the *current* tier; nothing
        // else changes the segment set while we hold the `compactor`
        // lock, so inputs that cannot be found are a broken invariant.
        // The commit lock covers the slow manifest fsync; the cold write
        // lock is held only for the pointer swap, so readers never wait
        // on the fsync.
        let (retired, generation): (Vec<Arc<ColdSegment>>, u64) = {
            let _commit = self.commit_guard();
            let current = self.cold_snapshot();
            let (l0_run, l1_run) = locate_inputs(&current, job)?;
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
            output_bytes: replacements.iter().map(|s| s.stats.bytes).sum(),
            live_entries: outcome.live_entries,
        });
        Ok(CompactionSummary {
            merged_segments: retired.len(),
            output_partitions: outcome.outputs.len(),
            live_entries: outcome.live_entries,
            shadowed_dropped: outcome.shadowed_dropped,
            tombstones_dropped: outcome.tombstones_dropped,
        })
    }

    /// Full merge: every segment on both levels into fresh L1 partitions,
    /// with the maintenance thread paused (waits for an in-flight job).
    pub(crate) fn compact(&self) -> Result<CompactionSummary> {
        let _compactor = self.caller_compactor();
        let cold = self.cold_snapshot();
        if cold.is_empty() {
            return Ok(CompactionSummary::default());
        }
        let job = CompactionJob {
            l0_inputs: cold.l0.iter().map(|s| s.stats.id).collect(),
            l1_inputs: cold.l1.iter().map(|s| s.stats.id).collect(),
            range: KeyRange::everything(),
            split_outputs: true,
            score: f64::INFINITY,
        };
        self.run_job(&cold, &job)
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
/// planner's soundness rules still holding for them. Spills only prepend
/// L0 segments, so this fails only on a broken invariant.
fn locate_inputs(tier: &ColdTier, job: &CompactionJob) -> Result<(Range<usize>, Range<usize>)> {
    let located = || {
        let l0_run = locate_run(&tier.l0, &job.l0_inputs)?;
        let l1_run = locate_run(&tier.l1, &job.l1_inputs)?;
        let required = promotion_l1(&tier.l0, l0_run.clone(), &tier.l1)?;
        let included =
            required.is_empty() || (l1_run.start <= required.start && required.end <= l1_run.end);
        included.then_some((l0_run, l1_run))
    };
    located().ok_or_else(|| TierError::ManifestCorrupt {
        context: format!("compaction inputs no longer in place at commit: {job}"),
    })
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
