//! Compaction jobs: plan and merge from one snapshot, commit as one
//! generation bump, all under the one `compactor` lock; and the
//! background pass that runs them.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pbc_archive::CodecSpec;
use pbc_obs::Event;

use crate::commit::{is_tombstone, ColdSegment, ColdTier, Edit, RunWriter};
use crate::error::Result;
use crate::merge::{Fetch, Head, Merge, Source};
use crate::planner::{CompactionJob, KeyRange, LEVEL_L1};
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
        // Newest-first merge rank: each L0 input its own source, in
        // recency order, then the L1 inputs as one chain (their versions
        // are older than any L0 version of the same key — the leveling
        // invariant — and they are disjoint and ascending). Every input is
        // read whole.
        let is_input = |s: &&Arc<ColdSegment>| job.input_ids().any(|id| id == s.stats.id);
        let everything: Arc<[u8]> = Arc::default();
        let chain = |pending: VecDeque<Arc<ColdSegment>>| {
            Source::chain(pending, Arc::clone(&everything), None, Fetch::Direct)
        };
        let mut sources: Vec<Source<'_>> = cold
            .l0
            .iter()
            .filter(is_input)
            .map(|s| chain(VecDeque::from([Arc::clone(s)])))
            .collect();
        sources.push(chain(cold.l1.iter().filter(is_input).cloned().collect()));
        let codec = self.codec.job_spec(
            cold.iter().filter(is_input).map(|s| s.stats.records).sum(),
            cold.iter().map(|s| s.stats.records).sum(),
        );
        // Only committed jobs land in the histogram — failed ones would
        // skew it with durations of work that produced nothing.
        let timer = self.obs.compaction_ns.start_timer();
        let result = self.merge_and_commit(job, sources, codec);
        match &result {
            Ok(_) => timer.observe(),
            Err(_) => timer.cancel(),
        }
        result
    }

    /// Merge `sources` into split L1 partitions and commit the swap.
    fn merge_and_commit(
        &self,
        job: &CompactionJob,
        sources: Vec<Source<'_>>,
        codec: CodecSpec,
    ) -> Result<CompactionSummary> {
        // Consolidation jobs must merge to exactly one partition (their
        // qualifying threshold is compressed bytes; re-splitting on the
        // raw-byte boundary could re-create the small partitions the
        // planner just targeted, and it would re-plan them forever).
        let split_bytes = job
            .split_outputs
            .then(|| self.config.planner.target_partition_bytes.max(1));
        let mut run = RunWriter::new(self, LEVEL_L1, codec, split_bytes);
        let mut merge = Merge::new(sources)?;
        let mut summary = CompactionSummary::default();
        // Tombstones are dropped: a job includes every segment that could
        // hold an older version of its keys, so L1 never stores one.
        while let Some((key, head)) = merge.head() {
            match head {
                Head::Cold(stored) if !is_tombstone(stored) => {
                    run.append(key, stored, false)?;
                    summary.live_entries += 1;
                }
                // A job merges cold sources only: anything else here is a
                // tombstone.
                _ => summary.tombstones_dropped += 1,
            }
            summary.shadowed_dropped += merge.step()?;
        }
        let committed = self.commit(run.finish()?, Edit::Job(job))?;

        let retired = &committed.retired;
        self.unlink_retired(retired);
        self.obs.segments_retired.add(retired.len() as u64);
        self.obs.compactions.inc();
        self.obs.trace(Event::CompactionCommitted {
            generation: committed.generation,
            inputs: retired.len(),
            outputs: committed.segments.len(),
            input_bytes: retired.iter().map(|s| s.stats.bytes).sum(),
            output_bytes: committed.segments.iter().map(|s| s.stats.bytes).sum(),
            live_entries: summary.live_entries,
        });
        summary.merged_segments = retired.len();
        summary.output_partitions = committed.segments.len();
        Ok(summary)
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
