//! Spilling. Owns victim choice (coldest shards by access epoch), the five
//! ordered steps that move them into one new L0 segment with no window
//! where acknowledged data is unreadable, and the failed-spill restore.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pbc_archive::{CodecSpec, SegmentConfig, SegmentSummary, SegmentWriter};
use pbc_obs::Event;

use crate::commit::{
    encode_live, encode_tombstone, segment_file_name, ColdSegment, ColdTier, UncommittedFiles,
};
use crate::error::Result;
use crate::planner::{SegmentStats, LEVEL_L0};
use crate::store::{Staging, TierInner};

/// How much one [`TierInner::spill`] call evicts.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpillScope {
    /// Only if the hot tier is over the watermark, and then down to the
    /// spill target (what every write asks for).
    ToTarget,
    /// The `n` coldest non-empty shards, watermark or not (`usize::MAX`:
    /// every hot entry and tombstone — flush, WAL checkpoint).
    Coldest(usize),
}

/// RAII setter for [`TierInner::spill_active`]: armed right after the
/// `spill_lock` is taken, cleared on every exit path (including spill
/// errors). Spills are serialized by that lock, so arming is never nested.
struct SpillActiveGuard<'a>(&'a AtomicBool);

impl<'a> SpillActiveGuard<'a> {
    fn arm(flag: &'a AtomicBool) -> Self {
        flag.store(true, Ordering::Relaxed);
        SpillActiveGuard(flag)
    }
}

impl Drop for SpillActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

impl TierInner {
    /// Evict the coldest shards (by last-access epoch) into a segment, as
    /// far as `scope` says. The one spill entry point: every caller
    /// serializes on `spill_lock` here (staging is a single shared area).
    pub(crate) fn spill(&self, scope: SpillScope) -> Result<()> {
        let over = || self.memory_usage_bytes() > self.config.memory_watermark_bytes;
        if scope == SpillScope::ToTarget && !over() {
            return Ok(());
        }
        let _guard = self.spill_guard();
        let _active = SpillActiveGuard::arm(&self.spill_active);
        if let SpillScope::Coldest(n) = scope {
            let mut victims = self.shards_coldest_first();
            victims.truncate(n);
            return self.spill_shards(&victims);
        }
        // Re-check: another thread may have spilled while we waited.
        while over() {
            let victims = self.pick_victims(self.config.spill_target_bytes());
            if victims.is_empty() {
                break;
            }
            self.spill_shards(&victims)?;
        }
        Ok(())
    }

    /// Non-empty shards ordered coldest (smallest access epoch) first.
    fn shards_coldest_first(&self) -> Vec<usize> {
        let mut shards: Vec<(u64, usize)> = (0..self.hot.shard_count())
            .filter(|&idx| {
                self.hot.shard_memory_bytes(idx) + self.hot.shard_tombstone_bytes(idx) > 0
            })
            .map(|idx| (self.hot.shard_access_epoch(idx), idx))
            .collect();
        shards.sort_unstable();
        shards.into_iter().map(|(_, idx)| idx).collect()
    }

    /// Coldest shards whose eviction brings usage down to `target_bytes`.
    fn pick_victims(&self, target_bytes: u64) -> Vec<usize> {
        let mut victims = Vec::new();
        let mut projected = self.memory_usage_bytes();
        for idx in self.shards_coldest_first() {
            if projected <= target_bytes && !victims.is_empty() {
                break;
            }
            projected = projected.saturating_sub(
                self.hot.shard_memory_bytes(idx) + self.hot.shard_tombstone_bytes(idx),
            );
            victims.push(idx);
        }
        victims
    }

    /// Drain `victims` into one new L0 segment and commit it.
    ///
    /// Ordering is what makes this crash-safe: (1) drained entries become
    /// readable via staging before the shard locks release, (2) the segment
    /// is written and fsynced, (3) the manifest swaps atomically under the
    /// next generation, (4) the reader is published, (5) staging clears. A
    /// failure after (1) puts the drained data back into the hot tier. A
    /// no-op when there are no victims (the hot tier is empty).
    fn spill_shards(&self, victims: &[usize]) -> Result<()> {
        if victims.is_empty() {
            return Ok(());
        }
        let timer = self.obs.spill_ns.start_timer();
        self.obs.trace(Event::SpillStarted {
            shards: victims.len(),
        });
        // (1) Drain *into* staging under its write lock: a concurrent
        // reader that missed the hot tier blocks on staging until the
        // drain finishes. Staging (a sorted map) is the one and only copy
        // of the drained data — the segment writer streams straight from
        // it, so a spill never doubles the memory it is trying to free.
        let (staged_count, tombstones) = {
            let mut staging = self.staging_write();
            debug_assert!(staging.is_empty(), "spills are serialized");
            let drained = victims
                .iter()
                .try_for_each(|&idx| self.hot.take_shard(idx).map(|slots| staging.extend(slots)));
            if let Err(e) = drained {
                drop(staging);
                self.restore_staging_to_hot();
                return Err(e.into());
            }
            // A slot is a value or a tombstone, never both, so the `None`s
            // are exactly this segment's tombstone count.
            let tombstones = staging.values().filter(|v| v.is_none()).count();
            (staging.len() as u64, tombstones as u64)
        };
        if staged_count == 0 {
            timer.cancel();
            return Ok(());
        }

        // (2)–(4), or the data goes back where it came from.
        let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
        let segment = match self.commit_staged(id, staged_count, tombstones) {
            Ok(segment) => segment,
            Err(e) => {
                self.restore_staging_to_hot();
                return Err(e);
            }
        };

        // (5) The data is durable and readable from cold; staging retires.
        self.staging_write().clear();
        self.obs.spills.inc();
        self.obs.spilled_entries.add(staged_count);
        self.obs.trace(Event::SpillFinished {
            segment_id: id,
            records: staged_count - tombstones,
            tombstones,
            bytes: segment.stats.bytes,
        });
        timer.observe();
        // A new segment may have crossed a planner threshold — let the
        // maintenance thread check without waiting for its tick.
        self.maint.notify();
        Ok(())
    }

    /// Spill steps (2)–(4): write staging out as segment `id`, open it,
    /// and commit it as the newest L0 segment. On `Err` the file is gone
    /// and nothing was published.
    fn commit_staged(&self, id: u64, records: u64, tombstones: u64) -> Result<Arc<ColdSegment>> {
        let file_name = segment_file_name(id);
        let path = self.config.dir.join(&file_name);
        let mut uncommitted = UncommittedFiles::default();
        uncommitted.push(path.clone());
        // (2) Write and fsync the segment, streaming from staging under a
        // read guard (concurrent gets still read staging freely).
        let codec = self.codec.spill_spec();
        let summary = self.write_spill_segment(&path, codec.clone(), &self.staging_read())?;
        let segment = self.open_written(
            file_name,
            SegmentStats {
                id,
                level: LEVEL_L0,
                records,
                tombstones,
                bytes: summary.file_bytes,
                ..SegmentStats::default()
            },
        )?;
        // (3) + (4) Swap the manifest under the next generation, then
        // publish the new tier. The commit lock (not the cold write lock)
        // covers the slow manifest fsync; the successor tier cannot go
        // stale in between because every segment-set mutation commits
        // under this same lock.
        let _commit = self.commit_guard();
        let current = self.cold_snapshot();
        let mut l0 = vec![Arc::clone(&segment)];
        l0.extend(current.l0.iter().cloned());
        self.publish(Arc::new(ColdTier {
            l0,
            l1: current.l1.clone(),
        }))?;
        uncommitted.disarm();
        self.codec.adopt(&codec, &summary.block_codec);
        Ok(segment)
    }

    fn write_spill_segment(
        &self,
        path: &Path,
        codec: CodecSpec,
        merged: &Staging,
    ) -> Result<SegmentSummary> {
        let config = SegmentConfig {
            codec,
            ..self.config.segment.clone()
        };
        let mut writer = SegmentWriter::create_with_obs(path, config, self.obs.writer.clone())?;
        for (key, value) in merged {
            match value {
                Some(value) => writer.append(key, &encode_live(value))?,
                // Flagged, so the footer (and from it the planner) can
                // count this segment's dead entries without decoding.
                None => writer.append_flagged(key, &encode_tombstone())?,
            }
        }
        Ok(writer.finish()?)
    }

    /// Undo a failed spill: move staged entries and tombstones back into
    /// the hot tier, each only into a slot that is still empty — a value
    /// or a tombstone written *while* the spill ran was acknowledged after
    /// the drained copy and must be neither overwritten nor resurrected
    /// over.
    fn restore_staging_to_hot(&self) {
        let mut staging = self.staging_write();
        for (key, value) in std::mem::take(&mut *staging) {
            self.hot.restore(&key, value.as_deref());
        }
    }
}
