//! Spilling. Owns victim choice (coldest shards by access epoch) and the
//! four ordered steps that write them into one new L0 segment: copy, write,
//! publish, then evict what did not change. The hot tier is never touched
//! before the segment is published, so there is no window where
//! acknowledged data is unreadable and nothing to put back on failure.

use std::sync::atomic::Ordering;

use pbc_obs::Event;
use pbc_store::RangeSnapshot;

use crate::commit::{encode_live, encode_tombstone, Edit, Run, RunWriter};
use crate::error::Result;
use crate::planner::LEVEL_L0;
use crate::store::TierInner;

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

impl TierInner {
    /// Evict the coldest shards (by last-access epoch) into a segment, as
    /// far as `scope` says. The one spill entry point: every caller
    /// serializes on `spill_lock` here (one in-flight copy at a time).
    pub(crate) fn spill(&self, scope: SpillScope) -> Result<()> {
        let over = || self.memory_usage_bytes() > self.config.memory_watermark_bytes;
        if scope == SpillScope::ToTarget && !over() {
            return Ok(());
        }
        let _guard = self.spill_guard();
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

    /// Write `victims` into one new L0 segment, commit it, and evict what
    /// it wrote.
    ///
    /// Ordering is what makes this crash-safe and loses nothing: (1) copy
    /// the victims (the hot cut; values shared, not copied) and count its
    /// bytes as in flight, (2) write and fsync the segment from the copy,
    /// (3) swap the manifest under the next generation and publish the
    /// reader, (4) evict every copied slot no write has replaced since. A
    /// key leaves the hot tier only once a published segment holds it, so
    /// a reader that misses hot finds it cold. A failure before (4)
    /// leaves the hot tier as it was. A no-op when there are no victims
    /// (the hot tier is empty).
    fn spill_shards(&self, victims: &[usize]) -> Result<()> {
        if victims.is_empty() {
            return Ok(());
        }
        let timer = self.obs.spill_ns.start_timer();
        self.obs.trace(Event::SpillStarted {
            shards: victims.len(),
        });
        // (1) The copy. Its bytes stop counting toward the watermark: a
        // writer that crosses it now must not wait for this spill.
        let copy = self.hot.snapshot_shards(victims);
        if copy.is_empty() {
            timer.cancel();
            return Ok(());
        }
        self.spilling_bytes
            .store(copy.accounted_bytes(), Ordering::Relaxed);

        // (2) + (3), then (4) only once the segment is published. The
        // commit (3) takes the commit lock, builds the successor tier
        // with the new segment first, and swaps the manifest.
        let committed = self
            .write_copy(&copy)
            .and_then(|run| self.commit(run, Edit::Spill));
        if committed.is_ok() {
            self.hot.evict_unchanged(&copy);
        }
        self.spilling_bytes.store(0, Ordering::Relaxed);
        let committed = committed?;

        self.obs.spills.inc();
        // One segment: the copy is not empty.
        for segment in &committed.segments {
            let stats = &segment.stats;
            self.obs.spilled_entries.add(stats.records);
            self.obs.trace(Event::SpillFinished {
                segment_id: stats.id,
                records: stats.records - stats.tombstones,
                tombstones: stats.tombstones,
                bytes: stats.bytes,
            });
        }
        timer.observe();
        // A new segment may have crossed a planner threshold — let the
        // maintenance thread check without waiting for its tick.
        self.maint.notify();
        Ok(())
    }

    /// Spill step (2): write and fsync `copy` as one L0 segment, decoding
    /// hot-codec values as it goes. Tombstones are flagged, so the footer
    /// (and from it the planner) counts the segment's dead entries
    /// without decoding.
    fn write_copy(&self, copy: &RangeSnapshot) -> Result<Run> {
        let mut run = RunWriter::new(self, LEVEL_L0, self.codec.spill_spec(), None);
        for (key, stored) in copy.iter() {
            match stored {
                Some(stored) => run.append(key, &encode_live(&self.hot.decode(stored)?), false)?,
                None => run.append(key, &encode_tombstone(), true)?,
            }
        }
        run.finish()
    }
}
