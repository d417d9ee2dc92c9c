//! Spilling. Owns victim choice (coldest shards by access epoch) and the
//! four ordered steps that write them into one new L0 segment: copy, write,
//! publish, then evict what did not change. The hot tier is never touched
//! before the segment is published, so there is no window where
//! acknowledged data is unreadable and nothing to put back on failure.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pbc_archive::{CodecSpec, SegmentConfig, SegmentSummary, SegmentWriter};
use pbc_obs::Event;
use pbc_store::RangeSnapshot;

use crate::commit::{encode_live, encode_tombstone, ColdSegment, ColdTier, UncommittedFiles};
use crate::error::Result;
use crate::manifest::segment_file_name;
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

        // (2) + (3), then (4) only once the segment is published.
        let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
        let committed = self.commit_copy(id, &copy);
        if committed.is_ok() {
            self.hot.evict_unchanged(&copy);
        }
        self.spilling_bytes.store(0, Ordering::Relaxed);
        let segment = committed?;

        let stats = &segment.stats;
        self.obs.spills.inc();
        self.obs.spilled_entries.add(stats.records);
        self.obs.trace(Event::SpillFinished {
            segment_id: id,
            records: stats.records - stats.tombstones,
            tombstones: stats.tombstones,
            bytes: stats.bytes,
        });
        timer.observe();
        // A new segment may have crossed a planner threshold — let the
        // maintenance thread check without waiting for its tick.
        self.maint.notify();
        Ok(())
    }

    /// Spill steps (2)–(3): write `copy` out as segment `id`, open it, and
    /// commit it as the newest L0 segment. On `Err` the file is gone and
    /// nothing was published.
    fn commit_copy(&self, id: u64, copy: &RangeSnapshot) -> Result<Arc<ColdSegment>> {
        let path = self.config.dir.join(segment_file_name(id));
        let mut uncommitted = UncommittedFiles::default();
        uncommitted.push(path.clone());
        // (2) Write and fsync the segment, streaming from the copy.
        let codec = self.codec.spill_spec();
        let summary = self.write_spill_segment(&path, codec.clone(), copy)?;
        let segment = ColdSegment::open(&self.config, &self.obs, id, LEVEL_L0)?;
        // (3) Swap the manifest under the next generation, then publish
        // the new tier. The commit lock (not the cold write lock) covers
        // the slow manifest fsync; the successor tier cannot go stale in
        // between because every segment-set mutation commits under this
        // same lock.
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

    /// Stream `copy` into a new segment at `path`, decoding hot-codec
    /// values as it goes.
    fn write_spill_segment(
        &self,
        path: &Path,
        codec: CodecSpec,
        copy: &RangeSnapshot,
    ) -> Result<SegmentSummary> {
        let config = SegmentConfig {
            codec,
            ..self.config.segment.clone()
        };
        let mut writer = SegmentWriter::create_with_obs(path, config, self.obs.writer.clone())?;
        for (key, stored) in copy.iter() {
            match stored {
                Some(stored) => {
                    let value = self.hot.decode(stored)?;
                    writer.append(key, &encode_live(&value))?;
                }
                // Flagged, so the footer (and from it the planner) can
                // count this segment's dead entries without decoding.
                None => writer.append_flagged(key, &encode_tombstone())?,
            }
        }
        Ok(writer.finish()?)
    }
}
