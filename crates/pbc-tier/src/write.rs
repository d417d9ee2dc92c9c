//! The write path and its log. Owns the rule that a `set`/`delete` is one
//! hot-tier step atomic with its WAL append (same-key operations apply in
//! LSN order), plus WAL recovery, checkpoints and log upkeep.

use std::sync::atomic::Ordering;

use pbc_store::TierStore;
use pbc_wal::{CheckpointSummary, RecoveryReport, ReplayOp, Wal, WalConfig};

use crate::config::TierConfig;
use crate::error::Result;
use crate::obs::TierObs;
use crate::read::InMemory;
use crate::spill::SpillScope;
use crate::store::TierInner;

/// Recover the WAL (if configured) straight into the fresh hot tier,
/// before any reads or writes exist. Only records past the last
/// checkpoint whose manifest `generation` was just loaded are replayed —
/// everything older is already in the segments.
pub(crate) fn open_wal(
    config: &TierConfig,
    obs: &TierObs,
    generation: u64,
    hot: &TierStore,
) -> Result<(Option<Wal>, Option<RecoveryReport>)> {
    let Some(options) = &config.wal else {
        return Ok((None, None));
    };
    let wal_config = WalConfig::new(config.dir.join("wal"))
        .with_shards(options.shards)
        .with_segment_bytes(options.segment_bytes)
        .with_durability(options.durability);
    // The same two hot-tier steps the write path logged, in LSN order, so
    // replay converges to the pre-crash slots.
    let (wal, report) = Wal::open(wal_config, obs.wal_obs(), generation, |op| match op {
        ReplayOp::Put { key, value } => {
            hot.set(key, value);
        }
        ReplayOp::Delete { key } => {
            hot.tombstone(key);
        }
    })?;
    Ok((Some(wal), Some(report)))
}

impl TierInner {
    pub(crate) fn set(&self, key: &[u8], value: &[u8]) -> Result<usize> {
        // Put latency includes any watermark spill the write triggers —
        // that stall is the write's real cost, so it belongs in the tail.
        let _timer = self.obs.put_ns.start_timer();
        // The live value replaces whatever the hot slot held, tombstone
        // included, in one step: a concurrent delete's tombstone lands
        // wholly before it (and is replaced) or wholly after it (and
        // shadows it) — never half-erased with an older cold value
        // resurrected.
        //
        // With a WAL, the hot-tier mutation runs inside the append's
        // critical section (under the key's WAL shard lock), so same-key
        // operations apply to the hot tier in exactly their LSN order —
        // without that, a concurrent set/delete pair could apply in one
        // order but log in the other, and replay would contradict the
        // acknowledged pre-crash state. The mutation still precedes the
        // LSN assignment inside that section, which keeps checkpoint
        // marks safe: every record at or below a captured mark is
        // already in the hot tier. A crash between the two loses only a
        // write that was never acknowledged.
        let stored = match &self.wal {
            Some(wal) => {
                wal.append_put_with(key, value, || self.hot.set(key, value))?
                    .0
            }
            None => self.hot.set(key, value),
        };
        self.spill(SpillScope::ToTarget)?;
        Ok(stored)
    }

    pub(crate) fn delete(&self, key: &[u8]) -> Result<bool> {
        let _timer = self.obs.delete_ns.start_timer();
        // Read-only probe first: is there a live version anywhere? The
        // staging read and the cold lookup can do I/O, so none of this
        // runs under the WAL shard lock taken for the step below. A delete
        // that finds nothing removes nothing and is not logged.
        let exists = match self.memory_lookup(key)? {
            InMemory::Hot(newest) | InMemory::Staged(newest) => newest.is_some(),
            InMemory::Absent => self.cold_get(key)?.is_some(),
        };
        if !exists {
            return Ok(false);
        }
        // Then one hot-tier step: whatever the slot holds *now* becomes a
        // tombstone. The hot copy is never gone before its tombstone is in
        // place, so a racing get sees the value or the tombstone, never an
        // empty slot it would fall through to an older cold version. The
        // tombstone is unconditional — if the probe saw the key in hot and
        // a spill drained it meanwhile, the staged or cold copy still has
        // to be shadowed — and only a racing delete that got there first
        // (the slot already is a tombstone) makes this one a no-op.
        //
        // With a WAL, the step and the append run as one atomic step
        // under the key's WAL shard lock (same reasoning as `set`:
        // application order must equal LSN order for same-key ops, and
        // the mutation preceding the LSN assignment keeps checkpoint
        // marks safe). Only deletes that changed the slot are logged.
        let step = || {
            let deleted = self.hot.tombstone(key);
            (deleted, deleted)
        };
        let deleted = match &self.wal {
            Some(wal) => wal.append_delete_with(key, step)?.0,
            None => step().0,
        };
        // Tombstones count toward the watermark, so a delete-heavy
        // workload must be able to spill them too.
        self.spill(SpillScope::ToTarget)?;
        Ok(deleted)
    }

    /// Checkpoint the WAL: capture per-shard marks, spill everything the
    /// marks cover (every record at or below a mark is already in the hot
    /// tier — writes mutate hot before they append), then write durable
    /// markers stamped with the manifest generation that made the spill
    /// visible and delete the sealed segments the marks fully cover.
    /// `Ok(None)` when the store runs without a WAL.
    pub(crate) fn checkpoint_wal(&self) -> Result<Option<CheckpointSummary>> {
        let Some(wal) = &self.wal else {
            return Ok(None);
        };
        let marks = wal.capture_marks();
        self.spill(SpillScope::Coldest(usize::MAX))?;
        // Read the generation *after* the flush: it is the generation
        // whose manifest references every spilled record, so recovery
        // trusts the marker exactly when that data is visible.
        let generation = self.generation.load(Ordering::SeqCst);
        Ok(Some(wal.checkpoint(&marks, generation)?))
    }

    /// WAL maintenance: the periodic-durability fsync tick, plus an
    /// automatic checkpoint once the log crosses its configured size
    /// threshold. Returns `false` when something failed (counted and
    /// retained like any background error).
    pub(crate) fn wal_pass(&self) -> bool {
        let Some(wal) = &self.wal else {
            return true;
        };
        if let Err(e) = wal.tick() {
            self.obs
                .record_background_error("wal periodic sync".into(), e.to_string());
            return false;
        }
        let threshold = self
            .config
            .wal
            .as_ref()
            .map_or(u64::MAX, |w| w.checkpoint_bytes);
        if wal.stats().bytes >= threshold {
            if let Err(e) = self.checkpoint_wal() {
                self.obs
                    .record_background_error("wal checkpoint".into(), e.to_string());
                return false;
            }
        }
        true
    }
}
