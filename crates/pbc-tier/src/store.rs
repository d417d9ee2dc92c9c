//! The tiered store: hot sharded memory over a two-level cold tier.
//!
//! Writes land in a hot [`TierStore`]; when its accounted bytes cross the
//! configured watermark, the coldest shards (by last-access epoch) are
//! copied and written to a `pbc-archive` segment, the manifest is swapped
//! atomically, and only then are the copied slots no write has replaced
//! evicted. Reads go hot (a live value or a tombstone answers; only an
//! empty slot falls through) → record/block cache → **L0** spill segments
//! newest-first → the single **L1** partition covering the key, so
//! overwrites and deletes always win over older spilled state.
//!
//! ## Levels
//!
//! The cold tier is leveled (see [`crate::planner`]): L0 holds spill
//! segments in recency order (they may overlap), L1 holds sorted,
//! pairwise non-overlapping key partitions produced by compaction jobs.
//! Worst-case cold lookups cost O(L0) + O(log L1) instead of
//! O(segments).
//!
//! ## Ownership of cold data
//!
//! The live segment set is published as an immutable snapshot
//! (`Arc<ColdTier>`): readers clone the `Arc` and walk it without holding
//! any lock, so a compaction job can retire segments mid-read — the
//! retired readers (and, on unix, their unlinked files) stay alive until
//! the last in-flight read drops its snapshot. Spills and compaction jobs
//! run concurrently, and **multiple compaction jobs run concurrently with
//! each other** when their key ranges are disjoint: instead of one global
//! compaction lock, each job reserves its key interval in a reservation
//! table for the duration of the merge. Every change to the segment set
//! still commits through one generation-stamped manifest swap under a
//! dedicated commit lock, with the set's write lock held only for the
//! final pointer swap — so readers never wait out a manifest fsync.
//!
//! ## Crash safety
//!
//! The durable state is the manifest plus the segments it names. Spills
//! write and fsync the new segment *before* the manifest swap, and the swap
//! is write-temp + rename; a crash mid-spill leaves the previous manifest
//! intact and at worst an orphaned half-segment, swept on reopen. A
//! compaction job commits "retire the inputs, add the output partitions"
//! as a single generation bump: a crash before the rename replays as the
//! old generation plus orphaned outputs, a crash after it as the new
//! generation plus orphaned inputs — reopen sweeps either. A *failed*
//! (not crashed) commit sweeps its own `MANIFEST.tmp` and output files
//! immediately. Hot (in-memory) data is acknowledged as volatile until
//! spilled — the same contract as any memory-tier cache;
//! [`TieredStore::flush_all`] spills everything for a clean shutdown.
//!
//! ## Which file owns which decision
//!
//! * `read.rs` — lookup precedence, the cache read-through, scan snapshots;
//!   `write.rs` — `set`/`delete` atomic with their WAL append, checkpoints.
//! * `spill.rs` — victim choice, the four spill steps (copy, write,
//!   publish, evict what did not change).
//! * `jobs.rs` — planning, plan staleness, merge + commit of one job;
//!   `reservation.rs` — which jobs may run together.
//! * `commit.rs` — what a segment is, the `MANIFEST` + `cold` swap, the
//!   value marker, cleanup of files no manifest names; `codec.rs` — which
//!   block codec spills and jobs write with.

use std::ops::RangeBounds;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use pbc_obs::{MetricsRegistry, TraceEvent};
use pbc_store::TierStore;
use pbc_wal::{CheckpointSummary, RecoveryReport, Wal, WalStats};

use crate::cache::BlockCache;
use crate::codec::TierCodec;
use crate::commit::{sweep_orphans, ColdList, ColdSegment, ColdTier};
use crate::config::TierConfig;
use crate::error::{Result, TierError};
pub use crate::jobs::CompactionSummary;
use crate::maintenance::{maintenance_loop, MaintSignal};
use crate::manifest::Manifest;
pub use crate::obs::TierStats;
use crate::obs::{BackgroundErrorRecord, TierObs};
use crate::planner::{CompactionPlanner, SegmentStats};
use crate::reservation::ReservationTable;
use crate::spill::SpillScope;
use crate::write::open_wal;

/// A lock-free snapshot of the signals a serving front end's admission
/// control reads on every write ([`TieredStore::write_pressure`]).
///
/// Everything here comes from atomics — the hot tier's byte counters, a
/// mirror of the committed L0 segment count refreshed at every manifest
/// commit, and the spill-in-progress flag — so sampling it on the hot
/// write path never touches the `cold` read lock and never contends
/// with a commit's pointer swap.
#[derive(Debug, Clone, Copy)]
pub struct WritePressure {
    /// Hot-tier bytes the watermark governs (keys + values + tombstones,
    /// less what a running spill is about to evict).
    pub memory_bytes: u64,
    /// The configured spill watermark ([`TierConfig::with_watermark`]).
    pub watermark_bytes: u64,
    /// Committed L0 spill segments — the compaction backlog a planner
    /// has not yet promoted into L1. Grows when spills outpace
    /// compaction; the canonical "cold tier is falling behind" signal.
    pub l0_segments: u64,
    /// Whether a spill pass (watermark spill, explicit spill, or flush)
    /// is running right now.
    pub spill_active: bool,
}

impl WritePressure {
    /// Hot memory as a multiple of the watermark (`1.0` = exactly at the
    /// spill threshold; `0.0` when the watermark is unbounded).
    pub fn memory_ratio(&self) -> f64 {
        if self.watermark_bytes == 0 || self.watermark_bytes == u64::MAX {
            0.0
        } else {
            self.memory_bytes as f64 / self.watermark_bytes as f64
        }
    }
}

/// The shared state behind a [`TieredStore`]: everything except the
/// maintenance thread handle, so the thread and the handle-owning store
/// can both hold it through an `Arc`.
pub(crate) struct TierInner {
    pub(crate) config: TierConfig,
    pub(crate) hot: TierStore,
    pub(crate) cache: BlockCache,
    /// The live cold tier, published as an immutable snapshot (see the
    /// [module docs](self)).
    cold: RwLock<ColdList>,
    /// Serializes spills and flushes (one in-flight copy at a time).
    /// Deliberately not shared with the compaction machinery: a running
    /// compaction job must never stall a watermark spill.
    spill_lock: Mutex<()>,
    /// Hot bytes the running spill has copied and will evict once its
    /// segment is published (0 between spills). [`TierInner::memory_usage_bytes`]
    /// leaves them out, so a writer crossing the watermark mid-spill does
    /// not queue behind it for bytes already on their way out.
    pub(crate) spilling_bytes: AtomicU64,
    /// In-flight compaction key-range reservations: jobs over disjoint
    /// key ranges run and commit concurrently; only overlapping work
    /// excludes itself.
    pub(crate) reservations: ReservationTable,
    /// Serializes segment-set commits (spill and job alike): successor
    /// tier construction, the manifest swap (fsync + rename — the slow
    /// part), and the generation bump all happen under this lock, so the
    /// `cold` write lock is only ever held for the final pointer swap and
    /// readers never wait out a manifest fsync. Lock order:
    /// `commit_lock` before `cold`; nothing takes `commit_lock` while
    /// holding `cold`.
    ///
    /// The three ordered locks are private to this file: the other modules
    /// take them through the accessors below, so each keeps the one name
    /// the lock-order check knows it by.
    // lock-order: store.spill_lock < store.commit_lock < store.cold
    commit_lock: Mutex<()>,
    pub(crate) codec: TierCodec,
    pub(crate) next_segment_id: AtomicU64,
    /// Generation of the currently committed manifest; every segment-set
    /// commit writes `generation + 1`.
    pub(crate) generation: AtomicU64,
    pub(crate) planner: CompactionPlanner,
    pub(crate) maint: MaintSignal,
    /// Write-ahead log ([`TierConfig::wal`]); `None` keeps the pre-WAL
    /// volatile-hot-tier contract. Writes append *after* their hot-tier
    /// mutation lands, which is what makes checkpoint marks safe: every
    /// record at or below a captured mark is already in the hot tier, so
    /// flushing the hot tier covers it (see `checkpoint_wal`).
    pub(crate) wal: Option<Wal>,
    /// What WAL recovery replayed when this store opened (`None` without
    /// a WAL).
    wal_recovery: Option<RecoveryReport>,
    /// Metric handles, trace ring, and background-error ring (see
    /// [`crate::obs`]). Counters here are the source of truth for
    /// [`TieredStore::stats`].
    pub(crate) obs: TierObs,
    /// Lock-free mirror of the committed L0 segment count, refreshed by
    /// [`TierInner::publish_gauges`] at every manifest commit. Exists so
    /// [`TieredStore::write_pressure`] — an admission-control hook called
    /// on every front-end write — never touches the `cold` read lock and
    /// so never contends with a commit's pointer swap.
    pub(crate) l0_count_hint: AtomicU64,
    /// Whether a spill pass (watermark spill, explicit spill, or flush)
    /// is currently running. Advisory, for backpressure: admission
    /// control can distinguish "over the watermark and draining" from
    /// "over the watermark and stuck behind a cold backlog".
    pub(crate) spill_active: AtomicBool,
    /// Advisory exclusive lock on the store directory, held for the
    /// store's lifetime (released by the OS on drop or process death).
    /// Without it, a second open would sweep the first handle's in-flight
    /// segments as "orphans" and the two would overwrite each other's
    /// manifest swaps.
    _dir_lock: std::fs::File,
}

impl TierInner {
    // lock-wrapper: spill_guard = store.spill_lock
    pub(crate) fn spill_guard(&self) -> MutexGuard<'_, ()> {
        self.spill_lock.lock()
    }

    // lock-wrapper: commit_guard = store.commit_lock
    pub(crate) fn commit_guard(&self) -> MutexGuard<'_, ()> {
        self.commit_lock.lock()
    }

    // lock-wrapper: cold_write = store.cold
    pub(crate) fn cold_write(&self) -> RwLockWriteGuard<'_, ColdList> {
        self.cold.write()
    }

    /// Snapshot the live cold tier (one `Arc` clone; no lock held
    /// afterwards).
    pub(crate) fn cold_snapshot(&self) -> ColdList {
        Arc::clone(&self.cold.read())
    }

    /// Pin the segment-set snapshot together with the generation it was
    /// committed under (commits store both under the `cold` write lock),
    /// so everything derived from the pair describes *one* committed
    /// segment set, never a half-applied commit.
    pub(crate) fn pinned_cold(&self) -> (ColdList, u64) {
        let cold = self.cold.read();
        (Arc::clone(&cold), self.generation.load(Ordering::Relaxed))
    }

    /// Hot bytes the watermark governs: keys, values and tombstones,
    /// less what the running spill is about to evict. Saturating, because
    /// writes racing the spill may already have replaced copied slots.
    pub(crate) fn memory_usage_bytes(&self) -> u64 {
        (self.hot.memory_usage_bytes() + self.hot.tombstone_bytes())
            .saturating_sub(self.spilling_bytes.load(Ordering::Relaxed))
    }

    pub(crate) fn leveled_stats(&self) -> (Vec<SegmentStats>, Vec<SegmentStats>) {
        let cold = self.cold_snapshot();
        let stats = |level: &[Arc<ColdSegment>]| level.iter().map(|s| s.stats.clone()).collect();
        (stats(&cold.l0), stats(&cold.l1))
    }
}

/// A tiered hot/cold key-value store. See the [module docs](self).
///
/// Cloning is deliberately not offered; share a store across threads with
/// `Arc<TieredStore>`. Dropping the store shuts down and joins the
/// background maintenance thread (if one was configured).
pub struct TieredStore {
    pub(crate) inner: Arc<TierInner>,
    maintenance: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for TieredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field("dir", &self.inner.config.dir)
            .field("hot_len", &self.inner.hot.len())
            .field("memory_usage_bytes", &self.memory_usage_bytes())
            .field("watermark", &self.inner.config.memory_watermark_bytes)
            .field("l0_segments", &self.l0_segment_count())
            .field("l1_partitions", &self.l1_partition_count())
            .field("generation", &self.generation())
            .field("background", &self.maintenance.is_some())
            .finish()
    }
}

impl Drop for TieredStore {
    fn drop(&mut self) {
        if let Some(handle) = self.maintenance.take() {
            self.inner.maint.request_shutdown();
            let _ = handle.join();
        }
        // Best-effort clean-shutdown fsync: under `Durability::None` /
        // `Periodic` the tail of the log may only be in the page cache;
        // one sync here upgrades a clean drop to power-loss durability.
        if let Some(wal) = &self.inner.wal {
            let _ = wal.sync();
        }
    }
}

impl TieredStore {
    /// Open (or create) a tiered store in `config.dir`. Reloads the
    /// manifest if one exists, reopening every live segment and sweeping
    /// crash debris (a stale `MANIFEST.tmp`, orphaned segment files from
    /// interrupted spills or half-committed compaction jobs). Spawns the
    /// background maintenance thread when
    /// [`TierConfig::background_compaction`] is set.
    pub fn open(config: TierConfig) -> Result<TieredStore> {
        std::fs::create_dir_all(&config.dir)?;
        // Exclusive advisory lock before reading anything: a second opener
        // must not sweep this handle's in-flight segments or race its
        // manifest swaps. The lock dies with the process, so a crash never
        // wedges the directory.
        let dir_lock = std::fs::File::create(config.dir.join("LOCK"))?;
        if let Err(e) = dir_lock.try_lock() {
            return Err(match e {
                std::fs::TryLockError::WouldBlock => TierError::DirectoryLocked {
                    dir: config.dir.clone(),
                },
                std::fs::TryLockError::Error(e) => e.into(),
            });
        }
        let manifest = Manifest::load(&config.dir)?.unwrap_or_default();
        // Build the observability bundle before any reader opens, so every
        // segment reader the store ever creates records into it.
        let obs = TierObs::new(&config);
        let tier = ColdTier::load(&config, &obs, &manifest)?;
        let max_id = sweep_orphans(&config.dir, &manifest)?;
        let hot = TierStore::new(config.hot_codec.clone());
        let (wal, wal_recovery) = open_wal(&config, &obs, manifest.generation, &hot)?;
        let cache = BlockCache::with_counters(config.cache_capacity_bytes, obs.cache_counters());
        let planner = CompactionPlanner::new(config.planner.clone());
        let background = config.background_compaction;
        let inner = Arc::new(TierInner {
            hot,
            cache,
            cold: RwLock::new(Arc::new(tier)),
            spill_lock: Mutex::new(()),
            spilling_bytes: AtomicU64::new(0),
            reservations: ReservationTable::default(),
            commit_lock: Mutex::new(()),
            codec: TierCodec::new(&config.segment),
            next_segment_id: AtomicU64::new(max_id + 1),
            generation: AtomicU64::new(manifest.generation),
            planner,
            maint: MaintSignal::default(),
            wal,
            wal_recovery,
            obs,
            l0_count_hint: AtomicU64::new(0),
            spill_active: AtomicBool::new(false),
            _dir_lock: dir_lock,
            config,
        });
        inner.publish_gauges(&inner.cold_snapshot(), manifest.generation);
        // A large replay can overshoot the watermark before the first
        // write ever runs; spill it down now so reopen converges to the
        // same memory budget a running store honors.
        inner.spill(SpillScope::ToTarget)?;
        let maintenance = if background {
            let thread_inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("pbc-tier-maintenance".into())
                    .spawn(move || maintenance_loop(thread_inner))
                    .map_err(TierError::Io)?,
            )
        } else {
            None
        };
        Ok(TieredStore { inner, maintenance })
    }

    /// The configuration this store was opened with.
    pub fn config(&self) -> &TierConfig {
        &self.inner.config
    }

    /// The read-through cache of records and blocks (counters, capacity).
    pub fn cache(&self) -> &BlockCache {
        &self.inner.cache
    }

    /// Hot-tier bytes the watermark governs: stored keys + values +
    /// tombstones, less what a running spill has copied and is about to
    /// evict.
    pub fn memory_usage_bytes(&self) -> u64 {
        self.inner.memory_usage_bytes()
    }

    /// The lock-free backpressure signals a serving front end samples on
    /// every write (see [`WritePressure`]). Reads only atomics — safe to
    /// call at full admission-control frequency without adding contention
    /// on the store's locks. The L0 count is a mirror refreshed at each
    /// manifest commit, so it can trail the live tier by one in-flight
    /// commit; admission thresholds are coarse by nature, so a
    /// one-commit-stale read is fine.
    pub fn write_pressure(&self) -> WritePressure {
        let inner = &self.inner;
        WritePressure {
            memory_bytes: inner.memory_usage_bytes(),
            watermark_bytes: inner.config.memory_watermark_bytes,
            l0_segments: inner.l0_count_hint.load(Ordering::Relaxed),
            spill_active: inner.spill_active.load(Ordering::Relaxed),
        }
    }

    /// Keys resident in the hot tier.
    pub fn hot_len(&self) -> usize {
        self.inner.hot.len()
    }

    /// Live cold segments across both levels.
    pub fn segment_count(&self) -> usize {
        let cold = self.inner.cold.read();
        cold.l0.len() + cold.l1.len()
    }

    /// Live L0 spill segments.
    pub fn l0_segment_count(&self) -> usize {
        self.inner.cold.read().l0.len()
    }

    /// Live L1 partitions.
    pub fn l1_partition_count(&self) -> usize {
        self.inner.cold.read().l1.len()
    }

    /// The manifest generation the current segment set was committed
    /// under.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Relaxed)
    }

    /// Per-segment statistics, L0 newest-first then L1 ascending — what
    /// the compaction planner scores.
    pub fn segment_stats(&self) -> Vec<SegmentStats> {
        let (mut l0, mut l1) = self.inner.leveled_stats();
        l0.append(&mut l1);
        l0
    }

    /// Per-level statistics: `(L0 newest first, L1 ascending by key)`.
    /// L1 is always sorted and pairwise non-overlapping.
    pub fn leveled_stats(&self) -> (Vec<SegmentStats>, Vec<SegmentStats>) {
        self.inner.leveled_stats()
    }

    /// A snapshot of the store's counters and cold-tier gauges.
    ///
    /// The five cold-tier gauges and the generation are captured from one
    /// pinned segment-set snapshot (the `Arc` swap that commits publish),
    /// so `l0_segments`/`l1_partitions`/`cold_records`/`cold_tombstones`
    /// and `generation` always describe the *same* committed segment set,
    /// never a half-applied commit — while the O(segments) sums run after
    /// the read lock is released. Counters are
    /// typed views over the metrics registry (all zero when
    /// [`TierConfig::with_metrics`] disabled collection); the gauges are
    /// derived exactly from the live tier either way.
    pub fn stats(&self) -> TierStats {
        // The O(segments) sums run on the pinned snapshot, after the read
        // lock is released: it is immutable, so they stay exact while
        // writers never wait out a stats call.
        let (cold, generation) = self.inner.pinned_cold();
        self.inner.obs.stats(&cold, generation)
    }

    /// The metrics registry every store counter, gauge, and latency
    /// histogram lives in. Snapshot it and render with
    /// `Snapshot::to_prometheus` / `Snapshot::to_json`:
    ///
    /// ```
    /// # let dir = std::env::temp_dir().join(format!("pbc-tier-metrics-doc-{}", std::process::id()));
    /// # let store = pbc_tier::TieredStore::open(pbc_tier::TierConfig::new(&dir)).unwrap();
    /// store.set(b"k", b"v").unwrap();
    /// store.get(b"k").unwrap();
    /// let snap = store.metrics().snapshot();
    /// assert_eq!(snap.counters["pbc_tier_hot_hits_total"], 1);
    /// assert!(snap.to_prometheus().contains("pbc_tier_put_latency_ns_count 1"));
    /// # drop(store);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn metrics(&self) -> &MetricsRegistry {
        self.inner.obs.registry()
    }

    /// The retained structured trace events (spill, compaction, manifest,
    /// and scan lifecycle; background errors), oldest first. Bounded by
    /// [`TierConfig::with_trace_capacity`].
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner.obs.trace_snapshot()
    }

    /// The last few background-maintenance failures (actual error string,
    /// job description, monotonic timestamp), oldest first — the detail
    /// behind the `background_errors` counter, which on its own only says
    /// *that* something failed. The last 32 are kept.
    pub fn recent_background_errors(&self) -> Vec<BackgroundErrorRecord> {
        self.inner.obs.background_error_snapshot()
    }

    /// Store a value. Returns the hot-tier stored (encoded) size. May spill
    /// cold shards if the write pushes memory over the watermark.
    pub fn set(&self, key: &[u8], value: &[u8]) -> Result<usize> {
        self.inner.set(key, value)
    }

    /// Fetch a value, reading through hot memory, the cache, L0 segments
    /// (newest first), and finally the one L1 partition covering the key.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }

    /// Delete a key everywhere. Returns whether it existed (hot, or cold
    /// and not already deleted).
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        self.inner.delete(key)
    }

    /// Stream every live key in `range`, in ascending order, each exactly
    /// once — a k-way merge across the hot tier, every intersecting L0
    /// segment (newest first), and the covering L1
    /// partitions, with overwrites and tombstones resolved by tier/recency
    /// precedence. See the [`crate::scan`] module docs for the full
    /// semantics.
    ///
    /// The scan is **snapshot-consistent under concurrent compaction**:
    /// it pins the cold-tier snapshot (and its manifest generation,
    /// [`crate::RangeScan::generation`]) at creation, so jobs can retire
    /// and unlink segments mid-scan without invalidating it. Writes
    /// issued after this call returns are never seen; writes concurrent
    /// with it may or may not be. Cold data is decoded one
    /// footer-selected block at a time through the block cache, never a
    /// whole segment.
    ///
    /// # Examples
    ///
    /// ```
    /// use pbc_tier::{TierConfig, TieredStore};
    ///
    /// let dir = std::env::temp_dir().join(format!("pbc-tier-scan-doc-{}", std::process::id()));
    /// let store = TieredStore::open(
    ///     TierConfig::new(&dir).with_watermark(8 * 1024), // tiny: spills happen mid-loop
    /// ).unwrap();
    /// for i in 0..400u32 {
    ///     store.set(format!("k:{i:05}").as_bytes(), format!("v-{i}").as_bytes()).unwrap();
    /// }
    /// store.delete(b"k:00102").unwrap();
    /// store.set(b"k:00103", b"v-overwritten").unwrap();
    ///
    /// // Keys stream back in order across all tiers; the newest version
    /// // wins and deleted keys are invisible.
    /// let rows: Vec<(Vec<u8>, Vec<u8>)> = store
    ///     .range_scan(&b"k:00100"[..]..=&b"k:00104"[..])
    ///     .unwrap()
    ///     .map(|row| row.unwrap())
    ///     .collect();
    /// let keys: Vec<&[u8]> = rows.iter().map(|(k, _)| k.as_slice()).collect();
    /// assert_eq!(
    ///     keys,
    ///     [b"k:00100".as_slice(), b"k:00101".as_slice(), b"k:00103".as_slice(), b"k:00104".as_slice()],
    /// );
    /// assert_eq!(rows[2].1, b"v-overwritten".to_vec());
    ///
    /// // Unbounded and half-open ranges work too.
    /// assert_eq!(store.range_scan(&b"k:00395"[..]..).unwrap().count(), 5);
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn range_scan<K, R>(&self, range: R) -> Result<crate::scan::RangeScan<'_>>
    where
        K: AsRef<[u8]>,
        R: RangeBounds<K>,
    {
        self.range_scan_limited(range, usize::MAX)
    }

    /// [`TieredStore::range_scan`] for the first `limit` live keys of
    /// `range` only. The hot tier is cut at its `limit`-th live row, so a
    /// short scan copies a few rows however full the hot tier is.
    pub fn range_scan_limited<K, R>(
        &self,
        range: R,
        limit: usize,
    ) -> Result<crate::scan::RangeScan<'_>>
    where
        K: AsRef<[u8]>,
        R: RangeBounds<K>,
    {
        self.inner.range_scan(
            range.start_bound().map(AsRef::as_ref),
            range.end_bound().map(AsRef::as_ref),
            limit,
        )
    }

    /// Spill the `n` coldest non-empty shards right now, watermark or not.
    /// A no-op when the hot tier is empty.
    pub fn spill_coldest(&self, n: usize) -> Result<()> {
        self.inner.spill(SpillScope::Coldest(n))
    }

    /// Spill every hot entry and tombstone, making the whole store durable
    /// (clean-shutdown flush).
    pub fn flush_all(&self) -> Result<()> {
        self.inner.spill(SpillScope::Coldest(usize::MAX))
    }

    /// Checkpoint the write-ahead log now: flush the hot tier, write
    /// durable checkpoint markers, and delete every fully-covered log
    /// segment. The synchronous twin of the maintenance thread's
    /// size-triggered checkpoint. `Ok(None)` when the store runs without
    /// a WAL.
    pub fn checkpoint_wal(&self) -> Result<Option<CheckpointSummary>> {
        self.inner.checkpoint_wal()
    }

    /// Current write-ahead-log size and progress (`None` without a WAL).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.inner.wal.as_ref().map(|w| w.stats())
    }

    /// What WAL recovery replayed when this store opened (`None` without
    /// a WAL).
    pub fn wal_recovery(&self) -> Option<RecoveryReport> {
        self.inner.wal_recovery
    }

    /// Run planner-selected compaction jobs until no trigger threshold is
    /// crossed. Returns the number of jobs run. This is the synchronous
    /// twin of the background maintenance thread — useful with background
    /// compaction off, and for deterministic tests. Safe to call from
    /// several threads at once: each caller reserves its job's key range,
    /// so disjoint jobs run and commit concurrently while conflicting
    /// plans fall to whichever caller reserved first.
    pub fn run_pending_compactions(&self) -> Result<usize> {
        self.inner.run_pending_compactions()
    }

    /// Stop the background thread from *starting* new compaction jobs,
    /// and return once an in-flight job, if any, has committed. Pairs
    /// with [`TieredStore::resume_compaction`]; calls nest.
    pub fn pause_compaction(&self) {
        self.inner.maint.pause();
    }

    /// Undo one [`TieredStore::pause_compaction`], waking the maintenance
    /// thread if this was the outermost pause.
    pub fn resume_compaction(&self) {
        self.inner.maint.resume();
    }

    /// Merge **every** cold segment into fresh L1 partitions, dropping
    /// shadowed versions and tombstones and retraining the block codec on
    /// the merged corpus. Reserves the whole key space, waiting for any
    /// in-flight jobs to finish. Still the right call for offline
    /// reorganizations (benchmarks, clean shutdown into a minimal layout).
    pub fn compact(&self) -> Result<CompactionSummary> {
        self.inner.compact()
    }
}
