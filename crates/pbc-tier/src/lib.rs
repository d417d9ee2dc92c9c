//! # pbc-tier — tiered hot/cold storage engine
//!
//! The paper's production case study (Section 7.5) compresses TierBase
//! values to cut memory; this crate takes the next step the ROADMAP names:
//! a storage engine where the in-memory [`pbc_store::TierStore`] is only
//! the **hot tier**, and cold data lives in compressed `pbc-archive`
//! segments with transparent read-through.
//!
//! ```text
//!        set/get/delete/range_scan
//!                   │
//!        ┌──────────▼──────────┐
//!        │  hot: TierStore     │  sharded RAM, one ordered map per
//!        │  (watermark-bound)  │  shard: key → live value | tombstone
//!        └──────────┬──────────┘
//!      empty slot?  │    spill (coldest shards by access epoch)
//!        ┌──────────▼──────────┐
//!        │  BlockCache (2Q,    │  records for point gets, decoded
//!        │  bounded by bytes)  │  blocks for scans, one budget
//!        └──────────┬──────────┘
//!        ┌──────────▼──────────┐
//!        │  L0 spill segments  │  recency order, may overlap; walked
//!        │  (pbc-archive)      │  newest first
//!        └──────────┬──────────┘
//!        ┌──────────▼──────────┐
//!        │  L1 partitions      │  sorted, non-overlapping; binary-
//!        │  (pbc-archive)      │  searched — one partition per key
//!        └─────────────────────┘
//! ```
//!
//! * **Spilling**: when hot bytes cross [`TierConfig::memory_watermark_bytes`],
//!   the coldest shards (LRU by last-access epoch) are copied and written
//!   as one sorted L0 segment; once it is published, every copied slot no
//!   write has replaced since is evicted from RAM.
//! * **Read-through**: `get` falls from hot memory through the
//!   byte-bounded 2Q [`BlockCache`] to L0 (newest first), then
//!   binary-searches the one L1 partition covering the key — so overwrites
//!   and tombstones always shadow older spilled state and worst-case cold
//!   lookups cost O(L0) + O(log L1), not O(segments).
//! * **Range scans**: [`TieredStore::range_scan`] streams every live key
//!   in a range, in order, via a k-way merge across hot + L0 +
//!   the covering L1 partitions with the same precedence as point
//!   lookups. [`TieredStore::range_scan_limited`] stops at `limit` rows
//!   and copies only the hot rows up to its `limit`-th live one. Scans
//!   are **snapshot-consistent under concurrent compaction**: the cold
//!   tier snapshot (and its generation) is pinned for the iterator's
//!   lifetime, and cold blocks stream through the cache one
//!   footer-selected block at a time (see [`scan`]).
//! * **Crash safety**: durable state is the [`Manifest`] (v4: each live
//!   segment's id and level) plus the segments it names, committed under a
//!   monotonically increasing **generation**; segments are fsynced before
//!   the atomic manifest swap, and reopen lands on exactly one consistent
//!   generation, sweeping debris (a stale `MANIFEST.tmp`, orphaned or
//!   retired segment files). With [`TierConfig::wal`] unset, hot
//!   (in-memory) data is volatile until spilled.
//! * **Write-ahead log** (opt-in, [`TierConfig::wal`]): every put and
//!   delete is logged to a sharded group-commit WAL before it is
//!   acknowledged, at a configurable [`Durability`] level; reopen replays
//!   the log into the hot tier, and the maintenance thread checkpoints it
//!   (flush + durable marker + segment deletion) so it stays bounded. See
//!   the `pbc-wal` crate and the README's "Durability" section.
//! * **Leveled compaction**: a [`planner::CompactionPlanner`] emits
//!   range-selected jobs — promote a bounded L0 run together with exactly
//!   the L1 partitions its key range intersects, or consolidate small
//!   adjacent L1 partitions — whose outputs are written back to L1 split
//!   at [`PlannerConfig::target_partition_bytes`] boundaries. Every job
//!   includes everything at or below its key range, so every job drops
//!   tombstones: L1 never stores one. Spills and jobs write through one
//!   run writer and commit through one commit; jobs and range scans
//!   share one newest-wins merge. **One compactor runs at a time**:
//!   the background maintenance thread
//!   ([`TierConfig::background_compaction`]),
//!   [`TieredStore::run_pending_compactions`] and [`TieredStore::compact`]
//!   each hold one lock from plan through merge to commit. `compact`
//!   pauses the thread first so it cannot starve; a drain that finds the
//!   lock taken leaves the work to its holder. Spills commit beside a
//!   running job.
//!   The first spill, and any job that rewrites the majority of cold
//!   records, selects a block codec over its own first blocks; every
//!   other spill and job reuses the codec the last of those committed to,
//!   with the per-block raw fallback bounding drift.
//!   [`TieredStore::compact`] remains as the full merge of both levels
//!   for offline reorganization.
//!
//! ## Example
//!
//! ```
//! use pbc_tier::{TierConfig, TieredStore};
//!
//! let dir = std::env::temp_dir().join(format!("pbc-tier-doc-{}", std::process::id()));
//! let store = TieredStore::open(
//!     TierConfig::new(&dir).with_watermark(16 * 1024), // tiny: force spills
//! ).unwrap();
//! for i in 0..500u32 {
//!     let value = format!("evt|id={i:08}|status=done|region=eu-{}", i % 4);
//!     store.set(format!("k:{i:05}").as_bytes(), value.as_bytes()).unwrap();
//! }
//! assert!(store.segment_count() >= 1, "the watermark forced spills");
//! // Cold keys read back transparently.
//! assert_eq!(
//!     store.get(b"k:00007").unwrap().unwrap(),
//!     b"evt|id=00000007|status=done|region=eu-3".to_vec()
//! );
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod codec;
mod commit;
pub mod config;
pub mod error;
mod jobs;
mod maintenance;
pub mod manifest;
mod merge;
pub mod obs;
pub mod planner;
mod read;
pub mod scan;
mod spill;
pub mod store;
mod twoq;
mod write;

pub use cache::{BlockCache, BlockKey, CacheCounters};
pub use config::{TierConfig, WalOptions};
pub use error::{Result, TierError};
pub use manifest::{Manifest, ManifestEntry};
pub use obs::{BackgroundErrorRecord, TierStats};
pub use pbc_wal::{shard_of, CheckpointSummary, Durability, RecoveryReport, WalStats};
pub use planner::{
    CompactionJob, CompactionPlanner, KeyRange, PlannerConfig, SegmentStats, LEVEL_L0, LEVEL_L1,
};
pub use scan::RangeScan;
pub use store::{CompactionSummary, TieredStore, WritePressure};

/// The crate's unit-test temp directory: unique per call, created on the
/// spot, removed when the guard drops.
#[cfg(test)]
pub(crate) mod test_support {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) fn temp_dir(tag: &str) -> (PathBuf, TempDir) {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pbc-tier-test-{}-{tag}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        (dir.clone(), TempDir(dir))
    }

    pub(crate) struct TempDir(PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::temp_dir;
    use std::collections::BTreeMap;

    fn value(i: usize) -> Vec<u8> {
        format!(
            "sess|uid={}|dev=android-13|ip=10.0.{}.{}|exp={}",
            10_000_000 + (i * 9_700_417) % 89_999_999,
            i % 256,
            (i * 7) % 256,
            1_686_000_000 + (i * 86_413) % 9_999_999
        )
        .into_bytes()
    }

    fn key(i: usize) -> Vec<u8> {
        format!("user:{i:06}").into_bytes()
    }

    fn small_config(dir: &std::path::Path) -> TierConfig {
        TierConfig::new(dir)
            .with_watermark(8 * 1024)
            .with_cache_capacity(256 * 1024)
    }

    #[test]
    fn watermark_forces_spills_and_reads_stay_correct() {
        let (dir, _guard) = temp_dir("spill");
        let store = TieredStore::open(small_config(&dir)).unwrap();
        let n = 2_000usize;
        for i in 0..n {
            store.set(&key(i), &value(i)).unwrap();
        }
        assert!(
            store.memory_usage_bytes() <= store.config().memory_watermark_bytes,
            "spilling keeps usage at or below the watermark between writes"
        );
        assert!(store.segment_count() >= 2, "multiple spill segments");
        let stats = store.stats();
        assert!(stats.spills >= 2);
        for i in (0..n).step_by(37) {
            assert_eq!(
                store.get(&key(i)).unwrap().as_deref(),
                Some(value(i).as_slice()),
                "key {i}"
            );
        }
        assert!(store.get(b"user:999999").unwrap().is_none());
    }

    /// A spill whose segment cannot be written returns the error and
    /// leaves the hot tier exactly as it was: the same keys and bytes, no
    /// new generation. The next spill writes everything.
    #[test]
    fn a_failed_spill_loses_nothing() {
        let (dir, _guard) = temp_dir("failed-spill");
        let store = TieredStore::open(TierConfig::new(&dir)).unwrap();
        let n = 300;
        for i in 0..n {
            store.set(&key(i), &value(i)).unwrap();
        }
        for i in (0..n).step_by(7) {
            store.delete(&key(i)).unwrap();
        }
        let expected = |i: usize| (!i.is_multiple_of(7)).then(|| value(i));
        let hot_state = |store: &TieredStore| {
            (
                store.hot_len(),
                store.memory_usage_bytes(),
                store.write_pressure().memory_bytes,
                store.generation(),
            )
        };
        let before = hot_state(&store);

        // A directory where the next segment goes: the writer cannot
        // create its file.
        let id = store
            .inner
            .next_segment_id
            .load(std::sync::atomic::Ordering::Relaxed);
        let obstruction = dir.join(manifest::segment_file_name(id));
        std::fs::create_dir(&obstruction).unwrap();
        assert!(store.flush_all().is_err());
        assert_eq!(hot_state(&store), before, "the hot tier is untouched");
        assert_eq!(store.segment_count(), 0);
        for i in 0..n {
            assert_eq!(store.get(&key(i)).unwrap(), expected(i), "key {i}");
        }

        std::fs::remove_dir(&obstruction).unwrap();
        store.flush_all().unwrap();
        assert_eq!((store.hot_len(), store.memory_usage_bytes()), (0, 0));
        let hot_answers = |store: &TieredStore| {
            let stats = store.stats();
            stats.hot_hits + stats.tombstone_negatives
        };
        let answered_hot = hot_answers(&store);
        for i in 0..n {
            assert_eq!(store.get(&key(i)).unwrap(), expected(i), "key {i}");
        }
        assert_eq!(
            hot_answers(&store),
            answered_hot,
            "every key read from cold"
        );
    }

    /// A compaction job whose second output cannot be created returns the
    /// error and changes nothing: the same generation, segments and reads,
    /// and no file the manifest does not name. The next job succeeds.
    #[test]
    fn a_failed_job_removes_every_output_it_created() {
        let (dir, _guard) = temp_dir("failed-job");
        let store = TieredStore::open(small_config(&dir).with_planner(PlannerConfig {
            target_partition_bytes: 8 * 1024, // several outputs
            ..PlannerConfig::default()
        }))
        .unwrap();
        let n = 1_200;
        for i in 0..n {
            store.set(&key(i), &value(i)).unwrap();
        }
        store.flush_all().unwrap();
        store.compact().unwrap();
        for i in (0..n).step_by(5) {
            store.set(&key(i), b"rewritten").unwrap();
        }
        for i in (0..n).step_by(7) {
            store.delete(&key(i)).unwrap();
        }
        store.flush_all().unwrap();
        let reads = |store: &TieredStore| -> Vec<Option<Vec<u8>>> {
            (0..n).map(|i| store.get(&key(i)).unwrap()).collect()
        };
        let before = (store.generation(), store.leveled_stats(), reads(&store));
        let unnamed_files = |store: &TieredStore| -> Vec<String> {
            let (l0, l1) = store.leveled_stats();
            let named: Vec<String> = l0
                .iter()
                .chain(&l1)
                .map(|s| manifest::segment_file_name(s.id))
                .collect();
            std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap())
                .filter(|entry| entry.file_type().unwrap().is_file())
                .map(|entry| entry.file_name().to_string_lossy().into_owned())
                .filter(|name| name.starts_with("seg-") && !named.contains(name))
                .collect()
        };

        // A directory where the job's second output goes.
        let first = store
            .inner
            .next_segment_id
            .load(std::sync::atomic::Ordering::Relaxed);
        let obstruction = dir.join(manifest::segment_file_name(first + 1));
        std::fs::create_dir(&obstruction).unwrap();
        assert!(store.compact().is_err());
        assert!(
            store
                .inner
                .next_segment_id
                .load(std::sync::atomic::Ordering::Relaxed)
                > first + 1,
            "the job reached its second output"
        );
        assert_eq!(
            (store.generation(), store.leveled_stats(), reads(&store)),
            before,
            "a failed job publishes nothing"
        );
        assert_eq!(unnamed_files(&store), Vec::<String>::new());

        std::fs::remove_dir(&obstruction).unwrap();
        let summary = store.compact().unwrap();
        assert!(summary.output_partitions >= 2);
        assert_eq!(reads(&store), before.2);
        assert_eq!(unnamed_files(&store), Vec::<String>::new());
    }

    #[test]
    fn overwrites_and_deletes_shadow_spilled_state() {
        let (dir, _guard) = temp_dir("shadow");
        let store = TieredStore::open(small_config(&dir)).unwrap();
        for i in 0..600 {
            store.set(&key(i), &value(i)).unwrap();
        }
        // Force everything cold, then mutate on top.
        store.flush_all().unwrap();
        assert_eq!(store.hot_len(), 0);
        store.set(&key(5), b"overwritten").unwrap();
        assert!(store.delete(&key(6)).unwrap());
        assert!(!store.delete(&key(6)).unwrap(), "double delete is false");
        assert_eq!(
            store.get(&key(5)).unwrap().as_deref(),
            Some(&b"overwritten"[..])
        );
        assert_eq!(store.get(&key(6)).unwrap(), None);
        // Spill the overwrite + tombstone as well; still shadowing.
        store.flush_all().unwrap();
        assert_eq!(
            store.get(&key(5)).unwrap().as_deref(),
            Some(&b"overwritten"[..])
        );
        assert_eq!(store.get(&key(6)).unwrap(), None);
        assert_eq!(
            store.get(&key(7)).unwrap().as_deref(),
            Some(value(7).as_slice())
        );
    }

    /// A spill writes its keys in order, whatever order they arrived in:
    /// the same contents give byte-identical segments.
    #[test]
    fn spill_segments_do_not_depend_on_insertion_order() {
        let spill = |tag: &str, order: &mut dyn Iterator<Item = usize>| {
            let (dir, guard) = temp_dir(tag);
            let store = TieredStore::open(TierConfig::new(&dir)).unwrap();
            for i in order {
                store.set(&key(i), &value(i)).unwrap();
            }
            store.delete(&key(7)).unwrap();
            store.flush_all().unwrap();
            assert_eq!(store.segment_count(), 1);
            let segment = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .find(|path| path.extension().is_some_and(|ext| ext == "seg"))
                .unwrap();
            (std::fs::read(segment).unwrap(), guard)
        };
        let (forward, _a) = spill("order-fwd", &mut (0..300));
        let (backward, _b) = spill("order-rev", &mut (0..300).rev());
        assert!(forward == backward, "segments differ");
    }

    #[test]
    fn cache_accounting_invariant_holds() {
        let (dir, _guard) = temp_dir("cache");
        let store = TieredStore::open(
            TierConfig::new(&dir)
                .with_watermark(8 * 1024)
                .with_cache_capacity(16 * 1024),
        )
        .unwrap();
        for i in 0..800 {
            store.set(&key(i), &value(i)).unwrap();
        }
        store.flush_all().unwrap();
        let mut state = 0x1234_5678u64;
        for _ in 0..600 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let i = (state >> 33) as usize % 800;
            store.get(&key(i)).unwrap();
        }
        let stats = store.stats();
        assert!(stats.cold_gets > 0);
        assert_eq!(
            stats.cold_cache_hits + stats.cold_cache_misses,
            stats.cold_gets,
            "every cold get is exactly one hit or one miss"
        );
        assert!(stats.cold_cache_hits > 0, "repeat gets hit the cache");
        assert!(
            store.cache().cached_bytes() <= store.cache().capacity(),
            "cached bytes within capacity"
        );
        assert!(store.cache().evictions() > 0, "small cache must evict");
    }

    #[test]
    fn a_repeated_cold_get_is_a_record_hit_and_decodes_nothing() {
        let (dir, _guard) = temp_dir("record-hit");
        // A cache smaller than a block: only records fit in it.
        let store = TieredStore::open(small_config(&dir).with_cache_capacity(4 * 1024)).unwrap();
        // Even keys only: odd ones fall inside the blocks' key ranges.
        for i in (0..600).step_by(2) {
            store.set(&key(i), &value(i)).unwrap();
        }
        store.flush_all().unwrap();
        // One L1 partition covers each key.
        store.compact().unwrap();
        let decoded = || store.metrics().snapshot().counters["pbc_archive_blocks_decoded_total"];
        for (i, want) in [(300, Some(value(300))), (301, None)] {
            assert_eq!(store.get(&key(i)).unwrap(), want);
            let (before, stats) = (decoded(), store.stats());
            assert_eq!(store.get(&key(i)).unwrap(), want, "key {i}");
            assert_eq!(
                decoded(),
                before,
                "key {i}: the record answered, no block decoded"
            );
            assert_eq!(store.stats().cold_cache_hits, stats.cold_cache_hits + 1);
        }
        assert_eq!(store.cache().record_hits(), 2, "one positive, one negative");
    }

    #[test]
    fn compaction_merges_shadows_and_drops_tombstones() {
        let (dir, _guard) = temp_dir("compact");
        let store = TieredStore::open(small_config(&dir)).unwrap();
        let mut reference: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for i in 0..900 {
            store.set(&key(i), &value(i)).unwrap();
            reference.insert(key(i), value(i));
        }
        store.flush_all().unwrap();
        // Overwrite a slice, delete a slice, spill those too: each key
        // they touch is in both spills once, the second spill's version
        // newest.
        let spills = store.stats().spills;
        let mut rewritten = std::collections::BTreeSet::new();
        let mut deleted = 0u64;
        for i in (0..900).step_by(10) {
            let v = format!("v2-{i}").into_bytes();
            store.set(&key(i), &v).unwrap();
            reference.insert(key(i), v);
            rewritten.insert(i);
        }
        for i in (0..900).step_by(17) {
            store.delete(&key(i)).unwrap();
            reference.remove(&key(i));
            rewritten.insert(i);
            deleted += 1;
        }
        store.flush_all().unwrap();
        assert_eq!(store.stats().spills, spills + 1, "one second spill");
        let before = store.segment_count();
        assert!(before >= 2);

        let summary = store.compact().unwrap();
        assert_eq!(summary.merged_segments, before);
        assert_eq!(summary.live_entries, reference.len() as u64);
        assert_eq!(summary.shadowed_dropped, rewritten.len() as u64);
        assert_eq!(summary.tombstones_dropped, deleted);
        // A tombstone written into L1 would raise the record count above
        // the live entries.
        assert_eq!(
            store.stats().cold_records,
            summary.live_entries,
            "L1 never stores a tombstone"
        );
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.l0_segment_count(), 0, "compact drains L0");
        assert_eq!(store.l1_partition_count(), 1);

        // Observationally identical to the reference after compaction.
        for i in 0..900 {
            assert_eq!(
                store.get(&key(i)).unwrap(),
                reference.get(&key(i)).cloned(),
                "key {i}"
            );
        }
        // Old segment files are gone; only the merged one plus MANIFEST.
        let seg_files = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".seg")
            })
            .count();
        assert_eq!(seg_files, 1);
    }

    #[test]
    fn compacting_everything_away_leaves_an_empty_cold_tier() {
        let (dir, _guard) = temp_dir("compact-empty");
        let store = TieredStore::open(small_config(&dir)).unwrap();
        for i in 0..300 {
            store.set(&key(i), &value(i)).unwrap();
        }
        store.flush_all().unwrap();
        for i in 0..300 {
            store.delete(&key(i)).unwrap();
        }
        store.flush_all().unwrap();
        let summary = store.compact().unwrap();
        assert_eq!(summary.live_entries, 0);
        assert_eq!(store.segment_count(), 0);
        for i in (0..300).step_by(23) {
            assert_eq!(store.get(&key(i)).unwrap(), None);
        }
    }

    #[test]
    fn compaction_splits_l1_into_sorted_non_overlapping_partitions() {
        let (dir, _guard) = temp_dir("split");
        let store = TieredStore::open(small_config(&dir).with_planner(PlannerConfig {
            target_partition_bytes: 8 * 1024, // force splits
            ..PlannerConfig::default()
        }))
        .unwrap();
        for i in 0..1_200 {
            store.set(&key(i), &value(i)).unwrap();
        }
        store.flush_all().unwrap();
        let summary = store.compact().unwrap();
        assert!(
            summary.output_partitions >= 2,
            "the split boundary must produce multiple partitions, got {}",
            summary.output_partitions
        );
        assert_eq!(store.l1_partition_count(), summary.output_partitions);
        let (l0, l1) = store.leveled_stats();
        assert!(l0.is_empty());
        for pair in l1.windows(2) {
            assert!(
                pair[0].max_key < pair[1].min_key,
                "L1 partitions sorted and pairwise non-overlapping"
            );
        }
        // Reads binary-search the covering partition; every key answers.
        for i in (0..1_200).step_by(13) {
            assert_eq!(
                store.get(&key(i)).unwrap().as_deref(),
                Some(value(i).as_slice())
            );
        }
        assert!(store.get(b"user:999999").unwrap().is_none());
        // Reopen: the leveled layout (manifest v4) survives.
        drop(store);
        let reopened = TieredStore::open(small_config(&dir)).unwrap();
        assert_eq!(reopened.l1_partition_count(), summary.output_partitions);
        assert_eq!(reopened.l0_segment_count(), 0);
        for i in (0..1_200).step_by(29) {
            assert_eq!(
                reopened.get(&key(i)).unwrap().as_deref(),
                Some(value(i).as_slice())
            );
        }
    }

    #[test]
    fn second_open_of_a_live_directory_is_refused() {
        let (dir, _guard) = temp_dir("lock");
        let store = TieredStore::open(small_config(&dir)).unwrap();
        match TieredStore::open(small_config(&dir)) {
            Err(TierError::DirectoryLocked { dir: locked }) => assert_eq!(locked, dir),
            other => panic!("expected DirectoryLocked, got {other:?}"),
        }
        drop(store);
        // Released on drop: the directory opens again.
        TieredStore::open(small_config(&dir)).unwrap();
    }

    /// Reopen rebuilds every segment's stats from its footer: one L1
    /// partition and one L0 segment holding a tombstone come back with
    /// the counts, byte sizes and key ranges the commits published.
    #[test]
    fn reopen_recovers_spilled_state() {
        let (dir, _guard) = temp_dir("reopen");
        let before = {
            let store = TieredStore::open(small_config(&dir)).unwrap();
            for i in 0..700 {
                store.set(&key(i), &value(i)).unwrap();
            }
            store.flush_all().unwrap();
            store.compact().unwrap();
            for i in (0..700).step_by(50) {
                store.set(&key(i), &value(i)).unwrap();
            }
            store.delete(&key(13)).unwrap();
            store.flush_all().unwrap();
            store.leveled_stats()
        };
        let (l0, l1) = &before;
        assert_eq!(
            (l0.len(), l1.len()),
            (1, 1),
            "one L0 segment over one L1 partition"
        );
        assert_eq!((l0[0].records, l0[0].tombstones), (15, 1));
        assert_eq!((l1[0].records, l1[0].tombstones), (700, 0));
        for stats in l0.iter().chain(l1) {
            let file = dir.join(manifest::segment_file_name(stats.id));
            assert_eq!(stats.bytes, std::fs::metadata(file).unwrap().len());
        }

        let store = TieredStore::open(small_config(&dir)).unwrap();
        assert_eq!(store.leveled_stats(), before, "stats survive reopen");
        assert_eq!(store.hot_len(), 0);
        for i in (0..700).step_by(31) {
            let expected = if i == 13 { None } else { Some(value(i)) };
            assert_eq!(store.get(&key(i)).unwrap(), expected, "key {i}");
        }
    }

    #[test]
    fn reopen_sweeps_orphaned_segments_and_keeps_ids_monotonic() {
        let (dir, _guard) = temp_dir("orphan");
        {
            let store = TieredStore::open(small_config(&dir)).unwrap();
            for i in 0..400 {
                store.set(&key(i), &value(i)).unwrap();
            }
            store.flush_all().unwrap();
        }
        // Simulate a spill that died after writing its segment but before
        // the manifest swap.
        std::fs::write(dir.join("seg-000999.seg"), b"half-written segment").unwrap();
        let store = TieredStore::open(small_config(&dir)).unwrap();
        assert!(!dir.join("seg-000999.seg").exists(), "orphan swept");
        // New segments must not collide with the swept id.
        for i in 400..800 {
            store.set(&key(i), &value(i)).unwrap();
        }
        store.flush_all().unwrap();
        for i in (0..800).step_by(53) {
            assert_eq!(
                store.get(&key(i)).unwrap().as_deref(),
                Some(value(i).as_slice())
            );
        }
    }

    #[test]
    fn wal_reopen_recovers_unspilled_writes_and_deletes() {
        let (dir, _guard) = temp_dir("wal");
        let config = TierConfig::new(&dir)
            .with_watermark(u64::MAX) // never spill: everything rides the WAL
            .with_wal(WalOptions::default());
        {
            let store = TieredStore::open(config.clone()).unwrap();
            for i in 0..200 {
                store.set(&key(i), &value(i)).unwrap();
            }
            for i in (0..200).step_by(10) {
                store.delete(&key(i)).unwrap();
            }
            // No flush: with the WAL off, dropping here would lose all of it.
        }
        let store = TieredStore::open(config).unwrap();
        let report = store.wal_recovery().unwrap();
        assert_eq!(report.records_replayed, 220);
        for i in 0..200 {
            let expect = if i % 10 == 0 { None } else { Some(value(i)) };
            assert_eq!(store.get(&key(i)).unwrap(), expect, "key {i}");
        }
        // A checkpoint bounds the log; a further reopen replays nothing.
        let summary = store.checkpoint_wal().unwrap().unwrap();
        assert!(summary.segments_deleted > 0 || store.wal_stats().unwrap().bytes > 0);
        drop(store);
        let store = TieredStore::open(
            TierConfig::new(&dir)
                .with_watermark(u64::MAX)
                .with_wal(WalOptions::default()),
        )
        .unwrap();
        assert_eq!(store.wal_recovery().unwrap().records_replayed, 0);
        for i in (1..200).step_by(13) {
            let expect = if i % 10 == 0 { None } else { Some(value(i)) };
            assert_eq!(
                store.get(&key(i)).unwrap(),
                expect,
                "key {i} after checkpoint"
            );
        }
    }

    #[test]
    fn concurrent_writers_and_readers_survive_spilling() {
        use std::sync::Arc;
        let (dir, _guard) = temp_dir("threads");
        let store = Arc::new(
            TieredStore::open(
                TierConfig::new(&dir)
                    .with_watermark(16 * 1024)
                    .with_cache_capacity(64 * 1024),
            )
            .unwrap(),
        );
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..400u32 {
                    let key = format!("t{t}:k{i:04}").into_bytes();
                    let value = format!("value-{t}-{i}").into_bytes();
                    store.set(&key, &value).unwrap();
                    assert_eq!(
                        store.get(&key).unwrap().as_deref(),
                        Some(value.as_slice()),
                        "read-your-write for t{t} i{i}"
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every write from every thread is still visible.
        for t in 0..4u32 {
            for i in (0..400u32).step_by(29) {
                let key = format!("t{t}:k{i:04}").into_bytes();
                assert_eq!(
                    store.get(&key).unwrap().unwrap(),
                    format!("value-{t}-{i}").into_bytes()
                );
            }
        }
    }
}
