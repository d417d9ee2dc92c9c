//! The committed cold tier. Owns what a cold segment is, the one place a
//! new segment set becomes live (`MANIFEST` swap, then the `cold` pointer
//! swap), the value marker byte, and the unlinking of files no manifest
//! names ([`UncommittedFiles`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pbc_archive::SegmentReader;
use pbc_obs::Event;

use crate::config::TierConfig;
use crate::error::{Result, TierError};
use crate::manifest::{Manifest, ManifestEntry};
use crate::obs::TierObs;
use crate::planner::{Leveled, SegmentStats, LEVEL_L1};
use crate::store::TierInner;

/// Marker prefix for a live cold value.
const MARKER_LIVE: u8 = 0;
/// Marker for a tombstone (the whole stored value is this single byte).
const MARKER_TOMBSTONE: u8 = 1;

/// Encode a live value for cold storage.
pub(crate) fn encode_live(value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(value.len() + 1);
    out.push(MARKER_LIVE);
    out.extend_from_slice(value);
    out
}

/// The single-byte tombstone record.
pub(crate) fn encode_tombstone() -> Vec<u8> {
    vec![MARKER_TOMBSTONE]
}

/// Whether a stored cold value is a tombstone.
pub(crate) fn is_tombstone(stored: &[u8]) -> bool {
    stored.first() == Some(&MARKER_TOMBSTONE)
}

/// Strip the marker: `Ok(Some(value))` for live, `Ok(None)` for tombstone.
pub(crate) fn decode_marked(stored: &[u8]) -> Result<Option<Vec<u8>>> {
    match stored.first() {
        Some(&MARKER_LIVE) => Ok(Some(stored[1..].to_vec())),
        Some(&MARKER_TOMBSTONE) => Ok(None),
        other => Err(TierError::BadValueMarker {
            found: other.copied().unwrap_or(0xff),
        }),
    }
}

/// File name for segment `id`.
pub(crate) fn segment_file_name(id: u64) -> String {
    format!("seg-{id:06}.seg")
}

/// Sweep orphaned segments out of `dir`: files from a spill or compaction
/// that died before (or after) its manifest swap — the output of an
/// uncommitted job, or the retired inputs of a committed one.
/// Unreferenced by `manifest`, so unreachable. Returns the largest segment
/// id named by the manifest or swept, so a new segment never reuses a
/// swept name.
pub(crate) fn sweep_orphans(dir: &Path, manifest: &Manifest) -> Result<u64> {
    let mut max_id = manifest.segments.iter().map(|s| s.stats.id).max();
    for dir_entry in std::fs::read_dir(dir)? {
        let dir_entry = dir_entry?;
        let name = dir_entry.file_name().to_string_lossy().into_owned();
        if let Some(id) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".seg"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            if !manifest.segments.iter().any(|s| s.file_name == name) {
                max_id = max_id.max(Some(id));
                std::fs::remove_file(dir_entry.path())?;
            }
        }
    }
    Ok(max_id.unwrap_or(0))
}

/// Output files written but not yet named by a committed manifest.
/// Dropping the guard unlinks them — every early return between "file
/// created" and "manifest swapped" leaves no debris — unless
/// [`UncommittedFiles::disarm`] ran first.
#[derive(Default)]
pub(crate) struct UncommittedFiles(Vec<PathBuf>);

impl UncommittedFiles {
    /// Take ownership of `path` (before the file is created, so a failed
    /// create is covered too).
    pub(crate) fn push(&mut self, path: PathBuf) {
        self.0.push(path);
    }

    /// The files are committed (or handed to a caller that guards them).
    pub(crate) fn disarm(mut self) {
        self.0.clear();
    }
}

impl Drop for UncommittedFiles {
    fn drop(&mut self) {
        for path in &self.0 {
            // pbc-allow(drop-result): failed-commit cleanup; no manifest names the file, and reopen sweeps whatever survives
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One cold segment: its reader, on-disk name, and the stats (id, level,
/// counts, byte size, key range) the manifest records and the compaction
/// planner scores it by. Immutable once published; shared between the
/// live tier and any in-flight read/scan snapshots via `Arc`.
///
/// Every segment holds each key at most once, in ascending order: a spill
/// writes the staging `BTreeMap` and a merge emits each key once. Reads
/// rely on it — a cold cursor never has a duplicate run to collapse.
pub(crate) struct ColdSegment {
    file_name: String,
    pub(crate) reader: SegmentReader,
    pub(crate) stats: SegmentStats,
}

impl ColdSegment {
    /// Open `file_name` in the store directory — the one place a cold
    /// reader is opened and wired to the store's metrics. `stats` sees
    /// the open reader, so a segment this process just wrote can take its
    /// key range from the footer ([`TierInner::open_written`]) while a
    /// reopened one passes what the manifest recorded.
    pub(crate) fn open(
        config: &TierConfig,
        obs: &TierObs,
        file_name: String,
        stats: impl FnOnce(&SegmentReader) -> SegmentStats,
    ) -> Result<Arc<ColdSegment>> {
        let path = config.dir.join(&file_name);
        let mut reader = SegmentReader::open(&path)?;
        reader.set_obs(obs.reader.clone());
        let stats = stats(&reader);
        Ok(Arc::new(ColdSegment {
            file_name,
            reader,
            stats,
        }))
    }
}

impl Leveled for Arc<ColdSegment> {
    fn stats(&self) -> &SegmentStats {
        &self.stats
    }
}

/// The immutable two-level cold tier snapshot readers and scans walk.
#[derive(Default)]
pub(crate) struct ColdTier {
    /// Recency-ordered spill segments, newest first; may overlap.
    pub(crate) l0: Vec<Arc<ColdSegment>>,
    /// Sorted, pairwise non-overlapping partitions, ascending by key.
    pub(crate) l1: Vec<Arc<ColdSegment>>,
}

impl ColdTier {
    /// Reopen every segment `manifest` names.
    pub(crate) fn load(config: &TierConfig, obs: &TierObs, manifest: &Manifest) -> Result<Self> {
        let mut tier = ColdTier::default();
        for entry in &manifest.segments {
            let segment = ColdSegment::open(config, obs, entry.file_name.clone(), |_| {
                entry.stats.clone()
            })?;
            if entry.stats.level == LEVEL_L1 {
                tier.l1.push(segment);
            } else {
                tier.l0.push(segment);
            }
        }
        tier.check_l1_invariant()?;
        Ok(tier)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.l0.is_empty() && self.l1.is_empty()
    }

    /// Every segment, L0 first (newest first), then L1 ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Arc<ColdSegment>> {
        self.l0.iter().chain(self.l1.iter())
    }

    /// `(records, tombstones)` stored across every segment.
    pub(crate) fn record_totals(&self) -> (u64, u64) {
        self.iter().fold((0, 0), |(records, tombstones), s| {
            (records + s.stats.records, tombstones + s.stats.tombstones)
        })
    }

    /// The manifest naming this tier, under `generation`.
    fn manifest(&self, generation: u64) -> Manifest {
        Manifest {
            generation,
            segments: self
                .iter()
                .map(|s| ManifestEntry {
                    file_name: s.file_name.clone(),
                    stats: s.stats.clone(),
                })
                .collect(),
        }
    }

    /// L1 must stay sorted and pairwise non-overlapping — the invariant
    /// the binary-searched read path and range-selected jobs rely on.
    pub(crate) fn check_l1_invariant(&self) -> Result<()> {
        for pair in self.l1.windows(2) {
            if pair[0].stats.max_key >= pair[1].stats.min_key {
                return Err(TierError::ManifestCorrupt {
                    context: format!(
                        "L1 partitions {} and {} overlap or are out of order",
                        pair[0].stats.id, pair[1].stats.id
                    ),
                });
            }
        }
        Ok(())
    }
}

/// An immutable snapshot of the live cold tier.
pub(crate) type ColdList = Arc<ColdTier>;

impl TierInner {
    /// Open a segment this store just wrote: counts and byte size as its
    /// writer reported them (never a re-stat whose transient failure would
    /// silently record a 0-byte segment), key range from its footer.
    pub(crate) fn open_written(
        &self,
        file_name: String,
        stats: SegmentStats,
    ) -> Result<Arc<ColdSegment>> {
        ColdSegment::open(&self.config, &self.obs, file_name, |reader| SegmentStats {
            min_key: reader.min_key().unwrap_or_default().to_vec(),
            max_key: reader.max_key().unwrap_or_default().to_vec(),
            ..stats
        })
    }

    /// Publish the cold-tier gauges for a just-committed segment set.
    /// Called outside the `cold` write lock — the gauges are advisory
    /// (exported snapshots), while [`crate::TieredStore::stats`] derives
    /// its gauges from the live tier under the read lock and stays exact.
    pub(crate) fn publish_gauges(&self, tier: &ColdTier, generation: u64) {
        let (records, tombstones) = tier.record_totals();
        self.obs.cold_records.set(records);
        self.obs.cold_tombstones.set(tombstones);
        self.obs.l0_segments.set(tier.l0.len() as u64);
        self.obs.l1_partitions.set(tier.l1.len() as u64);
        self.obs.generation.set(generation);
        // The registry gauge above can be a no-op (metrics disabled), so
        // the write-pressure hook keeps its own mirror.
        self.l0_count_hint
            .store(tier.l0.len() as u64, Ordering::Relaxed);
    }

    /// Commit `tier` as the next generation and make it the live cold
    /// tier: manifest swap, then the pointer swap with the generation
    /// stored **under the same `cold` write lock** — so any reader holding
    /// the `cold` read lock sees a generation that matches the segment set
    /// it is looking at — then gauges and the trace event. Returns the new
    /// generation. Callers must hold `commit_lock` (it serializes
    /// generation bumps and successor-tier construction); on `Err` nothing
    /// was published and the old manifest is still live, so the caller
    /// only has its own files to clean up.
    pub(crate) fn publish(&self, tier: Arc<ColdTier>) -> Result<u64> {
        debug_assert!(tier.check_l1_invariant().is_ok());
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        tier.manifest(generation).store_checked(&self.config.dir)?;
        {
            let mut cold = self.cold_write();
            *cold = Arc::clone(&tier);
            self.generation.store(generation, Ordering::Relaxed);
        }
        self.publish_gauges(&tier, generation);
        self.obs.trace(Event::ManifestGeneration { generation });
        Ok(generation)
    }

    /// Drop retired segments from the cache and the directory. In-flight
    /// reads over older snapshots still hold the readers (open fds), so
    /// they finish correctly; retired segment ids are never reused, so a
    /// late cache insert under a retired id can serve no future lookup and
    /// simply ages out by LRU.
    pub(crate) fn unlink_retired(&self, retired: &[Arc<ColdSegment>]) {
        let ids: Vec<u64> = retired.iter().map(|s| s.stats.id).collect();
        self.cache.evict_segments(&ids);
        for segment in retired {
            // pbc-allow(drop-result): retired segments are removed best-effort after the commit; recovery sweeps leftovers
            let _ = std::fs::remove_file(self.config.dir.join(&segment.file_name));
        }
    }
}
