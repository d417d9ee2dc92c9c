//! The committed cold tier. Owns what a cold segment is (opened by id and
//! level, described by its own footer), the one way new segments are
//! written ([`RunWriter`]), the one place a new segment set becomes live
//! ([`TierInner::commit`]: successor tier, `MANIFEST` swap, then the
//! `cold` pointer swap), the value marker byte, and the unlinking of files
//! no manifest names ([`UncommittedFiles`]).

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pbc_archive::{entry_size_estimate, CodecSpec, SegmentConfig, SegmentReader, SegmentWriter};
use pbc_obs::Event;

use crate::config::TierConfig;
use crate::error::{Result, TierError};
use crate::manifest::{segment_file_name, Manifest, ManifestEntry};
use crate::obs::TierObs;
use crate::planner::{promotion_l1, CompactionJob, Leveled, SegmentStats, LEVEL_L1};
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

/// Sweep orphaned segments out of `dir`: files from a spill or compaction
/// that died before (or after) its manifest swap — the output of an
/// uncommitted job, or the retired inputs of a committed one.
/// Unreferenced by `manifest`, so unreachable. Returns the largest segment
/// id named by the manifest or swept, so a new segment never reuses a
/// swept name.
pub(crate) fn sweep_orphans(dir: &Path, manifest: &Manifest) -> Result<u64> {
    let mut max_id = manifest.segments.iter().map(|s| s.id).max();
    for dir_entry in std::fs::read_dir(dir)? {
        let dir_entry = dir_entry?;
        let name = dir_entry.file_name().to_string_lossy().into_owned();
        if let Some(id) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".seg"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            let live =
                name == segment_file_name(id) && manifest.segments.iter().any(|s| s.id == id);
            if !live {
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
/// [`UncommittedFiles::disarm`] ran first. A [`RunWriter`] holds the one
/// guard of its run from the first create through publish.
#[derive(Default)]
struct UncommittedFiles(Vec<PathBuf>);

impl UncommittedFiles {
    /// Take ownership of `path` (before the file is created, so a failed
    /// create is covered too).
    fn push(&mut self, path: PathBuf) {
        self.0.push(path);
    }

    /// The files are committed.
    fn disarm(mut self) {
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

/// A run of new segments on one level, written in ascending key order:
/// the one way a spill or a compaction job writes cold data. It allocates
/// each segment's id, creates its file with the tier's writer metrics,
/// rolls to a new segment once the current one's estimated payload reaches
/// `split_bytes`, and writes every segment after the first with the codec
/// the first committed to. Its files are unlinked on drop unless
/// [`TierInner::commit`] publishes the run.
pub(crate) struct RunWriter<'a> {
    inner: &'a TierInner,
    level: u8,
    /// The spec the run was asked to write with.
    spec: CodecSpec,
    /// The next segment's settings: `spec`, then the first segment's
    /// codec as [`CodecSpec::Pretrained`].
    config: SegmentConfig,
    /// `None` writes one segment, whatever its size.
    split_bytes: Option<u64>,
    /// The segment being appended to (id, writer) and its payload so far,
    /// by the writer's own per-entry estimate.
    open: Option<(u64, SegmentWriter)>,
    open_bytes: u64,
    /// Ids of the finished segments, ascending by key range.
    finished: Vec<u64>,
    files: UncommittedFiles,
}

impl<'a> RunWriter<'a> {
    pub(crate) fn new(
        inner: &'a TierInner,
        level: u8,
        spec: CodecSpec,
        split_bytes: Option<u64>,
    ) -> Self {
        let config = SegmentConfig {
            codec: spec.clone(),
            ..inner.config.segment.clone()
        };
        RunWriter {
            inner,
            level,
            spec,
            config,
            split_bytes,
            open: None,
            open_bytes: 0,
            finished: Vec::new(),
            files: UncommittedFiles::default(),
        }
    }

    /// Append one record; `flagged` counts it in the footer's
    /// `flagged_count` (the tier flags tombstones).
    pub(crate) fn append(&mut self, key: &[u8], value: &[u8], flagged: bool) -> Result<()> {
        if self
            .split_bytes
            .is_some_and(|limit| self.open_bytes >= limit)
        {
            self.close()?;
        }
        let (_, writer) = match self.open.as_mut() {
            Some(open) => open,
            None => {
                let id = self.inner.next_segment_id.fetch_add(1, Ordering::Relaxed);
                let path = self.inner.config.dir.join(segment_file_name(id));
                self.files.push(path.clone());
                let obs = self.inner.obs.writer.clone();
                let writer = SegmentWriter::create_with_obs(&path, self.config.clone(), obs)?;
                self.open.insert((id, writer))
            }
        };
        self.open_bytes += entry_size_estimate(key.len(), value.len()) as u64;
        if flagged {
            writer.append_flagged(key, value)?;
        } else {
            writer.append(key, value)?;
        }
        Ok(())
    }

    /// Finish the open segment, pinning the run's codec after the first.
    fn close(&mut self) -> Result<()> {
        if let Some((id, writer)) = self.open.take() {
            let summary = writer.finish()?;
            if self.finished.is_empty() {
                self.config.codec = CodecSpec::Pretrained(summary.block_codec);
            }
            self.finished.push(id);
            self.open_bytes = 0;
        }
        Ok(())
    }

    /// Finish the run and open its segments at the run's level, ready for
    /// [`TierInner::commit`].
    pub(crate) fn finish(mut self) -> Result<Run> {
        self.close()?;
        let open = |&id| ColdSegment::open(&self.inner.config, &self.inner.obs, id, self.level);
        Ok(Run {
            segments: self.finished.iter().map(open).collect::<Result<_>>()?,
            spec: self.spec,
            written: self.config.codec,
            files: self.files,
        })
    }
}

/// A finished, uncommitted run: its segments ascending by key, the codec
/// it wrote (still `spec` when the run is empty), and its files' guard.
pub(crate) struct Run {
    segments: Vec<Arc<ColdSegment>>,
    spec: CodecSpec,
    written: CodecSpec,
    files: UncommittedFiles,
}

/// How a commit changes the segment set.
pub(crate) enum Edit<'j> {
    /// A spill: its segment becomes the newest L0 segment.
    Spill,
    /// A compaction job: its inputs leave, its outputs join L1 at their
    /// sorted position.
    Job(&'j CompactionJob),
}

/// What a commit published.
pub(crate) struct Committed {
    pub(crate) generation: u64,
    /// The run's segments, now live.
    pub(crate) segments: Vec<Arc<ColdSegment>>,
    /// The job's inputs, no longer live (empty for a spill).
    pub(crate) retired: Vec<Arc<ColdSegment>>,
}

/// One cold segment: its reader, and the stats (id, level, counts, byte
/// size, key range) the compaction planner scores it by. Immutable once
/// published; shared between the live tier and any in-flight read/scan
/// snapshots via `Arc`.
///
/// Every segment holds each key at most once, in ascending order: a spill
/// writes one sorted hot cut and a merge emits each key once. Reads
/// rely on it — a cold cursor never has a duplicate run to collapse.
pub(crate) struct ColdSegment {
    pub(crate) reader: SegmentReader,
    pub(crate) stats: SegmentStats,
}

impl ColdSegment {
    /// Open segment `id` on `level` in the store directory — the one place
    /// a cold reader is opened and wired to the store's metrics, and the
    /// one place a live segment's stats are made. Reopen, the spill commit
    /// and the job commit all come here. Only the id and level come from
    /// the caller; counts, byte size and key range come from the
    /// segment's CRC-checked footer, so they cannot disagree with the
    /// data.
    pub(crate) fn open(
        config: &TierConfig,
        obs: &TierObs,
        id: u64,
        level: u8,
    ) -> Result<Arc<ColdSegment>> {
        let mut reader = SegmentReader::open(config.dir.join(segment_file_name(id)))?;
        reader.set_obs(obs.reader.clone());
        let stats = SegmentStats {
            id,
            level,
            records: reader.record_count(),
            tombstones: reader.flagged_count(),
            bytes: reader.file_len(),
            min_key: reader.min_key().unwrap_or_default().to_vec(),
            max_key: reader.max_key().unwrap_or_default().to_vec(),
        };
        Ok(Arc::new(ColdSegment { reader, stats }))
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
            let segment = ColdSegment::open(config, obs, entry.id, entry.level)?;
            if entry.level == LEVEL_L1 {
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

    /// Per-level statistics: `(L0 newest first, L1 ascending by key)`.
    pub(crate) fn leveled_stats(&self) -> (Vec<SegmentStats>, Vec<SegmentStats>) {
        let stats = |level: &[Arc<ColdSegment>]| level.iter().map(|s| s.stats.clone()).collect();
        (stats(&self.l0), stats(&self.l1))
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
                    id: s.stats.id,
                    level: s.stats.level,
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

    /// Commit `run` as the next generation: the one place a segment set
    /// changes. Under the commit lock (not the cold write lock, so readers
    /// never wait out the slow manifest fsync) it builds the successor of
    /// the *current* tier — spills commit beside a running job, and every
    /// segment-set change commits under this same lock, so the successor
    /// cannot go stale — checks the L1 invariant, publishes, disarms the
    /// run's file guard and adopts the run's codec if it trained one. On
    /// `Err` nothing was published and the run's files are gone.
    pub(crate) fn commit(&self, run: Run, edit: Edit<'_>) -> Result<Committed> {
        let _commit = self.commit_guard();
        let current = self.cold_snapshot();
        let (mut l0, mut l1) = (current.l0.clone(), current.l1.clone());
        let retired = match edit {
            Edit::Spill => {
                l0.splice(0..0, run.segments.iter().cloned());
                Vec::new()
            }
            Edit::Job(job) => {
                let (l0_run, l1_run) = locate_inputs(&current, job)?;
                let retired: Vec<_> = l0.drain(l0_run).chain(l1.drain(l1_run)).collect();
                // The run is ascending and disjoint; splice it in at its
                // sorted position.
                if let Some(first) = run.segments.first() {
                    let at = l1.partition_point(|p| p.stats.max_key < first.stats.min_key);
                    l1.splice(at..at, run.segments.iter().cloned());
                }
                retired
            }
        };
        let tier = Arc::new(ColdTier { l0, l1 });
        tier.check_l1_invariant()?;
        let generation = self.publish(tier)?;
        run.files.disarm();
        if let CodecSpec::Pretrained(written) = &run.written {
            self.codec.adopt(&run.spec, written);
        }
        Ok(Committed {
            generation,
            segments: run.segments,
            retired,
        })
    }

    /// Make `tier` the live cold tier under the next generation: manifest
    /// swap, then the pointer swap with the generation stored **under the
    /// same `cold` write lock** — so any reader holding the `cold` read
    /// lock sees a generation that matches the segment set it is looking
    /// at — then gauges and the trace event. Only [`TierInner::commit`]
    /// calls it, under `commit_lock`; on `Err` the old manifest is still
    /// live.
    fn publish(&self, tier: Arc<ColdTier>) -> Result<u64> {
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
            let _ = std::fs::remove_file(segment.reader.path());
        }
    }
}

/// Locate a job's inputs in the live tier: the L0 inputs as a contiguous
/// newest-first run, the L1 inputs as a contiguous ascending run, and the
/// planner's soundness rules still holding for them. Spills only prepend
/// L0 segments and one job runs at a time, so this fails only on a broken
/// invariant.
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
