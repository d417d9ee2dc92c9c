//! Snapshot-consistent range scans: one ordered pass over every tier.
//!
//! A [`RangeScan`] drives the tier's one newest-wins merge (`merge.rs`,
//! the merge compaction jobs drive too) over three kinds of source, ranked
//! by recency as point lookups rank them:
//!
//! 1. the **hot cut** ([`pbc_store::TierStore::range_snapshot_encoded`]):
//!    the hot entries and tombstones in range, in key order, from the
//!    start up to the scan's `limit`-th live one, taken under every
//!    shard's read lock at once,
//! 2. one chain per intersecting **L0 spill segment**, newest first,
//! 3. one chain of the covering **L1 partitions**, opened one at a time
//!    in ascending key order as the scan reaches them.
//!
//! A winning tombstone suppresses the key entirely, so deletes are
//! invisible, never resurrected. The result: each live key exactly once,
//! in ascending order, up to the end bound and at most `limit` of them.
//!
//! The limit is what makes the hot cut safe. Past the cut's last key the
//! hot tier is missing from the merge, but every live hot row wins its
//! merge round, so the cut's `limit` live rows are `limit` rows the scan
//! yields at or before that key, and it stops there.
//!
//! ## Snapshot semantics
//!
//! The hot cut is atomic across shards, and it is taken before the cold
//! tier is pinned: a spill evicts a key from the hot tier only after the
//! segment holding it is published, so a key the cut missed is in the
//! pinned tier. The iterator pins the `Arc`
//! cold-tier snapshot (and its manifest generation, exposed via
//! [`RangeScan::generation`]) for its whole lifetime: a compaction job may
//! retire and unlink segments mid-scan without invalidating it — the
//! pinned readers (and their unlinked files, on unix) stay alive until the
//! scan drops, and a merged output is observationally equal to its inputs,
//! so the scan and the post-commit store agree. Writes issued after the
//! scan was created are **not** visible; writes concurrent with its
//! creation may or may not be.
//!
//! ## Cost model
//!
//! **The hot cut** holds every hot shard's read lock while it sums the
//! shards' row and key-byte counts (sizing its two buffers for
//! `min(limit, rows in the shards)` rows), seeks each shard's ordered map
//! to the start, and pops rows off a binary heap of shard heads: each row
//! costs O(log shards) key compares, its key bytes and one `Arc` clone,
//! never a value copy or a decode. A write to any shard waits that long.
//! Past the locks, a cut row is decoded only if it wins its merge round
//! live. The cut is sized from the limit alone, because it cannot know
//! how many rows the cold tier will supply: with about 40 % of keys hot,
//! a 100-row scan uses about 40 of its 100 cut rows.
//!
//! **Each cold segment** streams through a [`pbc_archive::Scan`] opened by
//! [`pbc_archive::SegmentReader::scan_range_with`] and fed by the shared
//! [`crate::BlockCache`] (a compaction job opens the same cursor but
//! decodes straight from the file, past the cache and these counters):
//! the footer index picks the candidate blocks,
//! and they arrive **one block at a time**, decoded from disk only on a
//! cache miss. A narrow scan touches one or two blocks per intersecting
//! segment, never a whole file, and a re-scan of a hot range is served
//! from cache. The `range_scans`, `scan_segments_opened`,
//! `scan_blocks_decoded`, and `scan_bytes_decoded` counters in
//! [`crate::TierStats`] gauge exactly this work.
//!
//! **Each returned row** costs one key copy and one value copy (a decode
//! for a hot row, the bytes past the liveness marker for a cold one);
//! tombstones and shadowed versions are stepped over without a copy. The
//! bounds are copied once per scan and shared by every source and
//! cursor, so the rest is a constant per scan.

use std::collections::VecDeque;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pbc_obs::{Event, Timer};
use pbc_store::RangeSnapshot;

use crate::commit::{decode_marked, ColdList, ColdSegment};
use crate::error::Result;
use crate::merge::{Fetch, Head, Merge, Source};
use crate::planner::covering_l1;
use crate::store::TierInner;

/// A live row as the scan yields it: key and decoded value.
type Row = (Vec<u8>, Vec<u8>);

/// Whether `key` lies past the scan's end bound.
fn beyond_end(key: &[u8], end: &Bound<Arc<[u8]>>) -> bool {
    match end {
        Bound::Included(e) => key > &e[..],
        Bound::Excluded(e) => key >= &e[..],
        Bound::Unbounded => false,
    }
}

/// A snapshot-consistent, ordered iterator over the live keys in a range;
/// see [`crate::TieredStore::range_scan_limited`] and the
/// [module docs](self).
///
/// Yields `Result<(key, value)>` pairs in strictly ascending key order,
/// each live key exactly once, with overwrites and tombstones resolved by
/// tier/recency precedence, and at most the scan's limit of them. The
/// first error ends the scan.
pub struct RangeScan<'a> {
    /// The pinned cold-tier snapshot: keeps every segment the scan may
    /// read alive (readers and, on unix, unlinked files) even after a
    /// concurrent compaction retires them.
    _pinned: Option<ColdList>,
    generation: u64,
    end: Bound<Arc<[u8]>>,
    /// Rows to yield at most: past them the hot cut is incomplete.
    limit: u64,
    /// The merge over hot, L0 newest first, then the L1 chain.
    merge: Merge<'a>,
    done: bool,
    /// The store, for hot decodes and the close trace event (`None` for
    /// provably empty scans, which never consulted any tier).
    inner: Option<&'a TierInner>,
    /// Rows this scan has yielded.
    rows: u64,
    /// Disk decodes across every cursor this scan opened.
    decoded_blocks: Arc<AtomicU64>,
    /// Open-to-close latency; records into `pbc_tier_scan_latency_ns` when
    /// the scan drops (after the `Drop` impl emits the close event).
    _timer: Option<Timer>,
}

impl<'a> RangeScan<'a> {
    /// A scan over a provably empty interval: no sources, yields nothing.
    pub(crate) fn empty(generation: u64) -> RangeScan<'a> {
        RangeScan {
            _pinned: None,
            generation,
            end: Bound::Unbounded,
            limit: 0,
            merge: Merge::default(),
            done: true,
            inner: None,
            rows: 0,
            decoded_blocks: Arc::new(AtomicU64::new(0)),
            _timer: None,
        }
    }

    /// Assemble a scan of at most `limit` rows from the snapshots the
    /// store prepared. `hot` (the cut for `limit`; values still
    /// codec-encoded, decoded lazily) is sorted, unique, and already
    /// bounded to the range; `pinned` is the cold tier, pinned after `hot`
    /// was cut, with its manifest generation. The bounds are the scan's
    /// one copy, shared by every source and cursor.
    pub(crate) fn new(
        inner: &'a TierInner,
        start: Arc<[u8]>,
        end: Bound<Arc<[u8]>>,
        limit: usize,
        hot: RangeSnapshot,
        (pinned, generation): (ColdList, u64),
    ) -> Result<RangeScan<'a>> {
        // Inclusive even for an excluded end: the scan drops the end key.
        let end_superset = match &end {
            Bound::Included(e) | Bound::Excluded(e) => Some(Arc::clone(e)),
            Bound::Unbounded => None,
        };
        let decoded_blocks = Arc::new(AtomicU64::new(0));
        let chain = |pending: VecDeque<Arc<ColdSegment>>| {
            let fetch = Fetch::Cached {
                inner,
                generation,
                decoded_blocks: Arc::clone(&decoded_blocks),
            };
            Source::chain(pending, Arc::clone(&start), end_superset.clone(), fetch)
        };
        let mut cold_sources = 0usize;
        let mut sources: Vec<Source<'a>> = Vec::new();
        if !hot.is_empty() {
            sources.push(Source::Hot {
                snapshot: hot,
                next: 0,
            });
        }
        // L0 newest first: every intersecting segment gets its own chain.
        for segment in pinned
            .l0
            .iter()
            .filter(|s| s.stats.intersects(&start, end_superset.as_deref()))
        {
            cold_sources += 1;
            sources.push(chain(VecDeque::from([Arc::clone(segment)])));
        }
        // L1: the covering run, one chain — later partitions are opened
        // only if the scan actually reaches them.
        let l1_run = covering_l1(&pinned.l1, &start, end_superset.as_deref());
        let covering: VecDeque<Arc<ColdSegment>> = pinned.l1[l1_run].iter().cloned().collect();
        if !covering.is_empty() {
            cold_sources += covering.len();
            sources.push(chain(covering));
        }
        inner.obs.trace(Event::ScanOpened {
            segments: cold_sources,
        });
        let timer = inner.obs.scan_ns.start_timer();
        let mut scan = RangeScan {
            _pinned: Some(pinned),
            generation,
            end,
            limit: limit as u64,
            merge: Merge::default(),
            done: false,
            inner: Some(inner),
            rows: 0,
            decoded_blocks,
            _timer: Some(timer),
        };
        scan.merge = Merge::new(sources)?;
        Ok(scan)
    }

    /// The manifest generation this scan's cold snapshot was committed
    /// under — fixed at creation, even if compaction commits newer
    /// generations while the scan runs.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl RangeScan<'_> {
    /// The next live row, or `None` once every source is drained or the
    /// smallest pending key passed the end bound.
    fn next_row(&mut self) -> Result<Option<Row>> {
        let Some(inner) = self.inner else {
            return Ok(None);
        };
        loop {
            let Some((key, head)) = self.merge.head() else {
                return Ok(None);
            };
            if beyond_end(key, &self.end) {
                return Ok(None);
            }
            // Only a live winner is copied out; a winning tombstone
            // deletes the key from the scan.
            let row = match head {
                Head::Hot(Some(stored)) => Some((key.to_vec(), inner.hot.decode(stored)?)),
                Head::Hot(None) => None,
                Head::Cold(stored) => decode_marked(stored)?.map(|value| (key.to_vec(), value)),
            };
            self.merge.step()?;
            if let Some(row) = row {
                self.rows += 1;
                return Ok(Some(row));
            }
        }
    }
}

impl Iterator for RangeScan<'_> {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.rows == self.limit {
            return None;
        }
        let row = self.next_row().transpose();
        // The first error, like the end of the range, ends the scan.
        self.done = !matches!(row, Some(Ok(_)));
        row
    }
}

impl Drop for RangeScan<'_> {
    fn drop(&mut self) {
        // Emit the close event first; the open-to-close timer field drops
        // right after this body, recording the scan's latency.
        if let Some(inner) = self.inner {
            inner.obs.trace(Event::ScanClosed {
                rows: self.rows,
                blocks_decoded: self.decoded_blocks.load(Ordering::Relaxed),
            });
        }
    }
}
