//! Snapshot-consistent range scans: one ordered pass over every tier.
//!
//! A [`RangeScan`] is a k-way merge across four kinds of source, ranked by
//! recency — exactly the precedence order point lookups use:
//!
//! 1. the **hot cut** ([`pbc_store::TierStore::range_snapshot_encoded`]):
//!    the hot entries and tombstones in range, in key order, from the
//!    start up to the scan's `limit`-th live one, taken under every
//!    shard's read lock at once,
//! 2. a snapshot of the **spill staging area** (entries mid-spill: drained
//!    from hot, not yet durable in a segment),
//! 3. one chain per intersecting **L0 spill segment**, newest first,
//!    holding that one segment (L0 segments may overlap each other, so
//!    all must be merged at once),
//! 4. one chain of the covering **L1 partitions**, in ascending key order
//!    (they are sorted and disjoint, so at most one is open at a time and
//!    later ones are only opened when the scan reaches them).
//!
//! Each merge round takes the smallest key held by any source; the
//! **lowest-ranked** (newest) holder supplies the value and every other
//! holder of the same key is advanced past its shadowed version. A winning
//! tombstone suppresses the key entirely, so deletes are invisible, never
//! resurrected. The result: each live key exactly once, in ascending
//! order, and at most `limit` of them.
//!
//! The limit is what makes the hot cut safe. Past the cut's last key the
//! hot tier is missing from the merge, but every live hot row wins its
//! merge round, so the cut's `limit` live rows are `limit` rows the scan
//! yields at or before that key, and it stops there.
//!
//! ## Snapshot semantics
//!
//! The hot cut is atomic across shards. The iterator pins the `Arc`
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
//! Each cold segment streams through a [`pbc_archive::Scan`] — the cursor
//! compaction merges with too — opened by
//! [`pbc_archive::SegmentReader::scan_range_with`] and fed by the shared
//! [`crate::BlockCache`]: the footer index picks the candidate blocks,
//! and they arrive **one block at a time**, decoded from disk only on a
//! cache miss. A narrow scan touches one or two blocks per intersecting
//! segment, never a whole file, and a re-scan of a hot range is served
//! from cache. The `range_scans`, `scan_segments_opened`,
//! `scan_blocks_decoded`, and `scan_bytes_decoded` counters in
//! [`crate::TierStats`] gauge exactly this work.

use std::collections::VecDeque;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pbc_archive::Scan;
use pbc_obs::{Event, Timer};
use pbc_store::RangeSnapshot;

use crate::commit::{decode_marked, ColdList, ColdSegment};
use crate::error::Result;
use crate::planner::covering_l1;
use crate::store::TierInner;

/// One key with its resolved value; `None` marks a tombstone.
type Versioned = (Vec<u8>, Option<Vec<u8>>);

/// Whether `key` lies past the scan's end bound.
fn beyond_end(key: &[u8], end: &Bound<Vec<u8>>) -> bool {
    match end {
        Bound::Included(e) => key > e.as_slice(),
        Bound::Excluded(e) => key >= e.as_slice(),
        Bound::Unbounded => false,
    }
}

/// One ranked merge input, positioned on its current head entry.
enum Source<'a> {
    /// The hot cut: presorted, unique, bounded, with values still
    /// codec-encoded — a row is copied out and decoded only when the
    /// merge actually reaches it.
    Hot {
        inner: &'a TierInner,
        snapshot: RangeSnapshot,
        /// Next row of `snapshot` to materialise.
        next: usize,
        current: Option<Versioned>,
    },
    /// A presorted, unique, bounded in-memory snapshot whose values are
    /// already decoded (the staging area stores plain bytes).
    Mem {
        iter: std::vec::IntoIter<Versioned>,
        current: Option<Versioned>,
    },
    /// Cold segments opened lazily in order, at most one cursor live at
    /// a time: one L0 segment, or the covering L1 partitions ascending
    /// (they are disjoint).
    Chain {
        inner: &'a TierInner,
        generation: u64,
        pending: VecDeque<Arc<ColdSegment>>,
        cursor: Option<Scan<'a>>,
        start: Vec<u8>,
        end: Option<Vec<u8>>,
        /// The owning scan's shared decode counter, handed to each
        /// lazily-opened partition cursor.
        decoded_blocks: Arc<AtomicU64>,
    },
}

/// Open a cursor over `segment`'s entries in `[start, end]` whose blocks
/// come through the store's cache ([`TierInner::scan_block`]), counting
/// disk decodes into `decoded_blocks`.
fn open_cursor<'a>(
    inner: &'a TierInner,
    segment: Arc<ColdSegment>,
    generation: u64,
    start: &[u8],
    end: Option<&[u8]>,
    decoded_blocks: Arc<AtomicU64>,
) -> Result<Scan<'a>> {
    let fetched = Arc::clone(&segment);
    let cursor = segment.reader.scan_range_with(start, end, move |block| {
        let (decoded, from_disk) = inner.scan_block(&fetched, block, generation)?;
        decoded_blocks.fetch_add(u64::from(from_disk), Ordering::Relaxed);
        Ok(decoded)
    })?;
    inner.obs.scan_segments_opened.inc();
    Ok(cursor)
}

impl Source<'_> {
    /// Key of the head entry; `None` once the source is drained.
    fn key(&self) -> Option<&[u8]> {
        match self {
            Source::Hot { current, .. } | Source::Mem { current, .. } => {
                current.as_ref().map(|(key, _)| key.as_slice())
            }
            Source::Chain { cursor, .. } => cursor
                .as_ref()
                .and_then(|c| c.current())
                .map(|(key, _)| key),
        }
    }

    /// Materialise the head entry — the one place a cold row is copied out
    /// of its block, so rows shadowed by a newer source never are.
    fn take(&mut self) -> Result<Option<Versioned>> {
        let cursor = match self {
            Source::Hot { current, .. } | Source::Mem { current, .. } => return Ok(current.take()),
            Source::Chain { cursor, .. } => cursor,
        };
        cursor
            .as_ref()
            .and_then(|c| c.current())
            .map(|(key, stored)| Ok((key.to_vec(), decode_marked(stored)?)))
            .transpose()
    }

    fn advance(&mut self) -> Result<()> {
        match self {
            Source::Hot {
                inner,
                snapshot,
                next,
                current,
            } => {
                *current = match snapshot.get(*next) {
                    Some((key, stored)) => {
                        let value = stored.map(|s| inner.hot.codec().decode(s)).transpose()?;
                        Some((key.to_vec(), value))
                    }
                    None => None,
                };
                *next += 1;
            }
            Source::Mem { iter, current } => *current = iter.next(),
            Source::Chain {
                inner,
                generation,
                pending,
                cursor,
                start,
                end,
                decoded_blocks,
            } => loop {
                if let Some(open) = cursor {
                    if open.advance()? {
                        break;
                    }
                    *cursor = None;
                }
                let Some(segment) = pending.pop_front() else {
                    break;
                };
                *cursor = Some(open_cursor(
                    inner,
                    segment,
                    *generation,
                    start,
                    end.as_deref(),
                    Arc::clone(decoded_blocks),
                )?);
            },
        }
        Ok(())
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
    end: Bound<Vec<u8>>,
    /// Rows to yield at most: past them the hot cut is incomplete.
    limit: u64,
    /// Merge inputs, ordered by precedence: hot, staging, L0 newest
    /// first, then the L1 chain.
    sources: Vec<Source<'a>>,
    done: bool,
    /// The store, for the close trace event (`None` for provably empty
    /// scans, which never consulted any tier).
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
            sources: Vec::new(),
            done: true,
            inner: None,
            rows: 0,
            decoded_blocks: Arc::new(AtomicU64::new(0)),
            _timer: None,
        }
    }

    /// Assemble a scan of at most `limit` rows from the snapshots the
    /// store prepared. `hot` (the cut for `limit`; values still
    /// codec-encoded, decoded lazily) and `staged` are sorted, unique, and
    /// already bounded to the range; `pinned` is the cold tier at creation
    /// time with its manifest generation.
    pub(crate) fn new(
        inner: &'a TierInner,
        start: Vec<u8>,
        end: Bound<Vec<u8>>,
        limit: usize,
        hot: RangeSnapshot,
        staged: Vec<Versioned>,
        (pinned, generation): (ColdList, u64),
    ) -> Result<RangeScan<'a>> {
        let end_superset: Option<&[u8]> = match &end {
            Bound::Included(e) | Bound::Excluded(e) => Some(e.as_slice()),
            Bound::Unbounded => None,
        };
        let decoded_blocks = Arc::new(AtomicU64::new(0));
        let chain = |pending: VecDeque<Arc<ColdSegment>>| Source::Chain {
            inner,
            generation,
            pending,
            cursor: None,
            start: start.clone(),
            end: end_superset.map(<[u8]>::to_vec),
            decoded_blocks: Arc::clone(&decoded_blocks),
        };
        let mut cold_sources = 0usize;
        let mut sources: Vec<Source<'a>> = Vec::new();
        if !hot.is_empty() {
            sources.push(Source::Hot {
                inner,
                snapshot: hot,
                next: 0,
                current: None,
            });
        }
        if !staged.is_empty() {
            sources.push(Source::Mem {
                iter: staged.into_iter(),
                current: None,
            });
        }
        // L0 newest first: every intersecting segment gets its own chain
        // (they may overlap each other, so all must be merged at once).
        for segment in pinned
            .l0
            .iter()
            .filter(|s| s.stats.intersects(&start, end_superset))
        {
            cold_sources += 1;
            sources.push(chain(VecDeque::from([Arc::clone(segment)])));
        }
        // L1: the covering run, chained in ascending order — partitions
        // are disjoint, so later ones are opened only if the scan actually
        // reaches them.
        let l1_run = covering_l1(&pinned.l1, &start, end_superset);
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
            sources,
            done: false,
            inner: Some(inner),
            rows: 0,
            decoded_blocks,
            _timer: Some(timer),
        };
        for source in &mut scan.sources {
            source.advance()?;
        }
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
    fn next_row(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        loop {
            // The first source holding the smallest current key. Sources
            // are ordered by precedence and the comparison is strict, so
            // this is the lowest-ranked (newest) holder — the winner.
            // Compare by reference; nothing is cloned to find it.
            let mut winner: Option<(usize, &[u8])> = None;
            for (i, source) in self.sources.iter().enumerate() {
                if let Some(key) = source.key() {
                    if winner.is_none_or(|(_, best)| key < best) {
                        winner = Some((i, key));
                    }
                }
            }
            let Some((idx, key)) = winner else {
                return Ok(None);
            };
            if beyond_end(key, &self.end) {
                return Ok(None);
            }
            // Only the winner's row is materialised; every other holder of
            // the same key carries a shadowed version and is stepped past
            // without its row ever being copied.
            let taken = self.sources[idx].take()?;
            self.sources[idx].advance()?;
            let Some((key, value)) = taken else {
                continue;
            };
            for (i, source) in self.sources.iter_mut().enumerate() {
                if i != idx && source.key() == Some(key.as_slice()) {
                    source.advance()?;
                }
            }
            // A winning tombstone deletes the key from the scan.
            if let Some(value) = value {
                self.rows += 1;
                return Ok(Some((key, value)));
            }
        }
    }
}

impl Iterator for RangeScan<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

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
