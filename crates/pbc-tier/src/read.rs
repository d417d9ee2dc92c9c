//! The read path. Owns lookup precedence (hot → cache → L0 → L1), what a
//! point get and a scan read through and admit to the cache, and the
//! snapshot order that makes a range scan lose nothing to concurrent tier
//! movement.

use std::ops::{Bound, Range};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pbc_archive::DecodedBlock;
use pbc_store::Lookup;

use crate::cache::Cached;
use crate::commit::{decode_marked, ColdSegment, ColdTier};
use crate::error::Result;
use crate::planner::covering_l1;
use crate::scan::RangeScan;
use crate::store::TierInner;

/// What one cold lookup did at the segment level.
#[derive(Default)]
struct BlockProbes {
    /// Segments whose footer indexes were consulted.
    segments: usize,
    /// Segments whose cache entries were consulted (the footer named a
    /// candidate block).
    probed: usize,
    /// Whether any consulted block had to be read from disk.
    missed: bool,
}

impl TierInner {
    pub(crate) fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _timer = self.obs.get_ns.start_timer();
        match self.hot.lookup(key)? {
            Lookup::Live(value) => {
                self.obs.hot_hits.inc();
                Ok(Some(value))
            }
            Lookup::Tombstone => {
                self.obs.tombstone_negatives.inc();
                Ok(None)
            }
            // A spill evicts a key only after publishing the segment that
            // holds it, so a hot miss finds the key cold.
            Lookup::Absent => self.cold_get(key),
        }
    }

    /// Cold lookup through the cache over a lock-free snapshot of
    /// the cold tier (concurrent compaction may retire segments out from
    /// under us; our snapshot keeps their readers alive and answers
    /// identically, since a merged output is observationally equal to its
    /// inputs).
    pub(crate) fn cold_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let cold = self.cold_snapshot();
        if cold.is_empty() {
            return Ok(None);
        }
        let mut probes = BlockProbes::default();
        let outcome = self.cold_lookup(&cold, key, &mut probes);
        self.obs.cold_segments_scanned.add(probes.segments as u64);
        if probes.probed == 0 {
            // Answered by the footer indexes alone (key outside every
            // block's range) — the cache was never consulted, so this is
            // neither a cache hit nor a miss. Index-only answers stay
            // index-only: nothing is probed or admitted for them.
            self.obs.cold_index_only.inc();
        } else {
            self.obs.cold_gets.inc();
            if probes.missed {
                self.obs.cold_cache_misses.inc();
            } else {
                self.obs.cold_cache_hits.inc();
            }
        }
        outcome
    }

    /// Walk L0 newest-first, then binary-search the one L1 partition whose
    /// range covers the key — O(L0) + O(log L1), not O(segments).
    fn cold_lookup(
        &self,
        cold: &ColdTier,
        key: &[u8],
        probes: &mut BlockProbes,
    ) -> Result<Option<Vec<u8>>> {
        // Searched only once the L0 walk came up empty.
        let covering = || &cold.l1[covering_l1(&cold.l1, key, Some(key))];
        for segment in cold
            .l0
            .iter()
            .chain(std::iter::once_with(covering).flatten())
        {
            probes.segments += 1;
            let blocks = segment.reader.candidate_blocks_for_key(key)?;
            if blocks.is_empty() {
                continue;
            }
            probes.probed += 1;
            if let Some(found) = self.segment_lookup(segment, blocks, key, probes)? {
                return Ok(found);
            }
        }
        Ok(None)
    }

    /// Resolve `key` in one segment whose candidate `blocks` are known:
    /// `None` when the segment does not hold the key, else its live value
    /// or `Some(None)` for a tombstone.
    ///
    /// One cache probe asks for the key's record entry, then for its
    /// block. A record hit answers with no block at all. A lookup that
    /// had to decode admits the record it resolved (a negative one when
    /// the segment lacks the key) and offers the decoded block to the
    /// cache's free budget only ([`crate::BlockCache::admit_point`]).
    fn segment_lookup(
        &self,
        segment: &ColdSegment,
        blocks: Range<usize>,
        key: &[u8],
        probes: &mut BlockProbes,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let id = segment.stats.id;
        let mut cached = match self.cache.point_get(id, key, blocks.start) {
            Some(Cached::Record(stored)) => {
                return stored.as_deref().map(decode_marked).transpose();
            }
            Some(Cached::Block(block)) => Some(block),
            None => None,
        };
        // The probed block, when it had to be decoded: offered to the
        // cache's free budget.
        let mut decoded = None;
        let mut missed = false;
        // Tier segments hold each key once, so one candidate block is the
        // norm; a key straddling blocks reads the rest through the block
        // read-through.
        for index in blocks.clone() {
            let block = match cached.take() {
                Some(block) => block,
                None if index == blocks.start => {
                    missed = true;
                    let block = self.decode_block(segment, index)?;
                    decoded = Some((index, Arc::clone(&block)));
                    block
                }
                None => {
                    let (block, from_disk) = self.lookup_or_decode_block(segment, index, true)?;
                    missed |= from_disk;
                    block
                }
            };
            if let Some(stored) = block.find_last(key) {
                let found = decode_marked(stored)?;
                if missed {
                    probes.missed = true;
                    self.cache.admit_point(id, key, Some(stored), decoded);
                }
                return Ok(Some(found));
            }
        }
        if missed {
            probes.missed = true;
            self.cache.admit_point(id, key, None, decoded);
        }
        Ok(None)
    }

    /// Build a [`RangeScan`] from `start` to `end` that yields at most
    /// `limit` rows.
    ///
    /// Snapshot order is what makes the scan lose nothing to concurrent
    /// tier movement: **the hot cut first, the cold tier second.** A spill
    /// evicts a key from the hot tier only after the segment holding it
    /// is published (spill step 4 follows step 3), so a key missing from
    /// our hot cut is already in the cold snapshot we take next. The
    /// duplicate case (published cold while still hot) is harmless: hot
    /// outranks cold in the merge, and its version is the same or newer.
    /// The hot cut stops at its `limit`-th live row.
    pub(crate) fn range_scan(
        &self,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
        limit: usize,
    ) -> Result<RangeScan<'_>> {
        self.obs.range_scans.inc();
        // Normalize the lower bound to an inclusive key: for byte-string
        // keys the successor of `k` is `k ++ 0x00`, so an excluded start
        // is exact, not approximate.
        let start: Arc<[u8]> = match start {
            Bound::Included(k) => k.into(),
            Bound::Excluded(k) => k.iter().copied().chain([0]).collect(),
            Bound::Unbounded => Arc::default(),
        };
        // A provably empty scan: nothing to snapshot.
        let empty = match end {
            Bound::Included(e) => *start > *e,
            Bound::Excluded(e) => *start >= *e,
            Bound::Unbounded => false,
        };
        if empty || limit == 0 {
            return Ok(RangeScan::empty(self.generation.load(Ordering::Relaxed)));
        }
        let end_superset = match end {
            Bound::Included(e) | Bound::Excluded(e) => Some(e),
            Bound::Unbounded => None,
        };
        // Encoded values only: the scan's hot source decodes them lazily,
        // after every shard lock is released — a wide scan never stalls
        // writers for the length of a decompression pass, and an
        // early-terminated scan decodes only what it yields.
        let hot = self.hot.range_snapshot_encoded(&start, end_superset, limit);
        let pinned = self.pinned_cold();
        // The scan's one copy of its end bound.
        let end = end.map(Arc::from);
        RangeScan::new(self, start, end, limit, hot, pinned)
    }

    /// The block read-through: look the block up, decode it from disk on
    /// a miss, and publish it to the cache when `publish` is set. Returns
    /// the block and whether a disk decode happened.
    fn lookup_or_decode_block(
        &self,
        segment: &ColdSegment,
        block: usize,
        publish: bool,
    ) -> pbc_archive::Result<(Arc<DecodedBlock>, bool)> {
        let cache_key = (segment.stats.id, block);
        if let Some(decoded) = self.cache.get(cache_key) {
            return Ok((decoded, false));
        }
        let decoded = self.decode_block(segment, block)?;
        if publish {
            self.cache.insert(cache_key, Arc::clone(&decoded));
        }
        Ok((decoded, true))
    }

    /// Read and decode one block from disk.
    fn decode_block(
        &self,
        segment: &ColdSegment,
        block: usize,
    ) -> pbc_archive::Result<Arc<DecodedBlock>> {
        // Fetch latency is miss-path only: a hit costs one map lookup and
        // timing it would drown the histogram in nanosecond noise.
        let _timer = self.obs.cache_fetch_ns.start_timer();
        Ok(Arc::new(segment.reader.read_block(block)?))
    }

    /// Fetch one decoded block for a range scan pinned at
    /// `pinned_generation`, consulting the cache first and counting disk
    /// decodes toward the scan gauges; returns the block and whether a
    /// disk decode happened (so the scan can count its own decodes for
    /// its close event). Decoded blocks are published to the cache only
    /// while the pinned snapshot is still the live one: once a commit
    /// supersedes it, the scan's segments may already be retired, and
    /// caching blocks under retired ids would spend the bytes-bounded
    /// budget on entries no future lookup can hit.
    pub(crate) fn scan_block(
        &self,
        segment: &ColdSegment,
        block: usize,
        pinned_generation: u64,
    ) -> pbc_archive::Result<(Arc<DecodedBlock>, bool)> {
        let live = self.generation.load(Ordering::Relaxed) == pinned_generation;
        let (decoded, from_disk) = self.lookup_or_decode_block(segment, block, live)?;
        if from_disk {
            self.obs.scan_blocks_decoded.inc();
            self.obs.scan_bytes_decoded.add(decoded.heap_bytes() as u64);
        }
        Ok((decoded, from_disk))
    }
}
