//! The read path. Owns lookup precedence (hot → staging → cache → L0 →
//! L1), the one cache read-through, and the snapshot order that makes a
//! range scan lose nothing to concurrent tier movement.

use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pbc_archive::DecodedBlock;
use pbc_store::Lookup;

use crate::commit::{decode_marked, ColdSegment, ColdTier};
use crate::error::Result;
use crate::planner::covering_l1;
use crate::scan::RangeScan;
use crate::store::TierInner;

/// Where [`TierInner::memory_lookup`] found the newest in-memory version
/// of a key; an inner `None` is a tombstone.
pub(crate) enum InMemory {
    /// The hot tier holds it.
    Hot(Option<Vec<u8>>),
    /// The in-flight spill's staging area holds it.
    Staged(Option<Vec<u8>>),
    /// Neither does: the cold tier decides.
    Absent,
}

/// What one cold lookup did at the segment and block level.
#[derive(Default)]
struct BlockProbes {
    /// Segments whose footer indexes were consulted.
    segments: usize,
    /// Blocks consulted (cache lookups attempted).
    probed: usize,
    /// Whether any consulted block had to be read from disk.
    missed: bool,
}

impl TierInner {
    /// The newest version of `key` held in memory: the hot slot, else the
    /// in-flight spill's staged copy.
    ///
    /// Data normally moves *down* (hot → staging → cold), the direction
    /// this probes, but a failed spill moves staged entries back *up*
    /// into the hot tier. So the hot slot is consulted again after a
    /// staging miss, or a racing reader could fall through to cold and
    /// see an older version (or a stale `None`).
    pub(crate) fn memory_lookup(&self, key: &[u8]) -> Result<InMemory> {
        let hot = || -> Result<InMemory> {
            Ok(match self.hot.lookup(key)? {
                Lookup::Live(value) => InMemory::Hot(Some(value)),
                Lookup::Tombstone => InMemory::Hot(None),
                Lookup::Absent => InMemory::Absent,
            })
        };
        match hot()? {
            InMemory::Absent => {}
            found => return Ok(found),
        }
        if let Some(staged) = self.staging_read().get(key) {
            return Ok(InMemory::Staged(staged.clone()));
        }
        hot()
    }

    pub(crate) fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _timer = self.obs.get_ns.start_timer();
        match self.memory_lookup(key)? {
            InMemory::Hot(Some(value)) => {
                self.obs.hot_hits.inc();
                Ok(Some(value))
            }
            InMemory::Hot(None) => {
                self.obs.tombstone_negatives.inc();
                Ok(None)
            }
            InMemory::Staged(staged) => {
                self.obs.staging_hits.inc();
                Ok(staged)
            }
            InMemory::Absent => self.cold_get(key),
        }
    }

    /// Cold lookup through the block cache over a lock-free snapshot of
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
            // neither a cache hit nor a miss.
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
            for block in segment.reader.candidate_blocks_for_key(key)? {
                let decoded = self.cached_block(segment, block, probes)?;
                if let Some(stored) = decoded.find_last(key) {
                    return decode_marked(stored);
                }
            }
        }
        Ok(None)
    }

    /// Build a [`RangeScan`] from `start` to `end` that yields at most
    /// `limit` rows.
    ///
    /// Snapshot order is what makes the scan lose nothing to concurrent
    /// tier movement:
    ///
    /// 1. **Hot and staging are snapshotted under one staging read
    ///    guard.** A spill drain (hot → staging) and a failed-spill
    ///    restore (staging → hot) both hold the staging *write* lock for
    ///    the whole move, so under our read guard no entry can cross the
    ///    hot↔staging boundary between the two snapshots. The hot cut
    ///    stops at its `limit`-th live row; staging is copied whole (it
    ///    is non-empty only mid-spill).
    /// 2. **Cold is snapshotted after staging.** Data leaves staging only
    ///    *after* its segment is published in the cold tier (spill step 5
    ///    clears staging after steps 3–4 commit), so an entry missing
    ///    from our staging snapshot is already in the cold snapshot we
    ///    take next. The duplicate case (published cold while still
    ///    staged) is harmless: staging outranks cold in the merge and
    ///    both copies are identical.
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
        let start = match start {
            Bound::Included(k) => k.to_vec(),
            Bound::Excluded(k) => [k, &[0]].concat(),
            Bound::Unbounded => Vec::new(),
        };
        let end = end.map(<[u8]>::to_vec);
        // A provably empty scan: nothing to snapshot.
        let empty = match &end {
            Bound::Included(e) => start.as_slice() > e.as_slice(),
            Bound::Excluded(e) => start.as_slice() >= e.as_slice(),
            Bound::Unbounded => false,
        };
        if empty || limit == 0 {
            return Ok(RangeScan::empty(self.generation.load(Ordering::Relaxed)));
        }
        let end_superset: Option<&[u8]> = match &end {
            Bound::Included(e) | Bound::Excluded(e) => Some(e.as_slice()),
            Bound::Unbounded => None,
        };
        let (hot_encoded, staged) = {
            let staging = self.staging_read();
            // Encoded clones only: hot values are decoded lazily by the
            // scan's hot source, after the staging guard (and every shard
            // lock) is released — a wide scan never stalls spill drains
            // or writers for the length of a decompression pass, and an
            // early-terminated scan decodes only what it yields.
            let hot_encoded = self.hot.range_snapshot_encoded(&start, end_superset, limit);
            let staged: Vec<(Vec<u8>, Option<Vec<u8>>)> = staging
                .range::<[u8], _>((
                    Bound::Included(start.as_slice()),
                    match end_superset {
                        Some(e) => Bound::Included(e),
                        None => Bound::Unbounded,
                    },
                ))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            (hot_encoded, staged)
        };
        let pinned = self.pinned_cold();
        RangeScan::new(self, start, end, limit, hot_encoded, staged, pinned)
    }

    /// The one cache read-through path: look the block up, decode it from
    /// disk on a miss, and publish it to the cache when `publish` is set.
    /// Returns the block and whether a disk decode happened.
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
        // Fetch latency is miss-path only: a hit costs one map lookup and
        // timing it would drown the histogram in nanosecond noise.
        let decoded = {
            let _timer = self.obs.cache_fetch_ns.start_timer();
            Arc::new(segment.reader.read_block(block)?)
        };
        if publish {
            self.cache.insert(cache_key, Arc::clone(&decoded));
        }
        Ok((decoded, true))
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

    /// Fetch one decoded block for a point lookup, consulting the cache
    /// first.
    fn cached_block(
        &self,
        segment: &ColdSegment,
        block: usize,
        probes: &mut BlockProbes,
    ) -> Result<Arc<DecodedBlock>> {
        probes.probed += 1;
        let (decoded, from_disk) = self.lookup_or_decode_block(segment, block, true)?;
        if from_disk {
            probes.missed = true;
        }
        Ok(decoded)
    }
}
