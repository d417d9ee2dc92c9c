//! The cold read path's one cache: records for point gets, blocks for
//! scans, one 2Q policy over one byte budget.
//!
//! A block-granular cache pays off when accesses cluster inside blocks, the
//! access pattern LeCo (PAPERS.md) assumes. A hashed or zipfian key space
//! has no such locality: the hot key of an 8 KiB block sits among ~40 cold
//! neighbours, so caching the whole decoded block spends ~9 KiB of budget
//! to keep one record. The paper's case for per-record compression is
//! exactly this lookup pattern. So the cache holds two kinds of entry:
//!
//! * a **record** — `(segment id, key) →` the key's stored bytes in that
//!   segment, or a *negative* entry saying the segment does not hold the
//!   key. Segments are immutable and ids are never reused, so a record
//!   entry cannot go stale; it leaves with its segment
//!   ([`BlockCache::evict_segments`]) or under capacity pressure;
//! * a **block** — `(segment id, block index) → Arc<DecodedBlock>`, what
//!   range scans read through.
//!
//! Admission follows one rule: **never evict for bytes nobody asked for.**
//! A point get that had to decode admits the record it resolved (evicting
//! if it must) and offers the decoded block to the *free* budget only: the
//! block is kept when it fits without evicting anything. A cache with room
//! to spare (the whole cold set fits) therefore still fills with blocks
//! and serves neighbours of a missed key; a full cache converges to the
//! records that are actually read. Scans admit blocks as before.
//!
//! Every entry is charged what it pins: a block its
//! [`DecodedBlock::heap_bytes`], a record its key and stored bytes plus
//! [`RECORD_OVERHEAD`] for its slab and map slots and its allocations.
//!
//! # Replacement policy: 2Q
//!
//! A pure LRU has a failure mode this store actively triggers: a wide
//! `range_scan` streams every candidate block through the cache exactly
//! once, and under LRU each of those single-use blocks lands at the MRU
//! position — flushing the point-lookup working set. 2Q splits the budget
//! into two recency queues, shared by both entry kinds:
//!
//! ```text
//!   insert ──► [ probation (≤ ¼ capacity) ] ──evict──► gone
//!                     │ re-referenced
//!                     ▼ promote
//!              [ protected (rest) ] ──over target──► demoted to probation MRU
//! ```
//!
//! Every admission enters **probation**; an entry only reaches
//! **protected** by being referenced again while still resident. Capacity
//! evictions take the probation LRU first, so a scan's one-touch blocks
//! churn through the small probationary region and the re-referenced hot
//! set in protected survives.
//!
//! Entries are filed per segment, so retiring a segment costs its own
//! entries, not a walk over the whole cache under the lock.

use std::mem::size_of;
use std::sync::Arc;

use parking_lot::Mutex;
use pbc_archive::DecodedBlock;
use pbc_obs::Counter;

use crate::twoq::{Entry, EntryName, Node, SegmentSlots, TwoQ};

/// Cache key of a block entry: `(segment id, block index)`.
pub type BlockKey = (u64, usize);

/// Fraction of capacity reserved for the probationary queue: ¼, the
/// classic 2Q "Kin" sizing.
const PROBATION_FRACTION: usize = 4;

/// Heap bytes a record entry pins beyond its key and stored bytes: its
/// slab slot and its segment-map slot, each doubled for slack (a slab or
/// hash table runs between half and fully used), plus two
/// reference-counted allocations (key and stored bytes), each with its
/// two counts and an allocator header.
pub const RECORD_OVERHEAD: usize = 2
    * (size_of::<(Node, Option<Entry>)>() + size_of::<(Arc<[u8]>, u32)>() + 1)
    + 2 * (2 * size_of::<usize>() + 16);

/// What a cache entry holds, as a lookup returns it
/// ([`BlockCache::point_get`]).
#[derive(Debug, Clone)]
pub enum Cached {
    /// A record entry: the key's stored bytes in that segment, or `None`
    /// when the segment does not hold the key.
    Record(Option<Arc<[u8]>>),
    /// The block entry of the key's candidate block, for the caller to
    /// search.
    Block(Arc<DecodedBlock>),
}

/// The bytes a record entry is charged (see [`RECORD_OVERHEAD`]).
fn record_charge(key: &[u8], stored: Option<&[u8]>) -> usize {
    RECORD_OVERHEAD + key.len() + stored.map_or(0, <[u8]>::len)
}

/// A shared, thread-safe 2Q cache of records and decoded blocks with
/// byte-capacity eviction and hit/miss/eviction/admission counters.
pub struct BlockCache {
    capacity: usize,
    /// Byte budget of the protected queue; probation gets the rest.
    protected_target: usize,
    inner: Mutex<TwoQ>,
    hits: Counter,
    record_hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
    admissions: Counter,
    promotions: Counter,
    probation_evictions: Counter,
}

/// The counters a [`BlockCache`] records into, so callers with a metrics
/// registry can hand the cache registry-backed handles.
#[derive(Clone, Debug, Default)]
pub struct CacheCounters {
    /// Lookups a cached record or block answered.
    pub hits: Counter,
    /// The share of `hits` a record entry answered.
    pub record_hits: Counter,
    /// Lookups nothing cached answered.
    pub misses: Counter,
    /// Entries evicted under capacity pressure (either queue).
    pub evictions: Counter,
    /// Entries dropped because their segment was retired.
    pub invalidations: Counter,
    /// Entries admitted into the cache (always into probation).
    pub admissions: Counter,
    /// Probationary entries promoted to protected on re-reference.
    pub promotions: Counter,
    /// Capacity evictions that took a probationary entry — the scan-churn
    /// share of `evictions`.
    pub probation_evictions: Counter,
}

impl CacheCounters {
    /// Standalone counters not tied to any registry (the
    /// [`BlockCache::new`] default).
    pub fn standalone() -> Self {
        CacheCounters {
            hits: Counter::standalone(),
            record_hits: Counter::standalone(),
            misses: Counter::standalone(),
            evictions: Counter::standalone(),
            invalidations: Counter::standalone(),
            admissions: Counter::standalone(),
            promotions: Counter::standalone(),
            probation_evictions: Counter::standalone(),
        }
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        let (blocks, records) = inner.entry_counts();
        f.debug_struct("BlockCache")
            .field("capacity", &self.capacity)
            .field("cached_bytes", &inner.total_bytes())
            .field("probation_bytes", &inner.probation_bytes())
            .field("protected_bytes", &inner.protected_bytes())
            .field("blocks", &blocks)
            .field("records", &records)
            .field("hits", &self.hits.value())
            .field("record_hits", &self.record_hits.value())
            .field("misses", &self.misses.value())
            .field("evictions", &self.evictions.value())
            .field("invalidations", &self.invalidations.value())
            .finish()
    }
}

impl BlockCache {
    /// Create a 2Q cache bounded to `capacity` bytes (0 disables caching:
    /// every get misses and nothing is kept). Counts into standalone
    /// counters; use [`BlockCache::with_counters`] to count into
    /// registry-backed handles instead.
    pub fn new(capacity: usize) -> Self {
        BlockCache::with_counters(capacity, CacheCounters::standalone())
    }

    /// Like [`BlockCache::new`], but recording into the given handles
    /// (typically obtained from a `pbc_obs::MetricsRegistry`).
    pub fn with_counters(capacity: usize, counters: CacheCounters) -> Self {
        BlockCache {
            capacity,
            protected_target: capacity - capacity / PROBATION_FRACTION,
            inner: Mutex::new(TwoQ::default()),
            hits: counters.hits,
            record_hits: counters.record_hits,
            misses: counters.misses,
            evictions: counters.evictions,
            invalidations: counters.invalidations,
            admissions: counters.admissions,
            promotions: counters.promotions,
            probation_evictions: counters.probation_evictions,
        }
    }

    /// The configured byte capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently charged to cached entries (always `<= capacity`).
    pub fn cached_bytes(&self) -> usize {
        self.inner.lock().total_bytes()
    }

    /// Bytes in the probationary queue.
    pub fn probation_bytes(&self) -> usize {
        self.inner.lock().probation_bytes()
    }

    /// Bytes in the protected queue.
    pub fn protected_bytes(&self) -> usize {
        self.inner.lock().protected_bytes()
    }

    /// Cached block entries.
    pub fn block_count(&self) -> usize {
        self.inner.lock().entry_counts().0
    }

    /// Cached record entries, negative ones included.
    pub fn record_count(&self) -> usize {
        self.inner.lock().entry_counts().1
    }

    /// Cached entries, records and blocks, filed under `segment`.
    pub fn segment_entries(&self, segment: u64) -> usize {
        self.inner
            .lock()
            .segments
            .get(&segment)
            .map_or(0, SegmentSlots::len)
    }

    /// Lookups a cached record or block answered.
    pub fn hits(&self) -> u64 {
        self.hits.value()
    }

    /// The share of [`BlockCache::hits`] a record entry answered.
    pub fn record_hits(&self) -> u64 {
        self.record_hits.value()
    }

    /// Lookups nothing cached answered.
    pub fn misses(&self) -> u64 {
        self.misses.value()
    }

    /// Fraction of lookups that hit, in `0.0..=1.0`. Returns `0.0` before
    /// the first lookup rather than dividing by zero.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Entries evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions.value()
    }

    /// Entries dropped by [`BlockCache::evict_segments`] because their
    /// segment was retired by compaction — distinct from capacity
    /// `evictions`, so cache-pressure and retirement churn stay separately
    /// observable.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.value()
    }

    /// Entries admitted into the cache.
    pub fn admissions(&self) -> u64 {
        self.admissions.value()
    }

    /// Probationary entries promoted to protected on re-reference.
    pub fn promotions(&self) -> u64 {
        self.promotions.value()
    }

    /// Capacity evictions that took a probationary entry.
    pub fn probation_evictions(&self) -> u64 {
        self.probation_evictions.value()
    }

    /// Look a block up, refreshing its recency on a hit.
    pub fn get(&self, (segment, block): BlockKey) -> Option<Arc<DecodedBlock>> {
        match self.lookup(segment, |slots| slots.blocks.get(&block).copied())? {
            Cached::Block(block) => Some(block),
            Cached::Record(_) => None,
        }
    }

    /// A point get's probe of one segment, under one lock: the record
    /// entry for `key` first, then the block entry of its candidate
    /// `block`. Counts one hit (a record hit too, when a record answered)
    /// or one miss.
    pub fn point_get(&self, segment: u64, key: &[u8], block: usize) -> Option<Cached> {
        self.lookup(segment, |slots| {
            slots
                .records
                .get(key)
                .or_else(|| slots.blocks.get(&block))
                .copied()
        })
    }

    /// One lookup under the lock. `probe` picks the entry out of the
    /// segment's maps; a hit moves it to the protected MRU position (see
    /// [`TwoQ::hit`]).
    fn lookup(
        &self,
        segment: u64,
        probe: impl FnOnce(&SegmentSlots) -> Option<u32>,
    ) -> Option<Cached> {
        let found = {
            let mut inner = self.inner.lock();
            let index = inner.segments.get(&segment).and_then(probe);
            index.and_then(|i| inner.hit(i, self.protected_target))
        };
        let Some((hit, promoted)) = found else {
            self.misses.inc();
            return None;
        };
        self.hits.inc();
        if matches!(hit, Cached::Record(_)) {
            self.record_hits.inc();
        }
        if promoted {
            self.promotions.inc();
        }
        Some(hit)
    }

    /// Insert a decoded block, evicting entries until the byte budget
    /// holds (probation LRU first). Blocks larger than the whole capacity
    /// are not cached at all. This is a scan's admission.
    pub fn insert(&self, (segment, block): BlockKey, decoded: Arc<DecodedBlock>) {
        let bytes = decoded.heap_bytes();
        if bytes > self.capacity {
            return;
        }
        // Whatever leaves the cache is dropped after the guard is released:
        // freeing a block (often one another thread allocated) is allocator
        // work no other lookup should wait behind. The list is sized before
        // the lock for the same reason; one eviction per admission is the
        // norm.
        let mut evicted = Vec::with_capacity(2);
        let (replaced, from_probation) = {
            let mut inner = self.inner.lock();
            let replaced = inner.admit(
                segment,
                EntryName::Block(block),
                Cached::Block(decoded),
                bytes,
            );
            (replaced, inner.evict_to(self.capacity, &mut evicted))
        };
        self.count_admissions(1, evicted.len(), from_probation);
        drop((replaced, evicted));
    }

    /// Admit what a point get that had to decode resolved in `segment`:
    /// the record for `key` — its `stored` bytes, or a negative entry when
    /// the segment does not hold the key — evicting entries if it must;
    /// then the `decoded` block `(index, block)`, but only into free
    /// budget: it is kept when it fits without evicting anything and is
    /// not already resident.
    pub fn admit_point(
        &self,
        segment: u64,
        key: &[u8],
        stored: Option<&[u8]>,
        decoded: Option<(usize, Arc<DecodedBlock>)>,
    ) {
        let record_bytes = record_charge(key, stored);
        // Allocated before the lock, like the eviction list.
        let record = (record_bytes <= self.capacity)
            .then(|| (Arc::<[u8]>::from(key), stored.map(Arc::from)));
        let mut evicted = Vec::with_capacity(2);
        let mut admitted = 0;
        let (replaced, from_probation) = {
            let mut inner = self.inner.lock();
            let mut replaced = None;
            let mut from_probation = 0;
            if let Some((key, stored)) = record {
                replaced = inner.admit(
                    segment,
                    EntryName::Record(key),
                    Cached::Record(stored),
                    record_bytes,
                );
                from_probation = inner.evict_to(self.capacity, &mut evicted);
                admitted += 1;
            }
            if let Some((block, decoded)) = decoded {
                let bytes = decoded.heap_bytes();
                let resident = inner
                    .segments
                    .get(&segment)
                    .is_some_and(|slots| slots.blocks.contains_key(&block));
                if !resident && inner.total_bytes() + bytes <= self.capacity {
                    inner.admit(
                        segment,
                        EntryName::Block(block),
                        Cached::Block(decoded),
                        bytes,
                    );
                    admitted += 1;
                }
            }
            (replaced, from_probation)
        };
        self.count_admissions(admitted, evicted.len(), from_probation);
        drop((replaced, evicted));
    }

    fn count_admissions(&self, admitted: u64, evicted: usize, from_probation: u64) {
        if admitted > 0 {
            self.admissions.add(admitted);
        }
        if evicted > 0 {
            self.evictions.add(evicted as u64);
        }
        if from_probation > 0 {
            self.probation_evictions.add(from_probation);
        }
    }

    /// Drop every cached entry of all of `segments` under one lock — a
    /// compaction job retires its whole input set (an L0 run plus the L1
    /// partitions it pulled in) at a single commit, and their records and
    /// blocks stop occupying budget the moment they leave the manifest.
    /// Returns how many entries were dropped. Entries are filed per
    /// segment, so this costs the retired segments' own entries, not a
    /// walk over the cache.
    pub fn evict_segments(&self, segments: &[u64]) -> usize {
        // Collected under the lock, dropped after it (see `insert`).
        let dropped = {
            let mut inner = self.inner.lock();
            let mut dropped = Vec::new();
            for &segment in segments {
                inner.remove_segment(segment, &mut dropped);
            }
            dropped
        };
        let count = dropped.len();
        if count > 0 {
            self.invalidations.add(count as u64);
        }
        count
    }

    /// Drop everything (counters are kept).
    pub fn clear(&self) {
        // Swapped out under the lock, dropped after it (see `insert`).
        let dropped = std::mem::take(&mut *self.inner.lock());
        drop(dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_archive::{BlockCodec, RecordCodec};

    fn block(tag: u8, n: usize, value_len: usize) -> Arc<DecodedBlock> {
        let entries: Vec<pbc_archive::Entry> = (0..n)
            .map(|i| (vec![tag, i as u8], vec![tag; value_len]))
            .collect();
        let codec = BlockCodec::PerRecord(RecordCodec::Raw);
        let raw = codec.compress_block(&entries);
        Arc::new(codec.decompress_block(&raw, n, raw.len()).unwrap())
    }

    #[test]
    fn lru_eviction_respects_byte_capacity() {
        let one_block = block(0, 4, 100).heap_bytes();
        let cache = BlockCache::new(one_block * 2 + 1);
        cache.insert((1, 0), block(1, 4, 100));
        cache.insert((1, 1), block(2, 4, 100));
        assert_eq!(cache.block_count(), 2);
        // Touch (1, 0) so (1, 1) becomes the LRU victim.
        assert!(cache.get((1, 0)).is_some());
        cache.insert((1, 2), block(3, 4, 100));
        assert_eq!(cache.block_count(), 2);
        assert!(cache.get((1, 0)).is_some());
        assert!(cache.get((1, 1)).is_none(), "LRU block evicted");
        assert!(cache.get((1, 2)).is_some());
        assert_eq!(cache.evictions(), 1);
        assert!(cache.cached_bytes() <= cache.capacity());
    }

    #[test]
    fn counters_add_up() {
        let cache = BlockCache::new(1 << 20);
        assert_eq!(cache.hit_rate(), 0.0, "no lookups yet: rate is 0, not NaN");
        assert!(cache.get((7, 0)).is_none());
        cache.insert((7, 0), block(1, 8, 64));
        assert!(cache.get((7, 0)).is_some());
        assert!(cache.get((7, 1)).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.admissions(), 1);
        assert_eq!(cache.promotions(), 1, "first re-reference promotes");
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn oversized_blocks_and_zero_capacity_are_never_cached() {
        let cache = BlockCache::new(16);
        cache.insert((1, 0), block(1, 4, 100));
        assert_eq!(cache.block_count(), 0);
        let disabled = BlockCache::new(0);
        disabled.insert((1, 0), block(1, 1, 1));
        assert_eq!(disabled.block_count(), 0);
        assert!(disabled.get((1, 0)).is_none());
    }

    #[test]
    fn evict_segment_removes_only_that_segment() {
        let cache = BlockCache::new(1 << 20);
        cache.insert((1, 0), block(1, 4, 10));
        cache.insert((1, 1), block(2, 4, 10));
        cache.insert((2, 0), block(3, 4, 10));
        assert_eq!(cache.evict_segments(&[1]), 2);
        assert!(cache.get((1, 0)).is_none());
        assert!(cache.get((1, 1)).is_none());
        assert!(cache.get((2, 0)).is_some());
        let survivor = block(3, 4, 10).heap_bytes();
        assert_eq!(cache.cached_bytes(), survivor);
        assert_eq!(cache.invalidations(), 2);
        assert_eq!(cache.evictions(), 0, "retirement is not capacity pressure");
        assert_eq!(cache.evict_segments(&[1]), 0, "double eviction is a no-op");
    }

    #[test]
    fn batch_eviction_drops_every_listed_segment_in_one_pass() {
        let cache = BlockCache::new(1 << 20);
        cache.insert((1, 0), block(1, 4, 10));
        cache.insert((2, 0), block(2, 4, 10));
        cache.insert((3, 0), block(3, 4, 10));
        assert_eq!(cache.evict_segments(&[1, 3]), 2);
        assert!(cache.get((1, 0)).is_none());
        assert!(cache.get((2, 0)).is_some(), "unlisted segment survives");
        assert!(cache.get((3, 0)).is_none());
        assert_eq!(cache.invalidations(), 2);
    }

    #[test]
    fn reinserting_a_block_does_not_double_count() {
        let cache = BlockCache::new(1 << 20);
        cache.insert((3, 0), block(1, 4, 50));
        let once = cache.cached_bytes();
        cache.insert((3, 0), block(1, 4, 50));
        assert_eq!(cache.cached_bytes(), once);
        assert_eq!(cache.block_count(), 1);
    }

    #[test]
    fn admissions_are_probationary_until_rereferenced() {
        let cache = BlockCache::new(1 << 20);
        cache.insert((1, 0), block(1, 4, 50));
        assert_eq!(cache.probation_bytes(), cache.cached_bytes());
        assert_eq!(cache.protected_bytes(), 0);
        // The re-reference moves exactly this block's bytes across.
        assert!(cache.get((1, 0)).is_some());
        assert_eq!(cache.probation_bytes(), 0);
        assert_eq!(cache.protected_bytes(), cache.cached_bytes());
        assert_eq!(cache.promotions(), 1);
        // A second hit on a protected block is not another promotion.
        assert!(cache.get((1, 0)).is_some());
        assert_eq!(cache.promotions(), 1);
    }

    #[test]
    fn capacity_evictions_take_probation_before_protected() {
        let one_block = block(0, 4, 100).heap_bytes();
        let cache = BlockCache::new(one_block * 4);
        // Two promoted (hot) blocks, two one-touch (probationary) blocks.
        cache.insert((1, 0), block(1, 4, 100));
        cache.insert((1, 1), block(2, 4, 100));
        assert!(cache.get((1, 0)).is_some());
        assert!(cache.get((1, 1)).is_some());
        cache.insert((2, 0), block(3, 4, 100));
        cache.insert((2, 1), block(4, 4, 100));
        assert_eq!(cache.block_count(), 4);
        // Two more one-touch inserts: the probationary pair churns, the
        // promoted pair survives untouched.
        cache.insert((2, 2), block(5, 4, 100));
        cache.insert((2, 3), block(6, 4, 100));
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.probation_evictions(), 2, "all victims probationary");
        assert!(
            cache.get((1, 0)).is_some(),
            "protected block survives scans"
        );
        assert!(
            cache.get((1, 1)).is_some(),
            "protected block survives scans"
        );
        assert!(cache.get((2, 0)).is_none(), "one-touch block churned out");
        assert!(cache.get((2, 1)).is_none(), "one-touch block churned out");
    }

    #[test]
    fn protected_overflow_demotes_its_lru_back_to_probation() {
        let one_block = block(0, 4, 100).heap_bytes();
        // Capacity of 4 blocks → protected budget 3 blocks.
        let cache = BlockCache::new(one_block * 4);
        for b in 0..4usize {
            cache.insert((1, b), block(b as u8 + 1, 4, 100));
        }
        // Promote all four: the fourth promotion overflows protected and
        // demotes its LRU, (1, 0), back to probation.
        for b in 0..4usize {
            assert!(cache.get((1, b)).is_some());
        }
        assert_eq!(cache.promotions(), 4);
        assert_eq!(cache.protected_bytes(), one_block * 3);
        assert_eq!(cache.probation_bytes(), one_block);
        assert_eq!(cache.block_count(), 4, "demotion never drops a block");
        // The demoted block is the next capacity victim...
        cache.insert((9, 0), block(9, 4, 100));
        assert!(cache.get((1, 0)).is_none(), "demoted LRU evicted first");
        // ...while the still-protected blocks survive.
        for b in 1..4usize {
            assert!(cache.get((1, b)).is_some(), "block {b} stays protected");
        }
    }

    #[test]
    fn byte_accounting_balances_across_queues_under_churn() {
        let cache = BlockCache::new(8 * block(0, 4, 64).heap_bytes());
        for round in 0..6u64 {
            for b in 0..12usize {
                cache.insert((round, b), block(b as u8, 4, 64));
                if b % 3 == 0 {
                    let _ = cache.get((round, b));
                }
            }
        }
        let inner_total = cache.cached_bytes();
        assert_eq!(
            cache.probation_bytes() + cache.protected_bytes(),
            inner_total
        );
        assert!(inner_total <= cache.capacity());
        assert_eq!(
            cache.admissions(),
            cache.evictions() + cache.block_count() as u64,
            "every admitted block is either resident or was evicted"
        );
    }

    fn record(tag: u8, len: usize) -> Vec<u8> {
        vec![tag; len]
    }

    #[test]
    fn mixed_record_and_block_accounting_balances_under_churn() {
        let one_block = block(0, 4, 64).heap_bytes();
        let cache = BlockCache::new(6 * one_block);
        for round in 0..8u64 {
            for i in 0..12usize {
                let key = [round as u8, i as u8];
                if i % 2 == 0 {
                    cache.insert((round, i), block(i as u8, 4, 64));
                } else {
                    // Every third record is negative; each comes with a
                    // decoded block offered to the free budget.
                    let stored = (i % 3 != 0).then(|| record(i as u8, 40 + i));
                    cache.admit_point(
                        round,
                        &key,
                        stored.as_deref(),
                        Some((100 + i, block(i as u8, 4, 64))),
                    );
                }
                if i % 3 == 0 {
                    let _ = cache.point_get(round, &key, i);
                }
            }
        }
        assert!(cache.record_count() > 0 && cache.block_count() > 0);
        assert!(cache.record_hits() > 0 && cache.hits() > cache.record_hits());
        assert_eq!(
            cache.probation_bytes() + cache.protected_bytes(),
            cache.cached_bytes()
        );
        assert!(cache.cached_bytes() <= cache.capacity());
        assert_eq!(
            cache.admissions(),
            cache.evictions() + (cache.block_count() + cache.record_count()) as u64,
            "every admitted entry is either resident or was evicted"
        );
    }

    #[test]
    fn a_record_is_charged_its_key_value_and_overhead() {
        let cache = BlockCache::new(1 << 20);
        cache.admit_point(1, b"key", Some(&record(7, 100)), None);
        assert_eq!(cache.cached_bytes(), RECORD_OVERHEAD + 3 + 100);
        cache.admit_point(1, b"gone", None, None);
        assert_eq!(cache.cached_bytes(), 2 * RECORD_OVERHEAD + 3 + 100 + 4);
        // Re-admitting a resident record replaces it.
        cache.admit_point(1, b"key", Some(&record(7, 10)), None);
        assert_eq!(cache.cached_bytes(), 2 * RECORD_OVERHEAD + 3 + 10 + 4);
        assert_eq!(cache.record_count(), 2);
    }

    #[test]
    fn a_negative_record_answers_absent_without_a_block() {
        let cache = BlockCache::new(1 << 20);
        cache.admit_point(4, b"absent", None, None);
        assert_eq!(cache.block_count(), 0, "nothing to decode from");
        match cache.point_get(4, b"absent", 0) {
            Some(Cached::Record(None)) => {}
            other => panic!("want a negative record hit, got {other:?}"),
        }
        assert_eq!(
            (cache.hits(), cache.record_hits(), cache.misses()),
            (1, 1, 0)
        );
        // Negative for segment 4 only.
        assert!(cache.point_get(5, b"absent", 0).is_none());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn a_point_probe_prefers_the_record_then_the_block() {
        let cache = BlockCache::new(1 << 20);
        let stored = record(9, 20);
        cache.admit_point(2, b"k", Some(&stored), Some((0, block(9, 4, 20))));
        assert_eq!((cache.record_count(), cache.block_count()), (1, 1));
        match cache.point_get(2, b"k", 0) {
            Some(Cached::Record(Some(bytes))) => assert_eq!(&bytes[..], &stored[..]),
            other => panic!("want the record, got {other:?}"),
        }
        match cache.point_get(2, b"neighbour", 0) {
            Some(Cached::Block(_)) => {}
            other => panic!("want the block, got {other:?}"),
        }
        assert!(cache.point_get(2, b"elsewhere", 1).is_none());
        assert_eq!(
            (cache.hits(), cache.record_hits(), cache.misses()),
            (2, 1, 1)
        );
        // The block entry is the scans' block entry.
        assert!(cache.get((2, 0)).is_some());
    }

    #[test]
    fn a_point_miss_admits_its_block_only_into_free_budget() {
        let one_block = block(1, 4, 100).heap_bytes();
        let one_record = RECORD_OVERHEAD + 1 + 50;
        let cache = BlockCache::new(one_block + 3 * one_record);
        // Empty cache: the record and its block both fit.
        cache.admit_point(1, b"a", Some(&record(1, 50)), Some((0, block(1, 4, 100))));
        assert_eq!((cache.record_count(), cache.block_count()), (1, 1));
        // Room for records only: the block is not kept, nothing evicted.
        cache.admit_point(1, b"b", Some(&record(2, 50)), Some((1, block(2, 4, 100))));
        assert_eq!((cache.record_count(), cache.block_count()), (2, 1));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.admissions(), 3);
        // A resident block is not admitted twice.
        cache.admit_point(1, b"c", Some(&record(3, 50)), Some((0, block(1, 4, 100))));
        assert_eq!((cache.record_count(), cache.block_count()), (3, 1));
        assert_eq!(cache.admissions(), 4);
        // Promote the records: the block is left as the probation LRU.
        for key in [b"a", b"b", b"c"] {
            assert!(matches!(
                cache.point_get(1, key, 9),
                Some(Cached::Record(Some(_)))
            ));
        }
        // Full: the next record evicts the block; its own block still only
        // takes what is left over.
        cache.admit_point(1, b"d", Some(&record(4, 50)), Some((2, block(3, 4, 100))));
        assert_eq!(cache.record_count(), 4);
        assert_eq!(cache.evictions(), 1);
        assert!(
            cache.get((1, 0)).is_none(),
            "LRU block evicted for a record"
        );
        assert!(
            cache.get((1, 2)).is_none(),
            "no room left for the new block"
        );
        assert!(cache.cached_bytes() <= cache.capacity());
        // A scan's insert evicts for its block as before.
        cache.insert((1, 2), block(3, 4, 100));
        assert!(cache.get((1, 2)).is_some());
    }

    #[test]
    fn evict_segments_drops_both_kinds_for_the_listed_segments_only() {
        let cache = BlockCache::new(1 << 20);
        for segment in 1..=3u64 {
            cache.insert((segment, 0), block(segment as u8, 4, 10));
            cache.admit_point(segment, b"live", Some(&record(1, 30)), None);
            cache.admit_point(segment, b"absent", None, None);
        }
        let survivor = cache.cached_bytes() / 3;
        assert_eq!(cache.evict_segments(&[1, 3, 3, 99]), 6);
        assert_eq!(cache.invalidations(), 6);
        assert_eq!(cache.evictions(), 0, "retirement is not capacity pressure");
        assert_eq!(cache.cached_bytes(), survivor);
        assert_eq!(
            cache.probation_bytes() + cache.protected_bytes(),
            cache.cached_bytes()
        );
        assert_eq!((cache.block_count(), cache.record_count()), (1, 2));
        for gone in [1, 3] {
            assert!(cache.get((gone, 0)).is_none());
            assert!(cache.point_get(gone, b"live", 5).is_none());
            assert!(cache.point_get(gone, b"absent", 5).is_none());
        }
        assert!(cache.get((2, 0)).is_some());
        assert!(matches!(
            cache.point_get(2, b"live", 5),
            Some(Cached::Record(Some(_)))
        ));
        assert!(matches!(
            cache.point_get(2, b"absent", 5),
            Some(Cached::Record(None))
        ));
        // Promoted entries leave from the protected queue just the same.
        assert!(cache.protected_bytes() > 0);
        assert_eq!(cache.evict_segments(&[2]), 3);
        assert_eq!(cache.cached_bytes(), 0);
        assert_eq!((cache.probation_bytes(), cache.protected_bytes()), (0, 0));
    }

    #[test]
    fn zero_capacity_admits_no_records_either() {
        let cache = BlockCache::new(0);
        cache.admit_point(1, b"k", Some(b"v"), Some((0, block(1, 1, 1))));
        assert_eq!((cache.record_count(), cache.block_count()), (0, 0));
        assert_eq!(cache.admissions(), 0);
        assert!(cache.point_get(1, b"k", 0).is_none());
    }
}
