//! Scan-resistant block cache for cold reads.
//!
//! LeCo's lesson (PAPERS.md) is that lightweight per-block codecs pay off
//! when random access stays cheap through a block-granular cache: a cold
//! `get` decodes a whole ~64 KiB block anyway, so keeping the decoded block
//! around makes the next hit on it free. Capacity is accounted in decoded
//! **bytes**, not block count, so mixed block sizes cannot blow the budget:
//! each block is charged its [`DecodedBlock::heap_bytes`] — the flat byte
//! buffer plus the offsets table, i.e. what the cache really pins.
//!
//! # Replacement policy: 2Q
//!
//! A pure LRU has a failure mode this store actively triggers: a wide
//! `range_scan` streams every candidate block through the cache exactly
//! once, and under LRU each of those single-use blocks lands at the MRU
//! position — flushing the point-lookup working set. 2Q splits the budget
//! into two recency queues:
//!
//! ```text
//!   insert ──► [ probation (≤ ¼ capacity) ] ──evict──► gone
//!                     │ re-referenced
//!                     ▼ promote
//!              [ protected (rest) ] ──over target──► demoted to probation MRU
//! ```
//!
//! Every admission enters **probation**; a block only reaches **protected**
//! by being referenced again while still resident. Capacity evictions take
//! the probation LRU first, so a scan's one-touch blocks churn through the
//! small probationary region and the re-referenced hot set in protected
//! survives.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use pbc_archive::DecodedBlock;
use pbc_obs::Counter;

/// Cache key: `(segment id, block index)`.
pub type BlockKey = (u64, usize);

/// Fraction of capacity reserved for the probationary queue: ¼, the
/// classic 2Q "Kin" sizing.
const PROBATION_FRACTION: usize = 4;

/// A decoded block kept by the cache.
struct Slot {
    block: Arc<DecodedBlock>,
    bytes: usize,
    /// Recency tick of the most recent touch; also this slot's key in its
    /// queue's recency index.
    tick: u64,
    /// Which queue the slot currently lives in.
    protected: bool,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<BlockKey, Slot>,
    /// Probationary recency index: tick -> block. Ticks are unique, so the
    /// smallest entry is always the least recently used block.
    probation: BTreeMap<u64, BlockKey>,
    /// Protected recency index.
    protected: BTreeMap<u64, BlockKey>,
    probation_bytes: usize,
    protected_bytes: usize,
    tick: u64,
}

impl CacheInner {
    fn total_bytes(&self) -> usize {
        self.probation_bytes + self.protected_bytes
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Remove `key` wherever it lives, fixing queue byte accounting.
    fn remove(&mut self, key: &BlockKey) -> Option<Slot> {
        let slot = self.map.remove(key)?;
        if slot.protected {
            self.protected.remove(&slot.tick);
            self.protected_bytes -= slot.bytes;
        } else {
            self.probation.remove(&slot.tick);
            self.probation_bytes -= slot.bytes;
        }
        Some(slot)
    }

    /// Demote the protected LRU block to the probation MRU position.
    fn demote_protected_lru(&mut self) {
        let (&lru_tick, &lru_key) = self
            .protected
            .iter()
            .next()
            // pbc-allow(panic): caller checked protected is non-empty
            .expect("caller checked protected is non-empty");
        self.protected.remove(&lru_tick);
        let tick = self.next_tick();
        // pbc-allow(panic): the protected index and the map are updated together
        let slot = self.map.get_mut(&lru_key).expect("index and map agree");
        slot.protected = false;
        slot.tick = tick;
        let bytes = slot.bytes;
        self.protected_bytes -= bytes;
        self.probation_bytes += bytes;
        self.probation.insert(tick, lru_key);
    }
}

/// A shared, thread-safe cache of decoded blocks with byte-capacity
/// eviction, scan-resistant 2Q replacement, and
/// hit/miss/eviction/admission counters.
pub struct BlockCache {
    capacity: usize,
    /// Byte budget of the protected queue; probation gets the rest.
    protected_target: usize,
    inner: Mutex<CacheInner>,
    hits: Counter,
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
    /// Lookups that found the block cached.
    pub hits: Counter,
    /// Lookups that did not.
    pub misses: Counter,
    /// Blocks evicted under capacity pressure (either queue).
    pub evictions: Counter,
    /// Blocks dropped because their segment was retired.
    pub invalidations: Counter,
    /// Blocks admitted into the cache (always into probation).
    pub admissions: Counter,
    /// Probationary blocks promoted to protected on re-reference.
    pub promotions: Counter,
    /// Capacity evictions that took a probationary block — the scan-churn
    /// share of `evictions`.
    pub probation_evictions: Counter,
}

impl CacheCounters {
    /// Standalone counters not tied to any registry (the
    /// [`BlockCache::new`] default).
    pub fn standalone() -> Self {
        CacheCounters {
            hits: Counter::standalone(),
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
        f.debug_struct("BlockCache")
            .field("capacity", &self.capacity)
            .field("cached_bytes", &inner.total_bytes())
            .field("probation_bytes", &inner.probation_bytes)
            .field("protected_bytes", &inner.protected_bytes)
            .field("blocks", &inner.map.len())
            .field("hits", &self.hits.value())
            .field("misses", &self.misses.value())
            .field("evictions", &self.evictions.value())
            .field("invalidations", &self.invalidations.value())
            .finish()
    }
}

impl BlockCache {
    /// Create a 2Q cache bounded to `capacity` decoded bytes (0 disables
    /// caching: every get misses and nothing is kept). Counts into
    /// standalone counters; use [`BlockCache::with_counters`] to count
    /// into registry-backed handles instead.
    pub fn new(capacity: usize) -> Self {
        BlockCache::with_counters(capacity, CacheCounters::standalone())
    }

    /// Like [`BlockCache::new`], but recording into the given handles
    /// (typically obtained from a `pbc_obs::MetricsRegistry`).
    pub fn with_counters(capacity: usize, counters: CacheCounters) -> Self {
        BlockCache {
            capacity,
            protected_target: capacity - capacity / PROBATION_FRACTION,
            inner: Mutex::new(CacheInner::default()),
            hits: counters.hits,
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

    /// Decoded bytes currently cached (always `<= capacity`).
    pub fn cached_bytes(&self) -> usize {
        self.inner.lock().total_bytes()
    }

    /// Decoded bytes in the probationary queue.
    pub fn probation_bytes(&self) -> usize {
        self.inner.lock().probation_bytes
    }

    /// Decoded bytes in the protected queue.
    pub fn protected_bytes(&self) -> usize {
        self.inner.lock().protected_bytes
    }

    /// Cached blocks.
    pub fn block_count(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Block lookups that found the block cached.
    pub fn hits(&self) -> u64 {
        self.hits.value()
    }

    /// Block lookups that did not.
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

    /// Blocks evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions.value()
    }

    /// Blocks dropped by [`BlockCache::evict_segment`] because their
    /// segment was retired by compaction — distinct from capacity
    /// `evictions`, so cache-pressure and retirement churn stay separately
    /// observable.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.value()
    }

    /// Blocks admitted into the cache.
    pub fn admissions(&self) -> u64 {
        self.admissions.value()
    }

    /// Probationary blocks promoted to protected on re-reference.
    pub fn promotions(&self) -> u64 {
        self.promotions.value()
    }

    /// Capacity evictions that took a probationary block.
    pub fn probation_evictions(&self) -> u64 {
        self.probation_evictions.value()
    }

    /// Look a block up, refreshing its recency on a hit. A probationary
    /// hit promotes the block to protected (demoting the protected LRU
    /// back to probation if that overflows the protected budget).
    pub fn get(&self, key: BlockKey) -> Option<Arc<DecodedBlock>> {
        let (block, promoted) = {
            let mut inner = self.inner.lock();
            let tick = inner.next_tick();
            let Some(slot) = inner.map.get_mut(&key) else {
                drop(inner);
                self.misses.inc();
                return None;
            };
            let old_tick = slot.tick;
            let promoted = !slot.protected;
            let bytes = slot.bytes;
            let block = Arc::clone(&slot.block);
            slot.tick = tick;
            slot.protected = true;
            if promoted {
                // Probationary re-reference: promote.
                inner.probation.remove(&old_tick);
                inner.probation_bytes -= bytes;
                inner.protected.insert(tick, key);
                inner.protected_bytes += bytes;
                // Promotion moves bytes between queues, never past total
                // capacity; only the protected budget needs rebalancing.
                while inner.protected_bytes > self.protected_target && !inner.protected.is_empty() {
                    inner.demote_protected_lru();
                }
            } else {
                inner.protected.remove(&old_tick);
                inner.protected.insert(tick, key);
            }
            (block, promoted)
        };
        self.hits.inc();
        if promoted {
            self.promotions.inc();
        }
        Some(block)
    }

    /// Insert a decoded block, evicting blocks until the byte budget holds
    /// (probation LRU first). Blocks larger than the whole
    /// capacity are not cached at all.
    pub fn insert(&self, key: BlockKey, block: Arc<DecodedBlock>) {
        let bytes = block.heap_bytes();
        if bytes > self.capacity {
            return;
        }
        // Whatever leaves the cache is dropped after the guard is released:
        // freeing a block (often one another thread allocated) is allocator
        // work no other lookup should wait behind. The list is sized before
        // the lock for the same reason; one eviction per admission is the
        // norm.
        let mut evicted: Vec<Slot> = Vec::with_capacity(2);
        let mut evicted_probation = 0u64;
        let replaced = {
            let mut inner = self.inner.lock();
            // Replacing an existing slot first keeps accounting exact.
            let replaced = inner.remove(&key);
            let tick = inner.next_tick();
            // All admissions are probationary.
            inner.probation.insert(tick, key);
            inner.probation_bytes += bytes;
            inner.map.insert(
                key,
                Slot {
                    block,
                    bytes,
                    tick,
                    protected: false,
                },
            );
            while inner.total_bytes() > self.capacity {
                let from_probation = !inner.probation.is_empty();
                let (_, &lru_key) = if from_probation {
                    inner.probation.iter().next()
                } else {
                    inner.protected.iter().next()
                }
                // pbc-allow(panic): bytes > 0 implies a resident block in one of the queues
                .expect("bytes > 0 implies a resident block");
                // pbc-allow(panic): the queue indexes and the map are updated together
                evicted.push(inner.remove(&lru_key).expect("index and map agree"));
                evicted_probation += u64::from(from_probation);
            }
            replaced
        };
        self.admissions.inc();
        if !evicted.is_empty() {
            self.evictions.add(evicted.len() as u64);
        }
        if evicted_probation > 0 {
            self.probation_evictions.add(evicted_probation);
        }
        drop((replaced, evicted));
    }

    /// Drop every cached block of `segment` (the segment was retired by
    /// compaction). Returns how many blocks were dropped. Called on every
    /// retirement so a retired segment's decoded blocks stop occupying
    /// budget the moment it leaves the manifest, instead of lingering
    /// until natural eviction.
    pub fn evict_segment(&self, segment: u64) -> usize {
        self.evict_segments(std::slice::from_ref(&segment))
    }

    /// Drop every cached block of all of `segments` in one pass under the
    /// lock — a compaction job retires its whole input set (an L0 run plus
    /// the L1 partitions it pulled in) at a single commit, so its cache
    /// invalidation is one sweep, not one per segment.
    pub fn evict_segments(&self, segments: &[u64]) -> usize {
        // Collected under the lock, dropped after it (see `insert`).
        let dropped: Vec<Slot> = {
            let mut inner = self.inner.lock();
            let doomed: Vec<BlockKey> = inner
                .map
                .keys()
                .filter(|(seg, _)| segments.contains(seg))
                .copied()
                .collect();
            doomed
                .iter()
                // pbc-allow(panic): keys were collected from the map just above
                .map(|key| inner.remove(key).expect("listed above"))
                .collect()
        };
        if !dropped.is_empty() {
            self.invalidations.add(dropped.len() as u64);
        }
        dropped.len()
    }

    /// Drop everything (counters are kept).
    pub fn clear(&self) {
        // Swapped out under the lock, dropped after it (see `insert`).
        let dropped = {
            let mut inner = self.inner.lock();
            inner.probation.clear();
            inner.protected.clear();
            inner.probation_bytes = 0;
            inner.protected_bytes = 0;
            std::mem::take(&mut inner.map)
        };
        drop(dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_archive::BlockCodec;

    fn block(tag: u8, n: usize, value_len: usize) -> Arc<DecodedBlock> {
        let entries: Vec<pbc_archive::Entry> = (0..n)
            .map(|i| (vec![tag, i as u8], vec![tag; value_len]))
            .collect();
        let raw = BlockCodec::Raw.compress_block(&entries);
        Arc::new(
            BlockCodec::Raw
                .decompress_block(&raw, n, raw.len())
                .unwrap(),
        )
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
        assert_eq!(cache.evict_segment(1), 2);
        assert!(cache.get((1, 0)).is_none());
        assert!(cache.get((1, 1)).is_none());
        assert!(cache.get((2, 0)).is_some());
        let survivor = block(3, 4, 10).heap_bytes();
        assert_eq!(cache.cached_bytes(), survivor);
        assert_eq!(cache.invalidations(), 2);
        assert_eq!(cache.evictions(), 0, "retirement is not capacity pressure");
        assert_eq!(cache.evict_segment(1), 0, "double eviction is a no-op");
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
}
