//! The sharded in-memory key-value store.
//!
//! A deliberately small model of TierBase's storage engine: keys are hashed
//! onto a fixed number of shards, each protected by a `parking_lot` RwLock,
//! and values pass through the configured [`RecordCodec`] on SET/GET. Memory
//! accounting counts stored key and value bytes, which is what Table 8's
//! "Memory Usage (%)" compares across codecs.
//!
//! Beyond the paper's experiment, the store is the hot tier of `pbc-tier`.
//! Each shard is one ordered map from key to slot — a live (encoded) value
//! or a tombstone — so "stored and tombstoned at once" cannot be
//! represented, and every transition a tiered engine needs is one step
//! under one lock: [`TierStore::set`] (a live value replaces anything),
//! [`TierStore::tombstone`] (a delete that keeps shadowing colder copies),
//! [`TierStore::range_snapshot_encoded`] / [`TierStore::snapshot_shards`]
//! (the cut a range scan merges and a spill writes) and
//! [`TierStore::evict_unchanged`] (drop what a spill wrote, unless a write
//! replaced it since). Live values are shared (`Arc`), so a cut copies
//! keys and pointers, never values. Per-shard byte accounting and
//! last-access epochs drive LRU shard selection.

use std::borrow::Cow;
use std::cmp::Ordering as KeyOrder;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::DefaultHasher;
use std::collections::{btree_map, BTreeMap, BinaryHeap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use pbc_archive::{ArchiveError, RecordCodec};

/// Errors surfaced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// A stored value failed to decode (corruption or codec mismatch).
    ValueCorrupt(ArchiveError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::ValueCorrupt(e) => write!(f, "stored value corrupt: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::ValueCorrupt(e) => Some(e),
        }
    }
}

/// Number of shards (power of two).
const SHARDS: usize = 16;

/// Key bytes a [`HotKey`] holds inline.
const INLINE: usize = 23;

/// A hot-tier key, ordered exactly as its bytes are.
///
/// The first [`INLINE`] bytes sit in the tree node, zero-padded, as three
/// big-endian words whose last byte is how many of them the key fills, so
/// keys that differ there (every pair of keys of at most 23 bytes) compare
/// as integers without leaving the node. A longer key keeps the rest in
/// `tail`: borrowed by a probe (`HotKey<'a>`), owned by a stored key
/// (`HotKey<'static>`). `BTreeMap` is covariant in its key, so a shared
/// map coerces to a map of probes and reads never allocate.
#[derive(Clone, PartialEq, Eq)]
struct HotKey<'a> {
    words: [u64; 3],
    tail: Cow<'a, [u8]>,
}

impl<'a> HotKey<'a> {
    fn new(key: &'a [u8]) -> Self {
        let (head, tail) = key.split_at(key.len().min(INLINE));
        let mut padded = [[0u8; 8]; 3];
        padded.as_flattened_mut()[..head.len()].copy_from_slice(head);
        padded.as_flattened_mut()[INLINE] = head.len() as u8;
        let words = padded.map(u64::from_be_bytes);
        HotKey {
            words,
            tail: Cow::Borrowed(tail),
        }
    }

    /// The stored form. Allocates only for a key longer than [`INLINE`].
    fn into_owned(self) -> HotKey<'static> {
        HotKey {
            words: self.words,
            tail: Cow::Owned(self.tail.into_owned()),
        }
    }

    fn len(&self) -> usize {
        usize::from(self.words[2] as u8) + self.tail.len()
    }

    /// Append the key's bytes to `out`.
    fn extend_into(&self, out: &mut Vec<u8>) {
        let padded = self.words.map(u64::to_be_bytes);
        let head = usize::from(self.words[2] as u8);
        out.extend_from_slice(&padded.as_flattened()[..head]);
        out.extend_from_slice(&self.tail);
    }
}

/// Byte order. The words compare as the zero-padded heads do, and on equal
/// heads the length byte puts a shorter head, which is then a prefix of
/// the longer one, first. Two full heads are decided by their tails.
impl Ord for HotKey<'_> {
    fn cmp(&self, other: &Self) -> KeyOrder {
        let [a0, a1, a2] = self.words;
        let [b0, b1, b2] = other.words;
        // One wide compare for the first 16 bytes, then the last word.
        let wide = |high: u64, low: u64| u128::from(high) << 64 | u128::from(low);
        let (a, b) = (wide(a0, a1), wide(b0, b1));
        if a != b {
            return a.cmp(&b);
        }
        if a2 != b2 {
            return a2.cmp(&b2);
        }
        self.tail.cmp(&other.tail)
    }
}

impl PartialOrd for HotKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<KeyOrder> {
        Some(self.cmp(other))
    }
}

/// What a shard holds for one key.
enum Slot {
    /// The codec-encoded value, shared with any cut that copied it. A write
    /// always stores a fresh `Arc`, so pointer equality tells whether the
    /// slot still holds the copied version.
    Live(Arc<[u8]>),
    /// Deleted here while colder storage may still hold an older version.
    Tombstone,
}

impl Slot {
    /// The encoded value, `None` for a tombstone.
    fn encoded(&self) -> Option<&Arc<[u8]>> {
        match self {
            Slot::Live(stored) => Some(stored),
            Slot::Tombstone => None,
        }
    }
}

/// What [`TierStore::lookup`] found for a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// The key is stored; this is its decoded value.
    Live(Vec<u8>),
    /// The key was deleted here, and the delete shadows colder copies.
    Tombstone,
    /// This store holds nothing for the key.
    Absent,
}

/// One shard's slots plus their byte accounting, kept under the same lock
/// so every slot change moves its bytes in the same step.
#[derive(Default)]
struct ShardState {
    slots: BTreeMap<HotKey<'static>, Slot>,
    /// How many slots are live; the rest are tombstones.
    live_keys: usize,
    stored_value_bytes: u64,
    stored_key_bytes: u64,
    tombstone_bytes: u64,
}

/// A shared map coerces to a map of borrowed keys, so a probe borrows its
/// tail and what it finds lives no longer than the probe.
impl ShardState {
    fn slot<'a>(&'a self, key: &'a [u8]) -> Option<&'a Slot> {
        let slots: &'a BTreeMap<HotKey<'a>, Slot> = &self.slots;
        slots.get(&HotKey::new(key))
    }
}

#[derive(Default)]
struct Shard {
    state: RwLock<ShardState>,
    /// Epoch of the most recent access (set/get/delete) — the LRU signal
    /// tiered storage uses to pick spill victims.
    last_access: AtomicU64,
}

/// What [`TierStore::range_snapshot_encoded`] and
/// [`TierStore::snapshot_shards`] return: slots in ascending key order,
/// values still codec-encoded.
///
/// Keys are packed back to back in one buffer; a live row shares the
/// slot's value (`Arc`) rather than copying it, so a snapshot costs its key
/// bytes plus a pointer per row, and keeps every value it copied alive.
#[derive(Debug, Default)]
pub struct RangeSnapshot {
    /// Every row's key, back to back.
    keys: Vec<u8>,
    rows: Vec<SnapshotRow>,
}

/// One row of a [`RangeSnapshot`]: its key is `keys[previous end..end]`.
#[derive(Debug)]
struct SnapshotRow {
    key_end: usize,
    /// The encoded value, `None` for a tombstone.
    value: Option<Arc<[u8]>>,
}

impl RangeSnapshot {
    /// Whether the snapshot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// How many rows (live and tombstones) the snapshot holds.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The hot-tier bytes the snapshot's rows account for: every key, plus
    /// every live value ([`TierStore::memory_usage_bytes`] plus
    /// [`TierStore::tombstone_bytes`], for these rows).
    pub fn accounted_bytes(&self) -> u64 {
        let values: usize = self
            .rows
            .iter()
            .filter_map(|row| row.value.as_ref())
            .map(|v| v.len())
            .sum();
        (self.keys.len() + values) as u64
    }

    /// Row `idx` in key order: its key and its encoded value, `None` for a
    /// tombstone. `None` past the last row.
    pub fn get(&self, idx: usize) -> Option<(&[u8], Option<&[u8]>)> {
        let row = self.rows.get(idx)?;
        let start = idx.checked_sub(1).map_or(0, |prev| self.rows[prev].key_end);
        Some((&self.keys[start..row.key_end], row.value.as_deref()))
    }

    /// Every row in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&[u8]>)> {
        self.shared_rows()
            .map(|(key, value)| (key, value.map(|v| &**v)))
    }

    /// Every row in key order, with the shared value itself.
    fn shared_rows(&self) -> impl Iterator<Item = (&[u8], Option<&Arc<[u8]>>)> {
        let mut start = 0;
        self.rows.iter().map(move |row| {
            let key = &self.keys[start..row.key_end];
            start = row.key_end;
            (key, row.value.as_ref())
        })
    }

    fn push(&mut self, key: &HotKey<'_>, slot: &Slot) {
        key.extend_into(&mut self.keys);
        self.rows.push(SnapshotRow {
            key_end: self.keys.len(),
            value: slot.encoded().cloned(),
        });
    }
}

/// One shard's cursor in a cut: its smallest remaining row and the rest
/// of its range. Ordered by key, reversed, so the max-heap
/// [`BinaryHeap`] pops the smallest head first. Keys are unique across
/// shards, so two heads never compare equal.
struct Head<'g, 'k> {
    key: &'g HotKey<'k>,
    slot: &'g Slot,
    rest: btree_map::Range<'g, HotKey<'k>, Slot>,
}

impl Ord for Head<'_, '_> {
    fn cmp(&self, other: &Self) -> KeyOrder {
        other.key.cmp(self.key)
    }
}

impl PartialOrd for Head<'_, '_> {
    fn partial_cmp(&self, other: &Self) -> Option<KeyOrder> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Head<'_, '_> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Head<'_, '_> {}

/// A TierBase-like sharded key-value store with value compression.
pub struct TierStore {
    /// Lock order: a thread takes at most one shard's write lock and
    /// holds no other shard lock while it does. Only a cut
    /// ([`TierStore::range_snapshot_encoded`],
    /// [`TierStore::snapshot_shards`]) holds several shard locks at once:
    /// read locks only, taken in ascending index order. Under them it sums
    /// the shards' counts to size its buffers, then merges the shards
    /// through a heap of their heads, O(log shards) compares a row, and
    /// copies each row's key and value pointer; it decodes nothing. A
    /// write to any cut shard waits that long.
    shards: Vec<Shard>,
    codec: RecordCodec,
    /// Decoded bytes of every live value, the denominator of
    /// [`TierStore::memory_usage_ratio`]: added under the shard lock by
    /// the put that stores a value, taken out after whatever replaced or
    /// removed it has released the lock.
    raw_value_bytes: AtomicU64,
    /// Global access counter; each shard access stamps the shard with the
    /// next value.
    epoch: AtomicU64,
    /// Running total of stored key + value bytes across all shards,
    /// updated with every per-shard delta. Watermark checks on the write
    /// path read this with two atomic loads instead of taking every shard
    /// lock; the per-shard counters stay the exact source of truth for
    /// [`TierStore::shard_memory_bytes`].
    stored_bytes_total: AtomicU64,
    /// Running total of tombstone key bytes, mirroring the per-shard
    /// tombstone accounting the same way.
    tombstone_bytes_total: AtomicU64,
}

impl fmt::Debug for TierStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TierStore")
            .field("len", &self.len())
            .field("codec", &self.codec.name())
            .field("memory_usage_bytes", &self.memory_usage_bytes())
            .field("tombstone_bytes", &self.tombstone_bytes())
            .finish()
    }
}

impl TierStore {
    /// Create a store with the given value codec.
    pub fn new(codec: RecordCodec) -> Self {
        TierStore {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            codec,
            raw_value_bytes: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            stored_bytes_total: AtomicU64::new(0),
            tombstone_bytes_total: AtomicU64::new(0),
        }
    }

    /// The codec this store was configured with.
    pub fn codec(&self) -> &RecordCodec {
        &self.codec
    }

    /// Decode a value this store encoded: a lookup's, or a cut's row.
    pub fn decode(&self, stored: &[u8]) -> Result<Vec<u8>, StoreError> {
        self.codec.decode(stored).map_err(StoreError::ValueCorrupt)
    }

    /// How many shards keys are hashed onto.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard holds `key`.
    pub fn shard_of_key(&self, key: &[u8]) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % SHARDS
    }

    /// Stamp a shard with the next global access epoch.
    fn touch(&self, shard: usize) {
        let now = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.shards[shard].last_access.store(now, Ordering::Relaxed);
    }

    /// The epoch of shard `idx`'s most recent access (0 = never touched).
    /// Smaller means colder.
    pub fn shard_access_epoch(&self, idx: usize) -> u64 {
        self.shards[idx].last_access.load(Ordering::Relaxed)
    }

    /// Stored (compressed) value + key bytes held by shard `idx`, excluding
    /// tombstones.
    pub fn shard_memory_bytes(&self, idx: usize) -> u64 {
        let shard = self.shards[idx].state.read();
        shard.stored_value_bytes + shard.stored_key_bytes
    }

    /// Tombstone bytes held by shard `idx`.
    pub fn shard_tombstone_bytes(&self, idx: usize) -> u64 {
        self.shards[idx].state.read().tombstone_bytes
    }

    /// Put `new` into `key`'s slot (`None` empties it) and return what was
    /// there. Every mutation goes through here, so this is the one place
    /// the byte counters move. The global totals update under the shard
    /// lock the caller holds, in lockstep with the per-shard counters.
    fn replace_slot(
        &self,
        shard: &mut ShardState,
        key: HotKey<'_>,
        new: Option<Slot>,
    ) -> Option<Slot> {
        let key_bytes = key.len() as u64;
        match &new {
            Some(Slot::Live(stored)) => {
                let value_bytes = stored.len() as u64;
                shard.live_keys += 1;
                shard.stored_key_bytes += key_bytes;
                shard.stored_value_bytes += value_bytes;
                self.stored_bytes_total
                    .fetch_add(key_bytes + value_bytes, Ordering::Relaxed);
            }
            Some(Slot::Tombstone) => {
                shard.tombstone_bytes += key_bytes;
                self.tombstone_bytes_total
                    .fetch_add(key_bytes, Ordering::Relaxed);
            }
            None => {}
        }
        // A `&mut` map is invariant in its key: removal probes with the
        // stored form, which allocates for keys past 23 bytes.
        let old = match new {
            Some(slot) => shard.slots.insert(key.into_owned(), slot),
            None => shard.slots.remove(&key.into_owned()),
        };
        match &old {
            Some(Slot::Live(stored)) => {
                let value_bytes = stored.len() as u64;
                shard.live_keys -= 1;
                shard.stored_key_bytes -= key_bytes;
                shard.stored_value_bytes -= value_bytes;
                self.stored_bytes_total
                    .fetch_sub(key_bytes + value_bytes, Ordering::Relaxed);
            }
            Some(Slot::Tombstone) => {
                shard.tombstone_bytes -= key_bytes;
                self.tombstone_bytes_total
                    .fetch_sub(key_bytes, Ordering::Relaxed);
            }
            None => {}
        }
        old
    }

    /// Store a value under a key (Redis `SET`). Returns the stored
    /// (compressed) size in bytes. The live value replaces whatever the
    /// slot held — an older value or a tombstone — in one step, so a
    /// concurrent [`TierStore::tombstone`] lands wholly before or wholly
    /// after it and can never be half-erased.
    pub fn set(&self, key: &[u8], value: &[u8]) -> usize {
        // A raw value goes straight into its shared allocation.
        let encoded: Arc<[u8]> = Arc::from(self.codec.encode(value));
        let encoded_len = encoded.len();
        let idx = self.shard_of_key(key);
        let replaced = {
            let mut shard = self.shards[idx].state.write();
            self.raw_value_bytes
                .fetch_add(value.len() as u64, Ordering::Relaxed);
            self.replace_slot(&mut shard, HotKey::new(key), Some(Slot::Live(encoded)))
        };
        self.touch(idx);
        self.release_raw(replaced);
        encoded_len
    }

    /// What this store holds for `key`, a live value decompressed.
    pub fn lookup(&self, key: &[u8]) -> Result<Lookup, StoreError> {
        let idx = self.shard_of_key(key);
        // Only the byte copy happens under the lock; decoding does not. A
        // raw value is its own copy, as `set` stores it without one.
        let slot = self.shards[idx]
            .state
            .read()
            .slot(key)
            .map(|slot| slot.encoded().map(|stored| stored.to_vec()));
        self.touch(idx);
        Ok(match slot {
            Some(Some(stored)) if matches!(self.codec, RecordCodec::Raw) => Lookup::Live(stored),
            Some(Some(stored)) => Lookup::Live(self.decode(&stored)?),
            Some(None) => Lookup::Tombstone,
            None => Lookup::Absent,
        })
    }

    /// Fetch and decompress a value (Redis `GET`).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(match self.lookup(key)? {
            Lookup::Live(value) => Some(value),
            Lookup::Tombstone | Lookup::Absent => None,
        })
    }

    /// Remove a stored key, leaving nothing behind. Returns whether it was
    /// stored. (A tombstone stays: callers layering cold storage
    /// underneath delete with [`TierStore::tombstone`] instead.)
    pub fn delete(&self, key: &[u8]) -> bool {
        let idx = self.shard_of_key(key);
        let removed = {
            let mut shard = self.shards[idx].state.write();
            let live = matches!(shard.slot(key), Some(Slot::Live(_)));
            live.then(|| self.replace_slot(&mut shard, HotKey::new(key), None))
                .flatten()
        };
        self.touch(idx);
        let existed = removed.is_some();
        self.release_raw(removed);
        existed
    }

    /// Delete `key` and keep the delete observable: whatever the slot held
    /// (a value or nothing) becomes a tombstone in one step, so the value
    /// is never gone before its tombstone is in place and a reader can
    /// never fall through to an older copy in colder storage. Returns
    /// whether the slot changed — `false` means it already was a
    /// tombstone.
    pub fn tombstone(&self, key: &[u8]) -> bool {
        let idx = self.shard_of_key(key);
        let (changed, replaced) = {
            let mut shard = self.shards[idx].state.write();
            let changed = !matches!(shard.slot(key), Some(Slot::Tombstone));
            let replaced = changed
                .then(|| self.replace_slot(&mut shard, HotKey::new(key), Some(Slot::Tombstone)))
                .flatten();
            (changed, replaced)
        };
        self.touch(idx);
        self.release_raw(replaced);
        changed
    }

    /// Bytes held by tombstoned keys (not part of
    /// [`TierStore::memory_usage_bytes`], which keeps Table 8 semantics).
    /// A single atomic load — cheap enough for per-write watermark checks.
    pub fn tombstone_bytes(&self) -> u64 {
        self.tombstone_bytes_total.load(Ordering::Relaxed)
    }

    /// The hot cut a range scan merges: the slots with keys in the closed
    /// interval `[start, end]` (`end = None`: unbounded above; inverted
    /// bounds: empty), ascending, tombstones included, up to and including
    /// the `limit`-th live one. Values stay **codec-encoded**: decode after
    /// the locks are released.
    ///
    /// The cut holds every shard's read lock at once, so it is atomic
    /// across shards. It seeks each shard's map to `start` and
    /// k-way-merges them, copying only the rows it returns. Past its last
    /// key the interval is left out, but up to that key the cut is
    /// complete: all a merge needs that yields at most `limit` rows and
    /// lets hot rows shadow colder ones.
    pub fn range_snapshot_encoded(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> RangeSnapshot {
        // `BTreeMap::range` panics on inverted bounds.
        if end.is_some_and(|end| start > end) {
            return RangeSnapshot::default();
        }
        let bounds = (
            Bound::Included(HotKey::new(start)),
            end.map_or(Bound::Unbounded, |end| Bound::Included(HotKey::new(end))),
        );
        self.cut(0..self.shards.len(), bounds, limit)
    }

    /// Every slot of `shards`, the same cut with an unbounded range and no
    /// limit: what a spill writes, and then hands to
    /// [`TierStore::evict_unchanged`].
    pub fn snapshot_shards(&self, shards: &[usize]) -> RangeSnapshot {
        let mut shards = shards.to_vec();
        shards.sort_unstable();
        shards.dedup();
        self.cut(shards, (Bound::Unbounded, Bound::Unbounded), usize::MAX)
    }

    /// The k-way merge behind both cuts, over `shards` in ascending order.
    ///
    /// Under the read locks it does three things: sum the cut shards' row
    /// and key-byte counts to size the snapshot's buffers, seek each
    /// shard's map to the lower bound, and pop rows off a binary heap of
    /// shard heads, so ordering a row costs O(log shards) key compares and
    /// copying it costs its key bytes plus one `Arc` clone.
    fn cut(
        &self,
        shards: impl IntoIterator<Item = usize>,
        bounds: (Bound<HotKey<'_>>, Bound<HotKey<'_>>),
        limit: usize,
    ) -> RangeSnapshot {
        let guards: Vec<_> = shards
            .into_iter()
            .map(|idx| self.shards[idx].state.read())
            .collect();
        let (slots, key_bytes) = guards.iter().fold((0, 0), |(slots, bytes), shard| {
            let bytes = bytes + shard.stored_key_bytes + shard.tombstone_bytes;
            (slots + shard.slots.len(), bytes)
        });
        if slots == 0 {
            return RangeSnapshot::default();
        }
        // A limited cut holds about `limit` rows of average length; tombstones
        // past them, or longer keys than average, grow the buffers instead.
        let rows = slots.min(limit);
        let mut snapshot = RangeSnapshot {
            keys: Vec::with_capacity((key_bytes as usize).div_ceil(slots) * rows),
            rows: Vec::with_capacity(rows),
        };
        let mut heads = Vec::with_capacity(guards.len());
        heads.extend(guards.iter().filter_map(|shard| {
            let slots: &BTreeMap<HotKey<'_>, Slot> = &shard.slots;
            let mut rest = slots.range(bounds.clone());
            let (key, slot) = rest.next()?;
            Some(Head { key, slot, rest })
        }));
        let mut heads = BinaryHeap::from(heads);
        let mut live = 0;
        while live < limit {
            let Some(mut head) = heads.peek_mut() else {
                break;
            };
            snapshot.push(head.key, head.slot);
            live += usize::from(head.slot.encoded().is_some());
            match head.rest.next() {
                // Dropping the `PeekMut` sifts the new head down.
                Some((key, slot)) => (head.key, head.slot) = (key, slot),
                None => drop(PeekMut::pop(head)),
            }
        }
        snapshot
    }

    /// Remove every slot of `copied` that still holds what the cut copied:
    /// the very same value (`Arc::ptr_eq`), or a tombstone where the cut
    /// had one. A slot written since — a new value, a tombstone over a
    /// copied value, a value over a copied tombstone — stays, because it
    /// is newer than the copy. Returns how many slots went.
    ///
    /// `copied` keeps every value it shares alive, so no new value can
    /// reuse a copied one's address. Each shard is visited once, under its
    /// write lock.
    pub fn evict_unchanged(&self, copied: &RangeSnapshot) -> usize {
        let mut by_shard = vec![Vec::new(); SHARDS];
        for (key, value) in copied.shared_rows() {
            by_shard[self.shard_of_key(key)].push((key, value));
        }
        let mut evicted = 0;
        for (idx, rows) in by_shard
            .iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
        {
            let mut removed = Vec::new();
            let mut shard = self.shards[idx].state.write();
            for &(key, copied) in rows {
                let unchanged = match (shard.slot(key), copied) {
                    (Some(Slot::Live(now)), Some(copied)) => Arc::ptr_eq(now, copied),
                    (Some(Slot::Tombstone), None) => true,
                    _ => false,
                };
                if unchanged {
                    removed.extend(self.replace_slot(&mut shard, HotKey::new(key), None));
                }
            }
            drop(shard);
            evicted += removed.len();
            self.release_raw(removed);
        }
        evicted
    }

    /// Take the raw lengths of values that left their slots out of the
    /// memory-ratio denominator. Called with the shard lock released: a
    /// compressing codec decodes each value to learn its length, while
    /// `RecordCodec::Raw` reads the stored length.
    fn release_raw(&self, replaced: impl IntoIterator<Item = Slot>) {
        let raw_codec = matches!(self.codec, RecordCodec::Raw);
        let raw: u64 = replaced
            .into_iter()
            .filter_map(|slot| match slot {
                Slot::Live(stored) if raw_codec => Some(stored.len() as u64),
                Slot::Live(stored) => {
                    Some(self.codec.decode(&stored).map_or(0, |v| v.len() as u64))
                }
                Slot::Tombstone => None,
            })
            .sum();
        if raw > 0 {
            self.raw_value_bytes.fetch_sub(raw, Ordering::Relaxed);
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.state.read().live_keys).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of stored (compressed) values plus keys — the store's data
    /// memory footprint (tombstones excluded; see
    /// [`TierStore::tombstone_bytes`]). A single atomic load — cheap
    /// enough for per-write watermark checks on the hot path.
    pub fn memory_usage_bytes(&self) -> u64 {
        self.stored_bytes_total.load(Ordering::Relaxed)
    }

    /// Memory usage relative to storing the same data uncompressed
    /// (Table 8's "Memory Usage (%)", uncompressed = 100%).
    pub fn memory_usage_ratio(&self) -> f64 {
        let key_bytes: u64 = self
            .shards
            .iter()
            .map(|s| s.state.read().stored_key_bytes)
            .sum();
        let raw = self.raw_value_bytes.load(Ordering::Relaxed) + key_bytes;
        if raw == 0 {
            return 1.0;
        }
        self.memory_usage_bytes() as f64 / raw as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_core::{PbcCompressor, PbcConfig};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn values(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                // Spread ids/timestamps over their digit range so a training
                // prefix of the corpus is representative of the rest.
                format!(
                    "sess|{:016x}|uid={}|dev=android-13|ip=10.0.{}.{}|exp={}",
                    (i as u64).wrapping_mul(0x9e3779b97f4a7c15),
                    10_000_000 + (i * 9_700_417) % 89_999_999,
                    i % 256,
                    (i * 7) % 256,
                    1_686_000_000 + (i * 86_413) % 9_999_999
                )
                .into_bytes()
            })
            .collect()
    }

    fn pbc_f(samples: &[&[u8]]) -> RecordCodec {
        RecordCodec::Pbc(Arc::new(PbcCompressor::train_fsst(
            samples,
            &PbcConfig::small(),
        )))
    }

    #[test]
    fn set_get_delete_roundtrip_uncompressed() {
        let store = TierStore::new(RecordCodec::Raw);
        let vals = values(100);
        for (i, v) in vals.iter().enumerate() {
            store.set(format!("key:{i}").as_bytes(), v);
        }
        assert_eq!(store.len(), 100);
        assert_eq!(
            store.get(b"key:42").unwrap().as_deref(),
            Some(vals[42].as_slice())
        );
        assert_eq!(store.get(b"key:999").unwrap(), None);
        assert!(store.delete(b"key:42"));
        assert!(!store.delete(b"key:42"));
        assert_eq!(store.get(b"key:42").unwrap(), None);
        assert_eq!(store.len(), 99);
    }

    #[test]
    fn pbc_codec_reduces_memory_usage() {
        let vals = values(500);
        let refs: Vec<&[u8]> = vals[..128].iter().map(|v| v.as_slice()).collect();
        let compressed = TierStore::new(pbc_f(&refs));
        let uncompressed = TierStore::new(RecordCodec::Raw);
        for (i, v) in vals.iter().enumerate() {
            let key = format!("user_session:{i:08}");
            compressed.set(key.as_bytes(), v);
            uncompressed.set(key.as_bytes(), v);
        }
        assert!(compressed.memory_usage_bytes() < uncompressed.memory_usage_bytes());
        assert!(compressed.memory_usage_ratio() < 0.75);
        assert!((uncompressed.memory_usage_ratio() - 1.0).abs() < 1e-9);
        // Values read back identical.
        for (i, v) in vals.iter().enumerate().step_by(37) {
            let key = format!("user_session:{i:08}");
            assert_eq!(
                compressed.get(key.as_bytes()).unwrap().as_deref(),
                Some(v.as_slice())
            );
        }
    }

    #[test]
    fn a_damaged_value_is_a_typed_error() {
        let vals = values(64);
        let refs: Vec<&[u8]> = vals.iter().map(|v| v.as_slice()).collect();
        let store = TierStore::new(pbc_f(&refs));
        store.set(b"k", &vals[0]);
        // A pattern id no dictionary has, in place of the encoded value.
        let damaged = Slot::Live(Arc::from(&[0xff, 0xff, 0x7f][..]));
        let idx = store.shard_of_key(b"k");
        store.replace_slot(
            &mut store.shards[idx].state.write(),
            HotKey::new(b"k"),
            Some(damaged),
        );
        assert!(matches!(
            store.lookup(b"k"),
            Err(StoreError::ValueCorrupt(ArchiveError::Pbc(_)))
        ));
        assert!(matches!(store.get(b"k"), Err(StoreError::ValueCorrupt(_))));
    }

    #[test]
    fn overwriting_a_key_updates_accounting() {
        let store = TierStore::new(RecordCodec::Raw);
        store.set(b"k", b"0123456789");
        let after_first = store.memory_usage_bytes();
        store.set(b"k", b"01234");
        let after_second = store.memory_usage_bytes();
        assert!(after_second < after_first);
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get(b"k").unwrap().as_deref(),
            Some(b"01234".as_slice())
        );
    }

    #[test]
    fn concurrent_readers_and_writers_are_safe() {
        use std::sync::Arc;
        let store = Arc::new(TierStore::new(RecordCodec::Raw));
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let key = format!("t{t}:k{i}");
                    store.set(key.as_bytes(), format!("value-{t}-{i}").as_bytes());
                    let got = store.get(key.as_bytes()).unwrap().unwrap();
                    assert_eq!(got, format!("value-{t}-{i}").into_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 2000);
    }

    #[test]
    fn empty_store_reports_neutral_ratio() {
        let store = TierStore::new(RecordCodec::Raw);
        assert!(store.is_empty());
        assert_eq!(store.memory_usage_ratio(), 1.0);
        assert_eq!(store.memory_usage_bytes(), 0);
    }

    #[test]
    fn shard_accounting_sums_to_store_accounting() {
        let store = TierStore::new(RecordCodec::Raw);
        let vals = values(200);
        for (i, v) in vals.iter().enumerate() {
            store.set(format!("acct:{i:05}").as_bytes(), v);
        }
        let per_shard: u64 = (0..store.shard_count())
            .map(|s| store.shard_memory_bytes(s))
            .sum();
        assert_eq!(per_shard, store.memory_usage_bytes());
    }

    #[test]
    fn access_epochs_order_shards_by_recency() {
        let store = TierStore::new(RecordCodec::Raw);
        // Touch two different shards in a known order.
        let (mut key_a, mut key_b) = (None, None);
        for i in 0..1_000 {
            let key = format!("probe:{i}");
            let shard = store.shard_of_key(key.as_bytes());
            match &key_a {
                None => key_a = Some((key.clone(), shard)),
                Some((_, shard_a)) if shard != *shard_a => {
                    key_b = Some((key.clone(), shard));
                    break;
                }
                Some(_) => {}
            }
        }
        let (key_a, shard_a) = key_a.unwrap();
        let (key_b, shard_b) = key_b.unwrap();
        store.set(key_a.as_bytes(), b"first");
        store.set(key_b.as_bytes(), b"second");
        assert!(store.shard_access_epoch(shard_a) < store.shard_access_epoch(shard_b));
        // A read refreshes recency.
        store.get(key_a.as_bytes()).unwrap();
        assert!(store.shard_access_epoch(shard_a) > store.shard_access_epoch(shard_b));
    }

    /// One key with its decoded value; `None` marks a tombstone.
    type Row = (Vec<u8>, Option<Vec<u8>>);

    /// The whole-interval cut with its values decoded.
    fn decoded_cut(store: &TierStore, start: &[u8], end: Option<&[u8]>) -> Vec<Row> {
        store
            .range_snapshot_encoded(start, end, usize::MAX)
            .iter()
            .map(|(key, stored)| {
                let value = stored.map(|s| store.decode(s).unwrap());
                (key.to_vec(), value)
            })
            .collect()
    }

    /// The store's slots, re-counted from a full cut:
    /// `(stored key + value bytes, tombstone bytes)`.
    fn recount(store: &TierStore) -> (u64, u64) {
        let mut counted = (0, 0);
        for (key, stored) in store.range_snapshot_encoded(b"", None, usize::MAX).iter() {
            match stored {
                Some(stored) => counted.0 += (key.len() + stored.len()) as u64,
                None => counted.1 += key.len() as u64,
            }
        }
        counted
    }

    fn assert_accounting(store: &TierStore, context: &str) {
        let totals = (store.memory_usage_bytes(), store.tombstone_bytes());
        assert_eq!(totals, recount(store), "totals vs recount, {context}");
        let shards = 0..store.shard_count();
        let per_shard = (
            shards.clone().map(|s| store.shard_memory_bytes(s)).sum(),
            shards.map(|s| store.shard_tombstone_bytes(s)).sum(),
        );
        assert_eq!(totals, per_shard, "totals vs per-shard sums, {context}");
        // The ratio's denominator is every live slot's key and decoded value.
        let raw: u64 = store
            .range_snapshot_encoded(b"", None, usize::MAX)
            .iter()
            .filter_map(|(key, stored)| {
                stored.map(|s| (key.len() + store.decode(s).unwrap().len()) as u64)
            })
            .sum();
        let ratio = store.memory_usage_ratio();
        let want = if raw == 0 {
            1.0
        } else {
            totals.0 as f64 / raw as f64
        };
        assert_eq!(ratio, want, "memory ratio vs recount, {context}");
        if matches!(store.codec(), RecordCodec::Raw) {
            assert_eq!(ratio, 1.0, "uncompressed memory ratio, {context}");
        }
    }

    #[test]
    fn slot_transitions_keep_state_and_accounting_exact() {
        // A compressing codec, so stored bytes differ from raw bytes and a
        // wrong length in the accounting cannot cancel out; and no codec,
        // whose memory ratio must read exactly 1.0 after every transition.
        slot_transitions(pbc_f);
        slot_transitions(|_| RecordCodec::Raw);
    }

    fn slot_transitions(codec: impl Fn(&[&[u8]]) -> RecordCodec) {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum State {
            Absent,
            Live,
            Dead, // tombstoned
        }
        #[derive(Debug, Clone, Copy)]
        enum Op {
            Set,
            Tombstone,
            Delete,
        }
        use Op::*;
        use State::*;
        // (before, op, what the op returns, after, whether the op's value
        // is the one stored afterwards). `set` always wins; `tombstone`
        // always leaves a tombstone and reports a change unless one was
        // there; `delete` only removes a live value.
        let table = [
            (Absent, Set, true, Live, true),
            (Live, Set, true, Live, true),
            (Dead, Set, true, Live, true),
            (Absent, Tombstone, true, Dead, false),
            (Live, Tombstone, true, Dead, false),
            (Dead, Tombstone, false, Dead, false),
            (Absent, Delete, false, Absent, false),
            (Live, Delete, true, Absent, false),
            (Dead, Delete, false, Dead, false),
        ];

        let vals = values(64 + 4 * table.len());
        let refs: Vec<&[u8]> = vals[..64].iter().map(|v| v.as_slice()).collect();
        let store = TierStore::new(codec(&refs));
        let mut expected: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();

        // The table twice over, so enough slots survive for the cuts below.
        let rows = table.iter().chain(&table).enumerate();
        for (row, &(before, op, returns, after, op_value_stored)) in rows {
            // Keys of varying length, one per row, so rows share shards
            // and some keys run past the 23 inline bytes.
            let key = format!("slot:{row:02}{}", "x".repeat(row * 2)).into_bytes();
            let (first, second) = (&vals[64 + 2 * row], &vals[65 + 2 * row]);
            let context = format!("row {row}: {before:?} x {op:?}");
            match before {
                Absent => {}
                Live => {
                    store.set(&key, first);
                }
                Dead => {
                    store.tombstone(&key);
                }
            }
            assert_accounting(&store, &format!("{context}, arranged"));

            let returned = match op {
                Set => store.set(&key, second) > 0,
                Tombstone => store.tombstone(&key),
                Delete => store.delete(&key),
            };
            assert_eq!(returned, returns, "{context}: return value");
            let value = if op_value_stored { second } else { first };
            let want = match after {
                Absent => Lookup::Absent,
                Live => Lookup::Live(value.clone()),
                Dead => Lookup::Tombstone,
            };
            assert_eq!(store.lookup(&key).unwrap(), want, "{context}: slot after");
            assert_eq!(
                store.get(&key).unwrap(),
                (after == Live).then(|| value.clone()),
                "{context}: get agrees with lookup"
            );
            assert_accounting(&store, &context);
            match after {
                Absent => {}
                Live => {
                    expected.insert(key, Some(value.clone()));
                }
                Dead => {
                    expected.insert(key, None);
                }
            }
        }
        let live = expected.values().filter(|v| v.is_some()).count();
        assert_eq!(store.len(), live, "len counts live slots only");

        // Cuts: sorted, unique, closed bounds, tombstones as `None`.
        let everything = decoded_cut(&store, b"", None);
        assert_eq!(
            everything,
            expected.clone().into_iter().collect::<Vec<_>>(),
            "full cut is the model, in key order"
        );
        let (lo, hi) = (&everything[3].0, &everything[9].0);
        assert_eq!(
            decoded_cut(&store, lo, Some(hi)),
            everything[3..=9],
            "both bounds inclusive"
        );
        assert_eq!(decoded_cut(&store, hi, None), everything[9..]);
        assert!(decoded_cut(&store, b"zzz", None).is_empty());
        assert!(
            decoded_cut(&store, hi, Some(lo)).is_empty(),
            "inverted bounds are an empty interval, not a panic"
        );

        // Copy, race, evict. A spill copies the shards it writes; writes
        // land while it runs; then it evicts. Exactly the slots that still
        // hold what was copied go, so every racing write stays.
        let spared = store.shard_of_key(&everything[0].0);
        let victims: Vec<usize> = (0..store.shard_count())
            .filter(|&idx| idx != spared)
            .collect();
        let copy = store.snapshot_shards(&victims);
        let copied: Vec<Row> = decoded_cut(&store, b"", None)
            .into_iter()
            .filter(|(key, _)| victims.contains(&store.shard_of_key(key)))
            .collect();
        let decoded_copy: Vec<Row> = copy
            .iter()
            .map(|(key, stored)| {
                let value = stored.map(|s| store.decode(s).unwrap());
                (key.to_vec(), value)
            })
            .collect();
        assert_eq!(decoded_copy, copied, "the copy is the victims' cut");
        let (live_rows, dead_rows): (Vec<&Row>, Vec<&Row>) =
            copied.iter().partition(|(_, value)| value.is_some());
        assert!(
            live_rows.len() >= 3 && !dead_rows.is_empty(),
            "a race for every kind"
        );
        let mut raced = BTreeMap::new();
        // The same bytes again are still a new version.
        let (rewritten, same) = live_rows[0];
        store.set(rewritten, same.as_ref().unwrap());
        raced.insert(rewritten.clone(), same.clone());
        // A tombstone over a copied value.
        store.tombstone(&live_rows[1].0);
        raced.insert(live_rows[1].0.clone(), None);
        // Set after delete: a value back over a copied tombstone, and a
        // copied value deleted then set again.
        store.set(&dead_rows[0].0, &vals[0]);
        raced.insert(dead_rows[0].0.clone(), Some(vals[0].clone()));
        store.delete(&live_rows[2].0);
        store.set(&live_rows[2].0, &vals[1]);
        raced.insert(live_rows[2].0.clone(), Some(vals[1].clone()));
        // A key the copy never saw.
        let fresh = b"slot:fresh".to_vec();
        store.set(&fresh, &vals[2]);
        raced.insert(fresh, Some(vals[2].clone()));
        assert_accounting(&store, "after the racing writes");

        let evicted = store.evict_unchanged(&copy);
        assert_eq!(
            evicted,
            copied.len() - 4,
            "every unchanged copied slot went"
        );
        assert_accounting(&store, "after evict_unchanged");
        let mut want: BTreeMap<Vec<u8>, Option<Vec<u8>>> = expected
            .into_iter()
            .filter(|(key, _)| !victims.contains(&store.shard_of_key(key)))
            .collect();
        want.extend(raced);
        assert_eq!(
            decoded_cut(&store, b"", None),
            want.into_iter().collect::<Vec<_>>(),
            "the other shards and the racing writes stay, nothing else"
        );
        assert_eq!(
            store.evict_unchanged(&copy),
            0,
            "a second evict finds nothing"
        );
        for idx in 0..store.shard_count() {
            store.evict_unchanged(&store.snapshot_shards(&[idx]));
        }
        assert!(store.is_empty());
        assert_eq!(
            (store.memory_usage_bytes(), store.tombstone_bytes()),
            (0, 0)
        );
        assert_accounting(&store, "emptied");
    }

    #[test]
    fn range_snapshot_tells_an_empty_value_from_a_tombstone() {
        // Both rows occupy zero value bytes in the snapshot's buffer.
        let store = TierStore::new(RecordCodec::Raw);
        store.set(b"a", b"");
        store.tombstone(b"b");
        store.set(b"c", b"x");
        let snapshot = store.range_snapshot_encoded(b"", None, usize::MAX);
        assert_eq!(
            snapshot.iter().collect::<Vec<_>>(),
            [
                (&b"a"[..], Some(&b""[..])),
                (&b"b"[..], None),
                (&b"c"[..], Some(&b"x"[..]))
            ]
        );
        assert_eq!(snapshot.get(1), Some((&b"b"[..], None)));
        assert_eq!(snapshot.get(3), None);
        assert!(store
            .range_snapshot_encoded(b"d", None, usize::MAX)
            .is_empty());
    }

    /// Bytes that make prefix and zero-padding cases likely.
    fn key_byte() -> impl Strategy<Value = u8> {
        (0usize..4).prop_map(|i| [0x00, 0x01, b'k', 0xff][i])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn hot_key_order_is_byte_order(
            a in vec(key_byte(), 0..41),
            b in vec(key_byte(), 0..41),
            shared in 0usize..41,
        ) {
            // `b` often repeats a prefix of `a`: up to all 23 inline bytes
            // and into the tail.
            let shared = shared.min(a.len());
            let b: Vec<u8> = a[..shared].iter().chain(&b).copied().take(40).collect();
            let (ka, kb) = (HotKey::new(&a), HotKey::new(&b));
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b), "{:?} vs {:?}", a, b);
            prop_assert_eq!(ka == kb, a == b);
            let mut bytes = Vec::new();
            ka.extend_into(&mut bytes);
            prop_assert_eq!(bytes, a.clone());
            prop_assert_eq!(ka.clone().into_owned().cmp(&kb), a.cmp(&b));
        }
    }

    #[test]
    fn hot_key_order_edge_cases() {
        let long = [b'k'; 30];
        let cases: [&[u8]; 10] = [
            b"",
            b"\0",
            b"ab",
            b"ab\0",
            b"ab\0\0",
            &long[..22],
            &long[..24],
            &long[..23],
            &long[..25],
            &long,
        ];
        for a in cases {
            for b in cases {
                assert_eq!(
                    HotKey::new(a).cmp(&HotKey::new(b)),
                    a.cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    /// The rows a cut of `[start, end]` must hold: the model's, through the
    /// `limit`-th live one, tombstones included.
    fn model_cut(
        model: &BTreeMap<Vec<u8>, Option<Vec<u8>>>,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Vec<Row> {
        let mut rows = Vec::new();
        let mut live = 0;
        let in_range = model
            .iter()
            .filter(|(key, _)| key.as_slice() >= start && end.is_none_or(|e| key.as_slice() <= e));
        for (key, value) in in_range {
            if live == limit {
                break;
            }
            live += usize::from(value.is_some());
            rows.push((key.clone(), value.clone()));
        }
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bounded_cuts_match_a_btreemap_model(
            ops in vec((0u8..4, 0usize..48, 0u32..1_000), 1..160),
            cuts in vec((0usize..48, 0usize..50, 0usize..14), 1..24),
            shard_sets in vec(any::<u16>(), 1..8),
        ) {
            // Short keys, and long ones sharing their first 24 bytes.
            let key = |k: usize| {
                let head = if k.is_multiple_of(3) { "cut:shared-inline-words:" } else { "cut:" };
                format!("{head}{:02}", k / 2).into_bytes()
            };
            let store = TierStore::new(RecordCodec::Raw);
            let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
            for (op, k, v) in ops {
                let key = key(k);
                match op {
                    0 | 1 => {
                        let value = format!("v{v}").into_bytes();
                        store.set(&key, &value);
                        model.insert(key, Some(value));
                    }
                    2 => {
                        store.tombstone(&key);
                        model.insert(key, None);
                    }
                    _ => {
                        let was_live = matches!(model.get(&key), Some(Some(_)));
                        prop_assert_eq!(store.delete(&key), was_live);
                        if was_live {
                            model.remove(&key);
                        }
                    }
                }
            }
            for (lo, hi, limit) in cuts {
                // hi == 48 or 49: unbounded above; limit 13: unlimited.
                let start = key(lo);
                let end = (hi < 48).then(|| key(hi));
                let limit = if limit == 13 { usize::MAX } else { limit };
                let got: Vec<Row> = store
                    .range_snapshot_encoded(&start, end.as_deref(), limit)
                    .iter()
                    .map(|(key, value)| (key.to_vec(), value.map(<[u8]>::to_vec)))
                    .collect();
                let want = model_cut(&model, &start, end.as_deref(), limit);
                prop_assert_eq!(got, want, "[{:?}, {:?}] limit {}", lo, hi, limit);
            }
            // A spill's cut: every slot of a set of shards (one bit each,
            // listed in any order and with repeats), through the same merge.
            for set in shard_sets {
                let mut shards: Vec<usize> = (0..SHARDS).filter(|s| set >> s & 1 == 1).collect();
                shards.extend(shards.clone().into_iter().rev());
                let got: Vec<Row> = store
                    .snapshot_shards(&shards)
                    .iter()
                    .map(|(key, value)| (key.to_vec(), value.map(<[u8]>::to_vec)))
                    .collect();
                let want: Vec<Row> = model_cut(&model, b"", None, usize::MAX)
                    .into_iter()
                    .filter(|(key, _)| shards.contains(&store.shard_of_key(key)))
                    .collect();
                prop_assert_eq!(got, want, "shards {:016b}", set);
            }
        }
    }
}
