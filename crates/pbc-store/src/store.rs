//! The sharded in-memory key-value store.
//!
//! A deliberately small model of TierBase's storage engine: keys are hashed
//! onto a fixed number of shards, each protected by a `parking_lot` RwLock,
//! and values pass through the configured [`ValueCodec`] on SET/GET. Memory
//! accounting counts stored key and value bytes, which is what Table 8's
//! "Memory Usage (%)" compares across codecs.
//!
//! Beyond the paper's experiment, the store is the hot tier of `pbc-tier`.
//! Each shard is one ordered map from key to slot — a live (encoded) value
//! or a tombstone — so "stored and tombstoned at once" cannot be
//! represented, and every transition a tiered engine needs is one step
//! under one lock: [`TierStore::set`] (a live value replaces anything),
//! [`TierStore::tombstone`] (a delete that keeps shadowing colder copies),
//! [`TierStore::restore`] (put back only what nothing newer has replaced),
//! [`TierStore::take_shard`] (drain for a spill) and
//! [`TierStore::range_snapshot_encoded`] (the bounded cut a range scan
//! merges). Per-shard byte accounting and last-access epochs drive LRU
//! shard selection.

use std::borrow::Cow;
use std::cmp::Ordering as KeyOrder;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::engine::{StoreError, ValueCodec};

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
    /// The codec-encoded value.
    Live(Vec<u8>),
    /// Deleted here while colder storage may still hold an older version.
    Tombstone,
}

impl Slot {
    /// The encoded value, `None` for a tombstone.
    fn encoded(&self) -> Option<&Vec<u8>> {
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

/// One shard's slots plus their byte accounting. The accounting lives
/// inside the lock so [`TierStore::take_shard`] can drain and zero it
/// atomically with respect to concurrent writers.
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

/// One key with its decoded value as reported by [`TierStore::take_shard`];
/// `None` marks a tombstone.
pub type RangeEntry = (Vec<u8>, Option<Vec<u8>>);

/// What [`TierStore::range_snapshot_encoded`] returns: the slots of a key
/// interval in ascending key order, values still codec-encoded.
///
/// Rows are packed back to back in one buffer, so a snapshot costs two
/// allocations however many rows it holds.
#[derive(Debug, Default)]
pub struct RangeSnapshot {
    /// Key, then encoded value, of every row.
    bytes: Vec<u8>,
    rows: Vec<SnapshotRow>,
}

/// Where one row lies in [`RangeSnapshot::bytes`]: the key is
/// `key..value`, the encoded value `value..end`.
#[derive(Debug)]
struct SnapshotRow {
    key: usize,
    value: usize,
    end: usize,
    /// `false` marks a tombstone (its value range is empty).
    live: bool,
}

impl RangeSnapshot {
    /// Whether the snapshot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `idx` in key order: its key and its encoded value, `None` for a
    /// tombstone. `None` past the last row.
    pub fn get(&self, idx: usize) -> Option<(&[u8], Option<&[u8]>)> {
        self.rows.get(idx).map(|row| self.row(row))
    }

    /// Every row in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&[u8]>)> {
        self.rows.iter().map(|row| self.row(row))
    }

    fn row(&self, row: &SnapshotRow) -> (&[u8], Option<&[u8]>) {
        let stored = row.live.then(|| &self.bytes[row.value..row.end]);
        (&self.bytes[row.key..row.value], stored)
    }

    fn push(&mut self, key: &HotKey<'_>, slot: &Slot) {
        let start = self.bytes.len();
        key.extend_into(&mut self.bytes);
        let value = self.bytes.len();
        self.bytes
            .extend_from_slice(slot.encoded().map_or(&[][..], Vec::as_slice));
        self.rows.push(SnapshotRow {
            key: start,
            value,
            end: self.bytes.len(),
            live: slot.encoded().is_some(),
        });
    }
}

/// A TierBase-like sharded key-value store with value compression.
pub struct TierStore {
    /// Lock order: a thread takes at most one shard's write lock and
    /// holds no other shard lock while it does. Only
    /// [`TierStore::range_snapshot_encoded`] holds several shard locks at
    /// once: read locks only, taken in ascending index order.
    shards: Vec<Shard>,
    codec: ValueCodec,
    raw_value_bytes: AtomicU64,
    /// Global access counter; each shard access stamps the shard with the
    /// next value.
    epoch: AtomicU64,
    /// Running total of stored key + value bytes across all shards,
    /// updated with every per-shard delta. Watermark checks on the write
    /// path read this with two atomic loads instead of taking every shard
    /// lock; the per-shard counters stay the exact source of truth for
    /// [`TierStore::shard_memory_bytes`] and [`TierStore::take_shard`].
    stored_bytes_total: AtomicU64,
    /// Running total of tombstone key bytes, mirroring the per-shard
    /// tombstone accounting the same way.
    tombstone_bytes_total: AtomicU64,
}

impl std::fmt::Debug for TierStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierStore")
            .field("len", &self.len())
            .field("codec", &self.codec)
            .field("memory_usage_bytes", &self.memory_usage_bytes())
            .field("tombstone_bytes", &self.tombstone_bytes())
            .finish()
    }
}

impl TierStore {
    /// Create a store with the given value codec.
    pub fn new(codec: ValueCodec) -> Self {
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
    pub fn codec(&self) -> &ValueCodec {
        &self.codec
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
    /// lock the caller holds: they must move in lockstep with the
    /// per-shard counters, or a racing [`TierStore::take_shard`] (which
    /// subtracts the per-shard sums under that lock) could transiently
    /// wrap the u64 totals.
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
        let encoded = self.codec.encode(value);
        let encoded_len = encoded.len();
        let idx = self.shard_of_key(key);
        {
            let mut shard = self.shards[idx].state.write();
            self.replace_slot(&mut shard, HotKey::new(key), Some(Slot::Live(encoded)));
            self.raw_value_bytes
                .fetch_add(value.len() as u64, Ordering::Relaxed);
        }
        self.touch(idx);
        encoded_len
    }

    /// What this store holds for `key`, a live value decompressed.
    pub fn lookup(&self, key: &[u8]) -> Result<Lookup, StoreError> {
        let idx = self.shard_of_key(key);
        // Only the byte clone happens under the lock; decoding does not.
        let slot = self.shards[idx]
            .state
            .read()
            .slot(key)
            .map(|slot| slot.encoded().cloned());
        self.touch(idx);
        Ok(match slot {
            Some(Some(stored)) => Lookup::Live(self.codec.decode(&stored)?),
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
        let existed = {
            let mut shard = self.shards[idx].state.write();
            let live = matches!(shard.slot(key), Some(Slot::Live(_)));
            if live {
                self.replace_slot(&mut shard, HotKey::new(key), None);
            }
            live
        };
        self.touch(idx);
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
        let changed = {
            let mut shard = self.shards[idx].state.write();
            let changed = !matches!(shard.slot(key), Some(Slot::Tombstone));
            if changed {
                self.replace_slot(&mut shard, HotKey::new(key), Some(Slot::Tombstone));
            }
            changed
        };
        self.touch(idx);
        changed
    }

    /// Put a drained entry (`None` = tombstone) back, only if the store
    /// holds nothing for `key`. Returns whether it went in.
    ///
    /// This is the rollback for a failed spill: whatever was written to
    /// the slot while the spill ran — a value or a tombstone — was
    /// acknowledged after the drained copy and must win over it.
    pub fn restore(&self, key: &[u8], value: Option<&[u8]>) -> bool {
        let idx = self.shard_of_key(key);
        let mut shard = self.shards[idx].state.write();
        if shard.slot(key).is_some() {
            return false;
        }
        let slot = match value {
            Some(value) => {
                self.raw_value_bytes
                    .fetch_add(value.len() as u64, Ordering::Relaxed);
                Slot::Live(self.codec.encode(value))
            }
            None => Slot::Tombstone,
        };
        self.replace_slot(&mut shard, HotKey::new(key), Some(slot));
        true
    }

    /// Bytes held by tombstoned keys (not part of
    /// [`TierStore::memory_usage_bytes`], which keeps Table 8 semantics).
    /// A single atomic load — cheap enough for per-write watermark checks.
    pub fn tombstone_bytes(&self) -> u64 {
        self.tombstone_bytes_total.load(Ordering::Relaxed)
    }

    /// Drain shard `idx`: remove every slot and return them in key order,
    /// values decoded, `None` for a tombstone. Only the map moves under the
    /// write lock; decoding runs after it. If a value fails to decode, the
    /// drained slots go back into every slot nothing has refilled since (as
    /// [`TierStore::restore`] does), so a corrupt value costs the spill,
    /// never data.
    pub fn take_shard(&self, idx: usize) -> Result<Vec<RangeEntry>, StoreError> {
        let drained = {
            let mut shard = self.shards[idx].state.write();
            // The totals move under the lock, in lockstep with the shard
            // they mirror (see replace_slot).
            self.stored_bytes_total.fetch_sub(
                shard.stored_value_bytes + shard.stored_key_bytes,
                Ordering::Relaxed,
            );
            self.tombstone_bytes_total
                .fetch_sub(shard.tombstone_bytes, Ordering::Relaxed);
            std::mem::take(&mut *shard).slots
        };
        let decoded: Result<Vec<RangeEntry>, _> = drained
            .iter()
            .map(|(key, slot)| {
                let mut bytes = Vec::with_capacity(key.len());
                key.extend_into(&mut bytes);
                Ok((
                    bytes,
                    slot.encoded().map(|s| self.codec.decode(s)).transpose()?,
                ))
            })
            .collect();
        match decoded {
            Ok(entries) => {
                // The drained values' raw bytes leave the memory-ratio
                // denominator with them (restore puts them back).
                let raw = entries.iter().filter_map(|(_, value)| value.as_ref());
                let raw: u64 = raw.map(|value| value.len() as u64).sum();
                self.raw_value_bytes.fetch_sub(raw, Ordering::Relaxed);
                Ok(entries)
            }
            Err(e) => {
                let mut shard = self.shards[idx].state.write();
                for (key, slot) in drained {
                    if !shard.slots.contains_key(&key) {
                        self.replace_slot(&mut shard, key, Some(slot));
                    }
                }
                Err(e)
            }
        }
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
        let mut snapshot = RangeSnapshot::default();
        // `BTreeMap::range` panics on inverted bounds.
        if end.is_some_and(|end| start > end) {
            return snapshot;
        }
        let bounds = (
            Bound::Included(HotKey::new(start)),
            end.map_or(Bound::Unbounded, |end| Bound::Included(HotKey::new(end))),
        );
        let guards: Vec<_> = self.shards.iter().map(|shard| shard.state.read()).collect();
        let mut cursors: Vec<_> = guards
            .iter()
            .map(|shard| {
                let slots: &BTreeMap<HotKey<'_>, Slot> = &shard.slots;
                slots.range(bounds.clone())
            })
            .collect();
        let mut heads: Vec<_> = cursors.iter_mut().map(Iterator::next).collect();
        let mut live = 0;
        while live < limit {
            let next = heads
                .iter()
                .enumerate()
                .filter_map(|(i, head)| head.map(|(key, slot)| (i, key, slot)))
                .min_by(|a, b| a.1.cmp(b.1));
            let Some((i, key, slot)) = next else { break };
            snapshot.push(key, slot);
            live += usize::from(slot.encoded().is_some());
            heads[i] = cursors[i].next();
        }
        snapshot
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
    use pbc_core::PbcConfig;
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

    #[test]
    fn set_get_delete_roundtrip_uncompressed() {
        let store = TierStore::new(ValueCodec::None);
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
        let compressed = TierStore::new(ValueCodec::train_pbc_f(&refs, &PbcConfig::small()));
        let uncompressed = TierStore::new(ValueCodec::None);
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
    fn overwriting_a_key_updates_accounting() {
        let store = TierStore::new(ValueCodec::None);
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
        let store = Arc::new(TierStore::new(ValueCodec::None));
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
        let store = TierStore::new(ValueCodec::None);
        assert!(store.is_empty());
        assert_eq!(store.memory_usage_ratio(), 1.0);
        assert_eq!(store.memory_usage_bytes(), 0);
    }

    #[test]
    fn shard_accounting_sums_to_store_accounting() {
        let store = TierStore::new(ValueCodec::None);
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
        let store = TierStore::new(ValueCodec::None);
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

    /// The whole-interval cut with its values decoded.
    fn decoded_cut(store: &TierStore, start: &[u8], end: Option<&[u8]>) -> Vec<RangeEntry> {
        store
            .range_snapshot_encoded(start, end, usize::MAX)
            .iter()
            .map(|(key, stored)| {
                let value = stored.map(|s| store.codec().decode(s).unwrap());
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
    }

    #[test]
    fn slot_transitions_keep_state_and_accounting_exact() {
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
            RestoreLive,
            RestoreTombstone,
        }
        use Op::*;
        use State::*;
        // (before, op, what the op returns, after, whether the op's value
        // is the one stored afterwards). `set` always wins; `tombstone`
        // always leaves a tombstone and reports a change unless one was
        // there; `delete` only removes a live value; `restore` only fills
        // an empty slot.
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
            (Absent, RestoreLive, true, Live, true),
            (Live, RestoreLive, false, Live, false),
            (Dead, RestoreLive, false, Dead, false),
            (Absent, RestoreTombstone, true, Dead, false),
            (Live, RestoreTombstone, false, Live, false),
            (Dead, RestoreTombstone, false, Dead, false),
        ];

        // A compressing codec, so stored bytes differ from raw bytes and a
        // wrong length in the accounting cannot cancel out.
        let vals = values(64 + 2 * table.len());
        let refs: Vec<&[u8]> = vals[..64].iter().map(|v| v.as_slice()).collect();
        let store = TierStore::new(ValueCodec::train_pbc_f(&refs, &PbcConfig::small()));
        let mut expected: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();

        for (row, &(before, op, returns, after, op_value_stored)) in table.iter().enumerate() {
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
                RestoreLive => store.restore(&key, Some(second)),
                RestoreTombstone => store.restore(&key, None),
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

        // Draining: each shard hands back exactly its own slots, sorted
        // and decoded, and every counter returns to zero with them.
        let mut drained = Vec::new();
        for idx in 0..store.shard_count() {
            let shard = store.take_shard(idx).unwrap();
            assert!(shard.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
            assert!(shard.iter().all(|(key, _)| store.shard_of_key(key) == idx));
            assert_eq!(store.shard_memory_bytes(idx), 0);
            assert_accounting(&store, &format!("after take_shard({idx})"));
            drained.extend(shard);
        }
        drained.sort();
        assert_eq!(drained, everything, "nothing lost, nothing invented");
        assert!(store.is_empty());
        assert_eq!(
            (store.memory_usage_bytes(), store.tombstone_bytes()),
            (0, 0)
        );
    }

    #[test]
    fn a_corrupt_value_puts_the_whole_drain_back() {
        let vals = values(60);
        let refs: Vec<&[u8]> = vals.iter().map(|v| v.as_slice()).collect();
        let store = TierStore::new(ValueCodec::train_zstd_dict(&refs, 3));
        for (i, v) in vals.iter().enumerate() {
            store.set(format!("drain:{i:03}").as_bytes(), v);
        }
        store.tombstone(b"drain:gone");
        // Bytes the codec cannot decode, planted beside the good values.
        let bad = b"drain:bad".as_slice();
        let idx = store.shard_of_key(bad);
        {
            let mut shard = store.shards[idx].state.write();
            let corrupt = Slot::Live(vec![0xff, 0x13, 0x88]);
            store.replace_slot(&mut shard, HotKey::new(bad), Some(corrupt));
        }
        let before = store.range_snapshot_encoded(b"", None, usize::MAX);
        let totals = (store.memory_usage_bytes(), store.tombstone_bytes());

        assert!(store.take_shard(idx).is_err());
        let after = store.range_snapshot_encoded(b"", None, usize::MAX);
        assert_eq!(
            after.iter().collect::<Vec<_>>(),
            before.iter().collect::<Vec<_>>()
        );
        assert_eq!(
            (store.memory_usage_bytes(), store.tombstone_bytes()),
            totals
        );
        assert_accounting(&store, "after a failed drain");
    }

    #[test]
    fn range_snapshot_tells_an_empty_value_from_a_tombstone() {
        // Both rows occupy zero value bytes in the snapshot's buffer.
        let store = TierStore::new(ValueCodec::None);
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
    ) -> Vec<RangeEntry> {
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
        ) {
            // Short keys, and long ones sharing their first 24 bytes.
            let key = |k: usize| {
                let head = if k.is_multiple_of(3) { "cut:shared-inline-words:" } else { "cut:" };
                format!("{head}{:02}", k / 2).into_bytes()
            };
            let store = TierStore::new(ValueCodec::None);
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
                let got: Vec<RangeEntry> = store
                    .range_snapshot_encoded(&start, end.as_deref(), limit)
                    .iter()
                    .map(|(key, value)| (key.to_vec(), value.map(<[u8]>::to_vec)))
                    .collect();
                let want = model_cut(&model, &start, end.as_deref(), limit);
                prop_assert_eq!(got, want, "[{:?}, {:?}] limit {}", lo, hi, limit);
            }
        }
    }
}
