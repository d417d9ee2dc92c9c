//! The sharded in-memory key-value store.
//!
//! A deliberately small model of TierBase's storage engine: keys are hashed
//! onto a fixed number of shards, each protected by a `parking_lot` RwLock,
//! and values pass through the configured [`ValueCodec`] on SET/GET. Memory
//! accounting counts stored key and value bytes, which is what Table 8's
//! "Memory Usage (%)" compares across codecs.
//!
//! Beyond the paper's experiment, the store is the hot tier of `pbc-tier`.
//! Each shard is one map from key to slot — a live (encoded) value or a
//! tombstone — so "stored and tombstoned at once" cannot be represented,
//! and every transition a tiered engine needs is one step under one lock:
//! [`TierStore::set`] (a live value replaces anything),
//! [`TierStore::tombstone`] (a delete that keeps shadowing colder copies),
//! [`TierStore::restore`] (put back only what nothing newer has replaced),
//! [`TierStore::take_shard`] (drain for a spill) and
//! [`TierStore::range_snapshot_encoded`] (the sorted cut a range scan
//! merges). Per-shard byte accounting and last-access epochs drive LRU
//! shard selection.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::engine::{StoreError, ValueCodec};

/// Number of shards (power of two).
const SHARDS: usize = 16;

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
    slots: HashMap<Vec<u8>, Slot>,
    /// How many slots are live; the rest are tombstones.
    live_keys: usize,
    stored_value_bytes: u64,
    stored_key_bytes: u64,
    tombstone_bytes: u64,
}

#[derive(Default)]
struct Shard {
    state: RwLock<ShardState>,
    /// Epoch of the most recent access (set/get/delete) — the LRU signal
    /// tiered storage uses to pick spill victims.
    last_access: AtomicU64,
}

/// One key with its decoded value as reported by [`TierStore::take_shard`]
/// and [`TierStore::range_snapshot`]; `None` marks a tombstone.
pub type RangeEntry = (Vec<u8>, Option<Vec<u8>>);

/// What [`TierStore::range_snapshot_encoded`] returns: the slots of a key
/// interval in ascending key order, values still codec-encoded.
///
/// Rows are packed back to back in one buffer, so a snapshot costs two
/// allocations however many rows it holds. A range scan snapshots every
/// hot row up to the end of its interval and usually reads the first few;
/// with a `Vec` per key and per value, cloning and freeing the rows it
/// never read made a scan's cost follow the fill of the hot tier, which
/// rises and falls with every spill.
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

    fn push(&mut self, key: &[u8], slot: &Slot) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(key);
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

    fn sort(&mut self) {
        let bytes = &self.bytes;
        self.rows
            .sort_unstable_by(|a, b| bytes[a.key..a.value].cmp(&bytes[b.key..b.value]));
    }
}

/// A TierBase-like sharded key-value store with value compression.
pub struct TierStore {
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

    /// Keys currently stored in shard `idx` (tombstones excluded).
    pub fn shard_len(&self, idx: usize) -> usize {
        self.shards[idx].state.read().live_keys
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
    fn replace_slot(&self, shard: &mut ShardState, key: &[u8], new: Option<Slot>) -> Option<Slot> {
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
        let old = match new {
            Some(slot) => shard.slots.insert(key.to_vec(), slot),
            None => shard.slots.remove(key),
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
            self.replace_slot(&mut shard, key, Some(Slot::Live(encoded)));
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
            .slots
            .get(key)
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
            let live = matches!(shard.slots.get(key), Some(Slot::Live(_)));
            if live {
                self.replace_slot(&mut shard, key, None);
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
            let changed = !matches!(shard.slots.get(key), Some(Slot::Tombstone));
            if changed {
                self.replace_slot(&mut shard, key, Some(Slot::Tombstone));
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
        if shard.slots.contains_key(key) {
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
        self.replace_slot(&mut shard, key, Some(slot));
        true
    }

    /// Bytes held by tombstoned keys (not part of
    /// [`TierStore::memory_usage_bytes`], which keeps Table 8 semantics).
    /// A single atomic load — cheap enough for per-write watermark checks.
    pub fn tombstone_bytes(&self) -> u64 {
        self.tombstone_bytes_total.load(Ordering::Relaxed)
    }

    /// Drain shard `idx`: remove every slot and return them sorted by key,
    /// values decoded, `None` for a tombstone. Decoding happens before
    /// anything is removed, so a corrupt value leaves the shard untouched.
    pub fn take_shard(&self, idx: usize) -> Result<Vec<RangeEntry>, StoreError> {
        let mut drained = {
            let mut shard = self.shards[idx].state.write();
            let drained = shard
                .slots
                .iter()
                .map(|(key, slot)| {
                    let value = slot.encoded().map(|s| self.codec.decode(s)).transpose()?;
                    Ok((key.clone(), value))
                })
                .collect::<Result<Vec<RangeEntry>, StoreError>>()?;
            // The totals move under the lock, in lockstep with the shard
            // they mirror (see replace_slot). The drained values' raw
            // bytes leave the memory-ratio denominator with them (and come
            // back via restore if a failed spill puts them back).
            self.stored_bytes_total.fetch_sub(
                shard.stored_value_bytes + shard.stored_key_bytes,
                Ordering::Relaxed,
            );
            self.tombstone_bytes_total
                .fetch_sub(shard.tombstone_bytes, Ordering::Relaxed);
            let drained_raw: u64 = drained
                .iter()
                .filter_map(|(_, value)| value.as_ref())
                .map(|value| value.len() as u64)
                .sum();
            self.raw_value_bytes
                .fetch_sub(drained_raw, Ordering::Relaxed);
            *shard = ShardState::default();
            drained
        };
        drained.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(drained)
    }

    /// A sorted snapshot of every slot whose key falls in the closed
    /// interval `[start, end]` (`end = None` means unbounded above), with
    /// values still **codec-encoded** as stored. Keys are unique: a key has
    /// one slot.
    ///
    /// This is the ordered-iteration hook a tiered range scan needs for
    /// its hot source: shards hash the keyspace, so order only exists
    /// after collecting across all of them. Only byte copies happen under
    /// the per-shard locks — decoding (see [`TierStore::range_snapshot`])
    /// is deliberately left to the caller, after every lock is released,
    /// so a wide scan's snapshot never stalls concurrent writers for the
    /// length of a decompression pass. The snapshot is taken shard by
    /// shard and is not atomic across shards — writes concurrent with the
    /// call may or may not be included, the same contract as
    /// [`TierStore::snapshot_to_segment`].
    pub fn range_snapshot_encoded(&self, start: &[u8], end: Option<&[u8]>) -> RangeSnapshot {
        let in_range = |key: &[u8]| key >= start && end.is_none_or(|e| key <= e);
        let mut snapshot = RangeSnapshot::default();
        for shard in &self.shards {
            let shard = shard.state.read();
            for (key, slot) in shard.slots.iter().filter(|(key, _)| in_range(key)) {
                snapshot.push(key, slot);
            }
        }
        snapshot.sort();
        snapshot
    }

    /// [`TierStore::range_snapshot_encoded`] with the values decoded —
    /// the decode pass runs after every shard lock has been released.
    pub fn range_snapshot(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Result<Vec<RangeEntry>, StoreError> {
        self.range_snapshot_encoded(start, end)
            .iter()
            .map(|(key, stored)| {
                let value = stored.map(|s| self.codec.decode(s)).transpose()?;
                Ok((key.to_vec(), value))
            })
            .collect()
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

    /// Spill the whole store to a durable `pbc-archive` segment at `path`.
    ///
    /// Values are decoded to raw bytes first, so the segment is independent
    /// of this store's [`ValueCodec`] (the segment writer re-compresses
    /// blocks with its own codec choice). Entries are written in sorted key
    /// order, which keeps the segment key-searchable via
    /// [`pbc_archive::SegmentReader::get`] and makes snapshots of the same
    /// contents byte-identical regardless of shard layout.
    ///
    /// The snapshot streams: only the key list is materialized up front;
    /// values are fetched and decoded one at a time as the segment writer
    /// consumes them, so peak extra allocation is bounded by the keys plus
    /// one decoded value plus the writer's current block — not the decoded
    /// corpus. Keys written or deleted concurrently with the snapshot may
    /// or may not be included (the snapshot was never atomic).
    pub fn snapshot_to_segment(
        &self,
        path: impl AsRef<std::path::Path>,
        config: pbc_archive::SegmentConfig,
    ) -> Result<pbc_archive::SegmentSummary, StoreError> {
        // Phase 1: every stored key with its shard, sorted. Values stay put.
        let mut keys: Vec<(Vec<u8>, u16)> = Vec::with_capacity(self.len());
        for (idx, shard) in self.shards.iter().enumerate() {
            let shard = shard.state.read();
            keys.extend(
                shard
                    .slots
                    .iter()
                    .filter(|(_, slot)| slot.encoded().is_some())
                    .map(|(key, _)| (key.clone(), idx as u16)),
            );
        }
        keys.sort_unstable();
        // Phase 2: stream values through the writer in key order.
        let mut writer = pbc_archive::SegmentWriter::create(path, config)?;
        for (key, idx) in &keys {
            let stored = self.shards[*idx as usize]
                .state
                .read()
                .slots
                .get(key)
                .and_then(|slot| slot.encoded().cloned());
            if let Some(stored) = stored {
                writer.append(key, &self.codec.decode(&stored)?)?;
            }
        }
        Ok(writer.finish()?)
    }

    /// Load a segment written by [`TierStore::snapshot_to_segment`] into a
    /// fresh store using the given value codec.
    pub fn restore_from_segment(
        path: impl AsRef<std::path::Path>,
        codec: ValueCodec,
    ) -> Result<TierStore, StoreError> {
        let reader = pbc_archive::SegmentReader::open(path)?;
        let store = TierStore::new(codec);
        for entry in reader.scan() {
            let (key, value) = entry?;
            store.set(&key, &value);
        }
        Ok(store)
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
        let per_shard_len: usize = (0..store.shard_count()).map(|s| store.shard_len(s)).sum();
        assert_eq!(per_shard_len, store.len());
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

    /// The store's slots, re-counted from a full snapshot:
    /// `(stored key + value bytes, tombstone bytes)`.
    fn recount(store: &TierStore) -> (u64, u64) {
        let mut counted = (0, 0);
        for (key, stored) in store.range_snapshot_encoded(b"", None).iter() {
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
        let mut expected: std::collections::BTreeMap<Vec<u8>, Option<Vec<u8>>> =
            std::collections::BTreeMap::new();

        for (row, &(before, op, returns, after, op_value_stored)) in table.iter().enumerate() {
            // Keys of varying length, one per row, so rows share shards.
            let key = format!("slot:{row:02}{}", "x".repeat(row)).into_bytes();
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

        // Range snapshots: sorted, unique, closed bounds, tombstones as
        // `None`, values decoded.
        let everything = store.range_snapshot(b"", None).unwrap();
        assert_eq!(
            everything,
            expected.clone().into_iter().collect::<Vec<_>>(),
            "full snapshot is the model, in key order"
        );
        let (lo, hi) = (&everything[3].0, &everything[9].0);
        assert_eq!(
            store.range_snapshot(lo, Some(hi)).unwrap(),
            everything[3..=9],
            "both bounds inclusive"
        );
        assert_eq!(store.range_snapshot(hi, None).unwrap(), everything[9..]);
        assert!(store.range_snapshot(b"zzz", None).unwrap().is_empty());
        assert!(
            store.range_snapshot(hi, Some(lo)).unwrap().is_empty(),
            "inverted bounds are an empty interval, not a panic"
        );

        // Draining: each shard hands back exactly its own slots, sorted
        // and decoded, and every counter returns to zero with them.
        let mut drained = Vec::new();
        for idx in 0..store.shard_count() {
            let shard = store.take_shard(idx).unwrap();
            assert!(shard.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
            assert!(shard.iter().all(|(key, _)| store.shard_of_key(key) == idx));
            assert_eq!(store.shard_len(idx), 0);
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
    fn range_snapshot_tells_an_empty_value_from_a_tombstone() {
        // Both rows occupy zero value bytes in the snapshot's buffer.
        let store = TierStore::new(ValueCodec::None);
        store.set(b"a", b"");
        store.tombstone(b"b");
        store.set(b"c", b"x");
        let snapshot = store.range_snapshot_encoded(b"", None);
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
        assert!(store.range_snapshot_encoded(b"d", None).is_empty());
    }

    /// Unique temp path with a drop-guard, so failing tests don't leak
    /// segment files (and parallel tests can't collide on a tag).
    fn temp_segment(tag: &str) -> (std::path::PathBuf, TempSegment) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "pbc-store-test-{}-{tag}-{}.seg",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        (path.clone(), TempSegment(path))
    }

    struct TempSegment(std::path::PathBuf);

    impl Drop for TempSegment {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn snapshot_and_restore_preserve_every_entry() {
        use pbc_archive::{SegmentConfig, SegmentReader};
        let vals = values(400);
        let refs: Vec<&[u8]> = vals[..128].iter().map(|v| v.as_slice()).collect();
        let store = TierStore::new(ValueCodec::train_pbc_f(&refs, &PbcConfig::small()));
        for (i, v) in vals.iter().enumerate() {
            store.set(format!("sess:{i:06}").as_bytes(), v);
        }

        let (path, _guard) = temp_segment("roundtrip");
        let summary = store
            .snapshot_to_segment(&path, SegmentConfig::default())
            .unwrap();
        assert_eq!(summary.record_count, 400);

        // The segment itself is key-searchable (snapshot sorts by key).
        let reader = SegmentReader::open(&path).unwrap();
        assert!(reader.is_sorted());
        assert_eq!(
            reader.get(b"sess:000123").unwrap().as_deref(),
            Some(vals[123].as_slice())
        );
        drop(reader);

        // Restoring into a different codec still yields identical values.
        let restored = TierStore::restore_from_segment(&path, ValueCodec::None).unwrap();
        assert_eq!(restored.len(), 400);
        for (i, v) in vals.iter().enumerate().step_by(29) {
            let key = format!("sess:{i:06}");
            assert_eq!(
                restored.get(key.as_bytes()).unwrap().as_deref(),
                Some(v.as_slice())
            );
        }
    }

    #[test]
    fn snapshots_are_deterministic_across_stores() {
        use pbc_archive::SegmentConfig;
        let vals = values(200);
        let a = TierStore::new(ValueCodec::None);
        let b = TierStore::new(ValueCodec::None);
        // Insert in different orders; sorted snapshot must erase the
        // difference.
        for (i, v) in vals.iter().enumerate() {
            a.set(format!("k:{i:05}").as_bytes(), v);
        }
        for (i, v) in vals.iter().enumerate().rev() {
            b.set(format!("k:{i:05}").as_bytes(), v);
        }
        let (path_a, _guard_a) = temp_segment("det-a");
        let (path_b, _guard_b) = temp_segment("det-b");
        a.snapshot_to_segment(&path_a, SegmentConfig::default())
            .unwrap();
        b.snapshot_to_segment(&path_b, SegmentConfig::default())
            .unwrap();
        assert_eq!(
            std::fs::read(&path_a).unwrap(),
            std::fs::read(&path_b).unwrap()
        );
    }

    #[test]
    fn restore_surfaces_archive_errors_with_source_chain() {
        use std::error::Error;
        let (missing, _guard) = temp_segment("missing-never-written");
        let err = TierStore::restore_from_segment(&missing, ValueCodec::None).unwrap_err();
        let StoreError::Archive(archive) = &err else {
            panic!("expected StoreError::Archive, got {err:?}");
        };
        assert!(matches!(**archive, pbc_archive::ArchiveError::Io(_)));
        // The chain stays non-lossy: StoreError -> ArchiveError -> io::Error.
        let source = err.source().expect("archive source");
        assert!(source.source().is_some(), "io::Error should be chained");
    }
}
