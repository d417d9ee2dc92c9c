//! The state under the cache lock: every entry in one slab, filed by
//! segment, and the two 2Q recency lists threaded through the slab.
//!
//! `cache.rs` decides what a lookup returns and what is admitted; this
//! module keeps the segment maps, the slab and the lists agreeing: every
//! resident entry is named by exactly one map slot and sits on exactly one
//! list, and each list's byte total is the sum of its entries' charges.
//! The lists are doubly linked through slab indices, so a hit moves an
//! entry in O(1) and allocates nothing; only admissions grow the slab or
//! a map.

use std::collections::HashMap;
use std::sync::Arc;

use crate::cache::Cached;

/// The end of a list.
const NIL: u32 = u32::MAX;

/// An entry's name within its segment.
pub(crate) enum EntryName {
    Block(usize),
    Record(Arc<[u8]>),
}

/// A resident entry: where it is filed, and what it holds.
pub(crate) struct Entry {
    pub(crate) segment: u64,
    pub(crate) name: EntryName,
    pub(crate) value: Cached,
}

/// An entry's place on its recency list, and its charge.
#[derive(Clone, Copy)]
pub(crate) struct Node {
    /// Toward the MRU end.
    prev: u32,
    /// Toward the LRU end.
    next: u32,
    bytes: usize,
    /// Which list the entry is on.
    protected: bool,
}

/// One recency list: MRU at the head, LRU at the tail.
#[derive(Clone, Copy)]
struct List {
    mru: u32,
    lru: u32,
    bytes: usize,
}

impl Default for List {
    fn default() -> Self {
        List {
            mru: NIL,
            lru: NIL,
            bytes: 0,
        }
    }
}

/// Every entry of one segment, by name: slab indices.
#[derive(Default)]
pub(crate) struct SegmentSlots {
    pub(crate) blocks: HashMap<usize, u32>,
    pub(crate) records: HashMap<Arc<[u8]>, u32>,
}

impl SegmentSlots {
    fn index(&self, name: &EntryName) -> Option<u32> {
        match name {
            EntryName::Block(block) => self.blocks.get(block).copied(),
            EntryName::Record(key) => self.records.get(&**key).copied(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.blocks.len() + self.records.len()
    }
}

/// The whole cache state, kept under the cache lock.
#[derive(Default)]
pub(crate) struct TwoQ {
    pub(crate) segments: HashMap<u64, SegmentSlots>,
    nodes: Vec<Node>,
    /// `None` marks a free slab slot; `free` lists them for reuse.
    entries: Vec<Option<Entry>>,
    free: Vec<u32>,
    probation: List,
    protected: List,
}

impl TwoQ {
    pub(crate) fn probation_bytes(&self) -> usize {
        self.probation.bytes
    }

    pub(crate) fn protected_bytes(&self) -> usize {
        self.protected.bytes
    }

    pub(crate) fn total_bytes(&self) -> usize {
        self.probation.bytes + self.protected.bytes
    }

    /// Resident entries: (blocks, records).
    pub(crate) fn entry_counts(&self) -> (usize, usize) {
        self.segments
            .values()
            .fold((0, 0), |(blocks, records), slots| {
                (blocks + slots.blocks.len(), records + slots.records.len())
            })
    }

    /// Take entry `i` off its list.
    fn unlink(&mut self, i: u32) {
        let Node {
            prev,
            next,
            bytes,
            protected,
        } = self.nodes[i as usize];
        let list = if protected {
            &mut self.protected
        } else {
            &mut self.probation
        };
        if prev == NIL {
            list.mru = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            list.lru = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        list.bytes -= bytes;
    }

    /// Put entry `i` at the MRU end of the protected or probation list.
    fn push_mru(&mut self, i: u32, protected: bool) {
        let list = if protected {
            &mut self.protected
        } else {
            &mut self.probation
        };
        let old = list.mru;
        let node = &mut self.nodes[i as usize];
        node.prev = NIL;
        node.next = old;
        node.protected = protected;
        list.bytes += node.bytes;
        list.mru = i;
        if old == NIL {
            list.lru = i;
        } else {
            self.nodes[old as usize].prev = i;
        }
    }

    /// Refresh entry `i`, which a lookup just hit: it moves to the
    /// protected MRU position, and a probationary entry's promotion
    /// demotes the protected LRU back to probation while protected holds
    /// more than `protected_target` bytes. Returns what the lookup answers
    /// and whether the hit promoted the entry.
    pub(crate) fn hit(&mut self, i: u32, protected_target: usize) -> Option<(Cached, bool)> {
        let answer = self.entries[i as usize].as_ref()?.value.clone();
        let promoted = !self.nodes[i as usize].protected;
        self.unlink(i);
        self.push_mru(i, true);
        // Promotion moves bytes between lists, never past total capacity;
        // only the protected budget needs rebalancing.
        while promoted && self.protected.bytes > protected_target && self.protected.lru != NIL {
            let lru = self.protected.lru;
            self.unlink(lru);
            self.push_mru(lru, false);
        }
        Some((answer, promoted))
    }

    /// Admit an entry at the probation MRU position, replacing any entry
    /// of the same name (returned, for the caller to drop after the lock).
    pub(crate) fn admit(
        &mut self,
        segment: u64,
        name: EntryName,
        value: Cached,
        bytes: usize,
    ) -> Option<Entry> {
        let resident = self
            .segments
            .get(&segment)
            .and_then(|slots| slots.index(&name));
        let replaced = resident.and_then(|i| self.remove(i));
        let node = Node {
            prev: NIL,
            next: NIL,
            bytes,
            protected: false,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.entries.push(None);
                (self.nodes.len() - 1) as u32
            }
        };
        let slots = self.segments.entry(segment).or_default();
        match &name {
            EntryName::Block(block) => slots.blocks.insert(*block, i),
            EntryName::Record(key) => slots.records.insert(Arc::clone(key), i),
        };
        self.entries[i as usize] = Some(Entry {
            segment,
            name,
            value,
        });
        self.push_mru(i, false);
        replaced
    }

    /// Remove entry `i` from its list, its segment's map and the slab.
    fn remove(&mut self, i: u32) -> Option<Entry> {
        let entry = self.entries[i as usize].take()?;
        self.unlink(i);
        self.free.push(i);
        if let Some(slots) = self.segments.get_mut(&entry.segment) {
            match &entry.name {
                EntryName::Block(block) => slots.blocks.remove(block),
                EntryName::Record(key) => slots.records.remove(&**key),
            };
            if slots.len() == 0 {
                self.segments.remove(&entry.segment);
            }
        }
        Some(entry)
    }

    /// Evict LRU entries, probation first, until at most `capacity` bytes
    /// remain. Evicted entries go to `evicted`, to be dropped after the
    /// lock; returns how many of them were probationary.
    pub(crate) fn evict_to(&mut self, capacity: usize, evicted: &mut Vec<Entry>) -> u64 {
        let mut from_probation = 0;
        while self.total_bytes() > capacity {
            let probationary = self.probation.lru != NIL;
            let lru = if probationary {
                self.probation.lru
            } else {
                self.protected.lru
            };
            // Bytes above zero imply a resident entry on one of the lists.
            let Some(entry) = (lru != NIL).then(|| self.remove(lru)).flatten() else {
                break;
            };
            evicted.push(entry);
            from_probation += u64::from(probationary);
        }
        from_probation
    }

    /// Remove every entry of `segment` into `dropped`: the segment's own
    /// entries, found through its maps, and nothing else.
    pub(crate) fn remove_segment(&mut self, segment: u64, dropped: &mut Vec<Entry>) {
        let Some(slots) = self.segments.remove(&segment) else {
            return;
        };
        for &i in slots.blocks.values().chain(slots.records.values()) {
            if let Some(entry) = self.entries[i as usize].take() {
                self.unlink(i);
                self.free.push(i);
                dropped.push(entry);
            }
        }
    }
}
