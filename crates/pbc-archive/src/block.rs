//! The decoded form of one block: a flat byte buffer plus an offsets table.
//!
//! Every [`crate::BlockCodec`] decodes a block into a [`DecodedBlock`] in
//! one pass — two allocations however many records the block holds — and
//! everything downstream works on borrowed slices of it: point lookups
//! binary-search it, scans and compaction merges iterate it, block caches
//! keep it behind an `Arc`. An owned `(key, value)` pair is only built for
//! a row a caller actually hands out.
//!
//! The whole-block codec (`Zstd`) decodes the serialized payload
//! (`varint key_len, key, varint value_len, value`, repeated) straight into
//! the buffer and indexes it where it lies; a per-record block (`Raw`
//! included) appends each key and decoded value to it.

use pbc_codecs::varint;

use crate::codec::Entry;
use crate::error::{ArchiveError, Result};

/// One decoded block; see the [module docs](self).
#[derive(Debug, Default)]
pub struct DecodedBlock {
    /// Key and value bytes of every record (for whole-block codecs, the
    /// serialized payload itself, length prefixes included).
    bytes: Vec<u8>,
    /// Per record: key start, key end, value start, value end in `bytes`.
    bounds: Vec<[u32; 4]>,
}

impl DecodedBlock {
    /// Index a serialized payload in place. `record_count` is what the
    /// segment footer promises; a payload holding any other number of
    /// records is corrupt.
    pub(crate) fn index_serialized(bytes: Vec<u8>, record_count: usize) -> Result<Self> {
        let mut bounds = bounds_table(record_count, bytes.len(), bytes.len())?;
        let mut pos = 0usize;
        while pos < bytes.len() {
            let key = read_chunk(&bytes, pos, "block entry key")?;
            let value = read_chunk(&bytes, key.end, "block entry value")?;
            pos = value.end;
            // `bounds_table` checked the buffer fits u32 offsets.
            bounds.push([
                key.start as u32,
                key.end as u32,
                value.start as u32,
                value.end as u32,
            ]);
        }
        DecodedBlock { bytes, bounds }.with_count(record_count)
    }

    /// Decode a per-record block (`varint key_len, key, varint len,
    /// compressed value`, repeated), appending each key to one buffer and
    /// having `decode` append each value to it. `raw_len` — the footer's
    /// serialized payload length — bounds the decoded bytes as they grow,
    /// and the decoded entries must serialize to exactly that length.
    pub(crate) fn decode_per_record(
        block: &[u8],
        record_count: usize,
        raw_len: usize,
        decode: impl Fn(&[u8], &mut Vec<u8>) -> Result<()>,
    ) -> Result<Self> {
        let mut bounds = bounds_table(record_count, block.len(), raw_len)?;
        // Reserve what the footer promises, capped by the block actually in
        // hand so a forged footer cannot size the allocation on its own.
        let mut bytes = Vec::with_capacity(raw_len.min(block.len().saturating_mul(16)));
        let (mut pos, mut serialized) = (0usize, 0usize);
        while pos < block.len() {
            let key = read_chunk(block, pos, "block entry key")?;
            let value = read_chunk(block, key.end, "block entry value")?;
            // The key is framed here as the serialized payload frames it.
            let key_frame_len = key.end - pos;
            pos = value.end;
            let key_start = bytes.len();
            bytes.extend_from_slice(&block[key]);
            let value_start = bytes.len();
            decode(&block[value], &mut bytes)?;
            let value_len = bytes.len() - value_start;
            serialized += key_frame_len + varint::encoded_len(value_len as u64) + value_len;
            if serialized > raw_len {
                return Err(ArchiveError::Corrupt {
                    context: format!("block decodes past the {raw_len} bytes its index promises"),
                });
            }
            bounds.push([
                key_start as u32,
                value_start as u32,
                value_start as u32,
                bytes.len() as u32,
            ]);
        }
        if serialized != raw_len {
            return Err(ArchiveError::Corrupt {
                context: format!("block decodes to {serialized} bytes, index promises {raw_len}"),
            });
        }
        DecodedBlock { bytes, bounds }.with_count(record_count)
    }

    fn with_count(self, record_count: usize) -> Result<Self> {
        if self.bounds.len() != record_count {
            return Err(ArchiveError::Corrupt {
                context: format!(
                    "block decoded to {} records, index promises {record_count}",
                    self.bounds.len()
                ),
            });
        }
        Ok(self)
    }

    /// Records in the block.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Key of record `i`. Panics if `i >= len()`.
    pub fn key(&self, i: usize) -> &[u8] {
        let [start, end, _, _] = self.bounds[i];
        &self.bytes[start as usize..end as usize]
    }

    /// Value of record `i` (exactly as stored: any marker a layer above
    /// prefixed is still there). Panics if `i >= len()`.
    pub fn value(&self, i: usize) -> &[u8] {
        let [_, _, start, end] = self.bounds[i];
        &self.bytes[start as usize..end as usize]
    }

    /// The records in storage order, borrowed.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&[u8], &[u8])> + ExactSizeIterator {
        (0..self.len()).map(|i| (self.key(i), self.value(i)))
    }

    /// Index of the first record whose key is `>= key`. Meaningful only
    /// for a block whose keys ascend (any block of a sorted segment).
    pub fn lower_bound(&self, key: &[u8]) -> usize {
        self.bounds
            .partition_point(|&[start, end, _, _]| &self.bytes[start as usize..end as usize] < key)
    }

    /// Value of the **last** record with `key` (later appends win) in a
    /// block whose keys ascend: one binary search, then a walk over the
    /// run of duplicates.
    pub fn find_last(&self, key: &[u8]) -> Option<&[u8]> {
        let first = self.lower_bound(key);
        let run = (first..self.len())
            .take_while(|&i| self.key(i) == key)
            .count();
        (run > 0).then(|| self.value(first + run - 1))
    }

    /// Heap bytes this block holds on to — what a byte-budgeted cache
    /// should charge for keeping it.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.bounds.capacity() * std::mem::size_of::<[u32; 4]>()
    }

    /// An owned copy in the writer's input shape: codec-training samples,
    /// and the oracle tests compare decodes against.
    pub fn to_entries(&self) -> Vec<Entry> {
        self.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
    }
}

/// An empty offsets table for `record_count` records — after checking the
/// footer's promises against the bytes in hand: every record costs at
/// least its two length prefixes of the `carrier_len` bytes that hold the
/// records, and the `decoded_len` bytes they decode to must fit `u32`
/// offsets.
fn bounds_table(
    record_count: usize,
    carrier_len: usize,
    decoded_len: usize,
) -> Result<Vec<[u32; 4]>> {
    if u32::try_from(decoded_len).is_err() {
        return Err(ArchiveError::Corrupt {
            context: format!("block of {decoded_len} bytes exceeds the 4 GiB decode limit"),
        });
    }
    if record_count > carrier_len / 2 {
        return Err(ArchiveError::Corrupt {
            context: format!("{record_count} records cannot fit a {carrier_len}-byte block"),
        });
    }
    Ok(Vec::with_capacity(record_count))
}

/// Read one `varint len, bytes` chunk at `pos`: the range of its bytes in
/// `input` (the next chunk starts at the range's end).
pub(crate) fn read_chunk(
    input: &[u8],
    pos: usize,
    context: &'static str,
) -> Result<std::ops::Range<usize>> {
    let (len, start) = varint::read_usize(input, pos).map_err(|_| ArchiveError::Corrupt {
        context: format!("bad varint in {context}"),
    })?;
    start
        .checked_add(len)
        .filter(|&end| end <= input.len())
        .map(|end| start..end)
        .ok_or_else(|| ArchiveError::Corrupt {
            context: format!("{context} overruns block"),
        })
}
