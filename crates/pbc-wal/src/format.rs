//! On-disk record framing: length + CRC32 header, little-endian payload.
//!
//! A segment file is a plain concatenation of frames:
//!
//! ```text
//! | payload_len u32 | crc32(payload) u32 | payload (payload_len bytes) |
//! ```
//!
//! and every payload starts with `lsn u64, op u8`:
//!
//! ```text
//! put:        lsn u64 | 0x01 | key_len u32 | key | value_len u32 | value
//! delete:     lsn u64 | 0x02 | key_len u32 | key
//! checkpoint: lsn u64 | 0x03 | mark u64 | generation u64
//! ```
//!
//! The framing is what makes torn tails detectable: a crash mid-append
//! leaves a frame whose length header runs past the end of the file, or
//! whose CRC does not match — recovery stops at the first such frame and
//! truncates the file there (only legal in the *last* segment of a shard;
//! anywhere else it is reported as corruption). There is no compression
//! and no training pass: append-time framing costs two fixed-size header
//! writes and one CRC over the payload, so the WAL never stalls a write
//! on codec work.

use pbc_codecs::crc::crc32;

/// Op byte for a put record.
pub const OP_PUT: u8 = 0x01;
/// Op byte for a delete record.
pub const OP_DELETE: u8 = 0x02;
/// Op byte for a checkpoint marker.
pub const OP_CHECKPOINT: u8 = 0x03;

/// Bytes of frame header (`payload_len u32` + `crc32 u32`) before the
/// payload.
pub const FRAME_HEADER_LEN: usize = 8;

/// Upper bound a frame's declared payload length is sanity-checked
/// against. A torn length header can decode to anything; without a bound,
/// recovery would treat "4 GiB payload" as an incomplete frame instead of
/// garbage. Generous enough for any real record (keys + values are store
/// entries, not blobs).
pub const MAX_PAYLOAD_LEN: usize = 256 * 1024 * 1024;

/// One decoded WAL record, borrowing its key/value from the frame buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record<'a> {
    /// A stored value.
    Put {
        /// Shard-monotonic sequence number.
        lsn: u64,
        /// The key, verbatim.
        key: &'a [u8],
        /// The value, verbatim (uncompressed — hot-tier codecs apply
        /// above the WAL).
        value: &'a [u8],
    },
    /// A deletion.
    Delete {
        /// Shard-monotonic sequence number.
        lsn: u64,
        /// The deleted key.
        key: &'a [u8],
    },
    /// A checkpoint marker: every record with `lsn <= mark` was durable in
    /// the cold tier when the manifest generation was `generation`.
    Checkpoint {
        /// Shard-monotonic sequence number of the marker itself.
        lsn: u64,
        /// Highest LSN the covering spill made durable.
        mark: u64,
        /// Manifest generation of that spill's commit. Recovery honors the
        /// marker only if the live manifest is at or past this generation —
        /// the cross-check that makes replay idempotent against
        /// already-spilled data.
        generation: u64,
    },
}

impl Record<'_> {
    /// The record's shard-monotonic sequence number.
    pub fn lsn(&self) -> u64 {
        match self {
            Record::Put { lsn, .. }
            | Record::Delete { lsn, .. }
            | Record::Checkpoint { lsn, .. } => *lsn,
        }
    }
}

fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Encode a put record as one complete frame.
pub fn encode_put(lsn: u64, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + 1 + 4 + key.len() + 4 + value.len());
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.push(OP_PUT);
    payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
    payload.extend_from_slice(key);
    payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
    payload.extend_from_slice(value);
    frame(payload)
}

/// Encode a delete record as one complete frame.
pub fn encode_delete(lsn: u64, key: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + 1 + 4 + key.len());
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.push(OP_DELETE);
    payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
    payload.extend_from_slice(key);
    frame(payload)
}

/// Encode a checkpoint marker as one complete frame.
pub fn encode_checkpoint(lsn: u64, mark: u64, generation: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + 1 + 8 + 8);
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.push(OP_CHECKPOINT);
    payload.extend_from_slice(&mark.to_le_bytes());
    payload.extend_from_slice(&generation.to_le_bytes());
    frame(payload)
}

/// What [`decode_frame`] found at the front of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeOutcome<'a> {
    /// A complete, CRC-valid record occupying `frame_len` bytes.
    Frame {
        /// The decoded record (borrowing from the buffer).
        record: Record<'a>,
        /// Total frame size — advance the cursor by this much.
        frame_len: usize,
    },
    /// The buffer ends mid-frame (or is empty): a clean end of log or a
    /// torn tail, depending on whether any bytes remain.
    Incomplete,
    /// The frame is structurally present but invalid — CRC mismatch,
    /// unreasonable length, unknown op, or truncated fields. A torn tail
    /// when it is the last thing in a shard's last segment; corruption
    /// anywhere else.
    Corrupt,
}

fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

/// Decode the frame at the front of `buf`. Never panics on garbage input:
/// anything that does not parse to a CRC-valid record comes back as
/// [`DecodeOutcome::Incomplete`] or [`DecodeOutcome::Corrupt`].
pub fn decode_frame(buf: &[u8]) -> DecodeOutcome<'_> {
    if buf.is_empty() {
        return DecodeOutcome::Incomplete;
    }
    if buf.len() < FRAME_HEADER_LEN {
        return DecodeOutcome::Incomplete;
    }
    // pbc-allow(panic): offset 0 of a buffer checked >= FRAME_HEADER_LEN
    let payload_len = read_u32(buf, 0).expect("checked len") as usize;
    if !(9..=MAX_PAYLOAD_LEN).contains(&payload_len) {
        // A real payload carries at least lsn + op. A wild length is a
        // torn header, not a short buffer.
        return DecodeOutcome::Corrupt;
    }
    // pbc-allow(panic): offset 4 of a buffer checked >= FRAME_HEADER_LEN
    let expected_crc = read_u32(buf, 4).expect("checked len");
    let Some(payload) = buf.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + payload_len) else {
        return DecodeOutcome::Incomplete;
    };
    if crc32(payload) != expected_crc {
        return DecodeOutcome::Corrupt;
    }
    // pbc-allow(panic): payload_len was range-checked to hold lsn + op
    let lsn = read_u64(payload, 0).expect("payload_len >= 9");
    let op = payload[8];
    let body = &payload[9..];
    let record = match op {
        OP_PUT => {
            let Some(key_len) = read_u32(body, 0).map(|n| n as usize) else {
                return DecodeOutcome::Corrupt;
            };
            let Some(key) = body.get(4..4 + key_len) else {
                return DecodeOutcome::Corrupt;
            };
            let Some(value_len) = read_u32(body, 4 + key_len).map(|n| n as usize) else {
                return DecodeOutcome::Corrupt;
            };
            let value_at = 4 + key_len + 4;
            let Some(value) = body.get(value_at..value_at + value_len) else {
                return DecodeOutcome::Corrupt;
            };
            if value_at + value_len != body.len() {
                return DecodeOutcome::Corrupt;
            }
            Record::Put { lsn, key, value }
        }
        OP_DELETE => {
            let Some(key_len) = read_u32(body, 0).map(|n| n as usize) else {
                return DecodeOutcome::Corrupt;
            };
            let Some(key) = body.get(4..4 + key_len) else {
                return DecodeOutcome::Corrupt;
            };
            if 4 + key_len != body.len() {
                return DecodeOutcome::Corrupt;
            }
            Record::Delete { lsn, key }
        }
        OP_CHECKPOINT => {
            let (Some(mark), Some(generation)) = (read_u64(body, 0), read_u64(body, 8)) else {
                return DecodeOutcome::Corrupt;
            };
            if body.len() != 16 {
                return DecodeOutcome::Corrupt;
            }
            Record::Checkpoint {
                lsn,
                mark,
                generation,
            }
        }
        _ => return DecodeOutcome::Corrupt,
    };
    DecodeOutcome::Frame {
        record,
        frame_len: FRAME_HEADER_LEN + payload_len,
    }
}

/// FNV-1a over the key — the **format-stable** shard hash. Same-key
/// records must land in the same shard across process restarts (their LSN
/// order within the shard is their replay order), so this must never
/// change for on-disk logs to stay replayable.
pub fn shard_of(key: &[u8], shards: usize) -> usize {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in key {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1_0000_0000_01b3);
    }
    (hash % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_delete_checkpoint_round_trip() {
        let frames = [
            encode_put(7, b"user:1", b"v|alpha"),
            encode_delete(8, b"user:1"),
            encode_checkpoint(9, 8, 42),
        ];
        let buf: Vec<u8> = frames.concat();
        let mut at = 0usize;
        let mut records = Vec::new();
        loop {
            match decode_frame(&buf[at..]) {
                DecodeOutcome::Frame { record, frame_len } => {
                    records.push(format!("{record:?}"));
                    at += frame_len;
                }
                DecodeOutcome::Incomplete => break,
                DecodeOutcome::Corrupt => panic!("valid stream decoded as corrupt"),
            }
        }
        assert_eq!(at, buf.len());
        assert_eq!(records.len(), 3);
        assert!(records[0].contains("Put") && records[0].contains("lsn: 7"));
        assert!(records[1].contains("Delete"));
        assert!(records[2].contains("mark: 8") && records[2].contains("generation: 42"));
    }

    #[test]
    fn every_truncation_of_a_valid_stream_is_incomplete_or_corrupt() {
        let buf = [
            encode_put(1, b"k", b"some value bytes"),
            encode_delete(2, b"k"),
        ]
        .concat();
        for cut in 0..buf.len() {
            let outcome = decode_frame(&buf[..cut]);
            if cut >= buf.len() - 1 {
                continue;
            }
            // Cutting inside the first frame must never yield a frame.
            let first_len = match decode_frame(&buf) {
                DecodeOutcome::Frame { frame_len, .. } => frame_len,
                _ => unreachable!(),
            };
            if cut < first_len {
                assert!(
                    !matches!(outcome, DecodeOutcome::Frame { .. }),
                    "cut {cut} inside first frame decoded as a frame"
                );
            }
        }
    }

    #[test]
    fn bit_flips_are_caught_by_the_crc() {
        let clean = encode_put(3, b"key", b"value");
        for bit in 0..clean.len() * 8 {
            let mut flipped = clean.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match decode_frame(&flipped) {
                DecodeOutcome::Frame { record, .. } => {
                    panic!("bit flip {bit} still decoded: {record:?}")
                }
                DecodeOutcome::Incomplete | DecodeOutcome::Corrupt => {}
            }
        }
    }

    #[test]
    fn shard_hash_is_stable_and_spreads() {
        // Format-stable: these exact values are what old logs were
        // sharded with. If this test ever fails, on-disk logs written by
        // earlier builds would replay same-key records across shards in
        // undefined order.
        assert_eq!(shard_of(b"user:000001", 4), shard_of(b"user:000001", 4));
        assert_eq!(shard_of(b"", 16), 0xcbf2_9ce4_8422_2325u64 as usize % 16);
        let hits: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| shard_of(format!("k{i}").as_bytes(), 4))
            .collect();
        assert_eq!(hits.len(), 4, "64 keys must touch all 4 shards");
    }
}
