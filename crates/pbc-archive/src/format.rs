//! The on-disk segment layout: header, block index, trailer, checksums.
//!
//! ```text
//! +----------------------------------------------------------------------+
//! | header   | magic "PBCARSEG" (8) | version u16 | codec id u8 | flags  |
//! |          | u8 | artifacts (varint len + codec training payload)      |
//! |          | header crc32 (4)                                          |
//! +----------------------------------------------------------------------+
//! | blocks   | block 0 bytes | block 1 bytes | ...                       |
//! |          | (geometry lives in the index, not in the stream)          |
//! +----------------------------------------------------------------------+
//! | index    | per block: codec id u8 (segment codec or raw fallback),   |
//! |          | varint record_count, raw_len, file_offset, comp_len,      |
//! |          | crc32, min_key, max_key, flagged_count                    |
//! +----------------------------------------------------------------------+
//! | trailer  | index_offset u64 | index_len u32 | index crc32 u32 |      |
//! | (24 B)   | magic "PBCAREND" (8)                                      |
//! +----------------------------------------------------------------------+
//! ```
//!
//! Versioning rules: readers accept exactly `version == VERSION` and
//! answer anything else with a typed `UnsupportedVersion`; incompatible
//! layout changes bump `VERSION`; additive changes (new codec ids, new
//! `flags` bits) do not. All integers are little-endian or LEB128 varints;
//! keys and blocks are opaque bytes.
//!
//! `flagged_count` is a caller-defined per-block record counter (the tiered
//! store counts tombstones with it), so segment-level dead-entry statistics
//! are readable from the footer without decoding any block.

use pbc_codecs::varint;

use crate::error::{ArchiveError, Result};

/// First 8 bytes of every segment file.
pub const HEADER_MAGIC: [u8; 8] = *b"PBCARSEG";

/// Last 8 bytes of every segment file.
pub const TRAILER_MAGIC: [u8; 8] = *b"PBCAREND";

/// Current format version, the only one readers accept.
pub const VERSION: u16 = 2;

/// Byte length of the fixed-size trailer.
pub const TRAILER_LEN: usize = 24;

/// Header flag: records were appended in non-decreasing key order, so
/// key lookups may binary-search the block index.
pub const FLAG_SORTED_KEYS: u8 = 0b0000_0001;

/// CRC-32 (IEEE, reflected) over `data` — the same polynomial as zip/png.
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xedb8_8320;
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// Decoded segment header.
#[derive(Debug, Clone)]
pub struct Header {
    /// Format version stamped in the file.
    pub version: u16,
    /// Block codec id (see [`crate::codec::BlockCodec`]).
    pub codec_id: u8,
    /// Header flag bits ([`FLAG_SORTED_KEYS`]).
    pub flags: u8,
    /// Codec-specific training payload (dictionaries, symbol tables).
    pub artifacts: Vec<u8>,
}

impl Header {
    /// Serialize, including the trailing header checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.artifacts.len());
        out.extend_from_slice(&HEADER_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(self.codec_id);
        out.push(self.flags);
        varint::write_usize(&mut out, self.artifacts.len());
        out.extend_from_slice(&self.artifacts);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse a header from the start of `input`; returns the header and the
    /// number of bytes it occupied.
    pub fn decode(input: &[u8]) -> Result<(Header, usize)> {
        if input.len() < HEADER_MAGIC.len() + 4 {
            return Err(ArchiveError::Truncated { context: "header" });
        }
        if input[..8] != HEADER_MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&input[..8]);
            return Err(ArchiveError::BadMagic {
                location: "header",
                found,
            });
        }
        let version = u16::from_le_bytes([input[8], input[9]]);
        if version != VERSION {
            return Err(ArchiveError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let codec_id = input[10];
        let flags = input[11];
        let (artifact_len, pos) = varint::read_usize(input, 12)
            .map_err(|_| ArchiveError::Truncated { context: "header" })?;
        let end = pos
            .checked_add(artifact_len)
            .filter(|&e| {
                e.checked_add(4)
                    .is_some_and(|crc_end| crc_end <= input.len())
            })
            .ok_or(ArchiveError::Truncated { context: "header" })?;
        let artifacts = input[pos..end].to_vec();
        let stored =
            u32::from_le_bytes([input[end], input[end + 1], input[end + 2], input[end + 3]]);
        let computed = crc32(&input[..end]);
        if stored != computed {
            return Err(ArchiveError::CrcMismatch {
                what: "header",
                index: 0,
                stored,
                computed,
            });
        }
        Ok((
            Header {
                version,
                codec_id,
                flags,
                artifacts,
            },
            end + 4,
        ))
    }
}

/// One block's entry in the footer index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Codec this block was actually compressed with: the segment codec, or
    /// `codec_id::RAW` when compression would have expanded the block (the
    /// per-block raw fallback that bounds worst-case ratio under data
    /// drift).
    pub codec_id: u8,
    /// Records stored in the block.
    pub record_count: u64,
    /// Serialized (uncompressed) payload length in bytes.
    pub raw_len: u64,
    /// Offset of the compressed block from the start of the file.
    pub file_offset: u64,
    /// Compressed block length in bytes.
    pub comp_len: u64,
    /// CRC-32 of the compressed block bytes.
    pub crc: u32,
    /// Smallest record key in the block (empty for keyless records).
    pub min_key: Vec<u8>,
    /// Largest record key in the block.
    pub max_key: Vec<u8>,
    /// Caller-defined per-block record counter: the segment writer
    /// increments it for records appended via
    /// [`crate::SegmentWriter::append_flagged`]. The tiered store flags
    /// tombstones, making per-segment dead-entry counts readable straight
    /// from the footer.
    pub flagged_count: u64,
}

impl BlockMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.codec_id);
        varint::write_u64(out, self.record_count);
        varint::write_u64(out, self.raw_len);
        varint::write_u64(out, self.file_offset);
        varint::write_u64(out, self.comp_len);
        varint::write_u64(out, self.crc as u64);
        varint::write_usize(out, self.min_key.len());
        out.extend_from_slice(&self.min_key);
        varint::write_usize(out, self.max_key.len());
        out.extend_from_slice(&self.max_key);
        varint::write_u64(out, self.flagged_count);
    }

    fn decode(input: &[u8], pos: usize) -> Result<(BlockMeta, usize)> {
        let truncated = |_| ArchiveError::Truncated {
            context: "block index",
        };
        let codec_id = *input.get(pos).ok_or(ArchiveError::Truncated {
            context: "block index",
        })?;
        let pos = pos + 1;
        let (record_count, pos) = varint::read_u64(input, pos).map_err(truncated)?;
        let (raw_len, pos) = varint::read_u64(input, pos).map_err(truncated)?;
        let (file_offset, pos) = varint::read_u64(input, pos).map_err(truncated)?;
        let (comp_len, pos) = varint::read_u64(input, pos).map_err(truncated)?;
        let (crc, pos) = varint::read_u64(input, pos).map_err(truncated)?;
        let (min_key, pos) = read_bytes(input, pos)?;
        let (max_key, pos) = read_bytes(input, pos)?;
        let (flagged_count, pos) = varint::read_u64(input, pos).map_err(truncated)?;
        if crc > u32::MAX as u64 {
            return Err(ArchiveError::Corrupt {
                context: format!("block crc field {crc:#x} exceeds 32 bits"),
            });
        }
        if flagged_count > record_count {
            return Err(ArchiveError::Corrupt {
                context: format!(
                    "block claims {flagged_count} flagged records out of {record_count}"
                ),
            });
        }
        Ok((
            BlockMeta {
                codec_id,
                record_count,
                raw_len,
                file_offset,
                comp_len,
                crc: crc as u32,
                min_key,
                max_key,
                flagged_count,
            },
            pos,
        ))
    }
}

fn read_bytes(input: &[u8], pos: usize) -> Result<(Vec<u8>, usize)> {
    let (len, pos) = varint::read_usize(input, pos).map_err(|_| ArchiveError::Truncated {
        context: "block index",
    })?;
    let end =
        pos.checked_add(len)
            .filter(|&e| e <= input.len())
            .ok_or(ArchiveError::Truncated {
                context: "block index",
            })?;
    Ok((input[pos..end].to_vec(), end))
}

/// Serialize the block index (without the trailer).
pub fn encode_index(blocks: &[BlockMeta]) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_usize(&mut out, blocks.len());
    for meta in blocks {
        meta.encode(&mut out);
    }
    out
}

/// Parse the block index from its serialized bytes.
pub fn decode_index(input: &[u8]) -> Result<Vec<BlockMeta>> {
    let (count, mut pos) = varint::read_usize(input, 0).map_err(|_| ArchiveError::Truncated {
        context: "block index",
    })?;
    // Each entry occupies at least 7 bytes; reject impossible counts before
    // allocating.
    if count > input.len() {
        return Err(ArchiveError::Corrupt {
            context: format!("block index claims {count} blocks in {} bytes", input.len()),
        });
    }
    let mut blocks = Vec::with_capacity(count);
    for _ in 0..count {
        let (meta, next) = BlockMeta::decode(input, pos)?;
        pos = next;
        blocks.push(meta);
    }
    if pos != input.len() {
        return Err(ArchiveError::Corrupt {
            context: format!("{} trailing bytes after block index", input.len() - pos),
        });
    }
    Ok(blocks)
}

/// Serialize the fixed-size trailer.
pub fn encode_trailer(index_offset: u64, index_len: u32, index_crc: u32) -> [u8; TRAILER_LEN] {
    let mut out = [0u8; TRAILER_LEN];
    out[0..8].copy_from_slice(&index_offset.to_le_bytes());
    out[8..12].copy_from_slice(&index_len.to_le_bytes());
    out[12..16].copy_from_slice(&index_crc.to_le_bytes());
    out[16..24].copy_from_slice(&TRAILER_MAGIC);
    out
}

/// Parse the trailer; returns `(index_offset, index_len, index_crc)`.
pub fn decode_trailer(trailer: &[u8; TRAILER_LEN]) -> Result<(u64, u32, u32)> {
    if trailer[16..24] != TRAILER_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&trailer[16..24]);
        return Err(ArchiveError::BadMagic {
            location: "trailer",
            found,
        });
    }
    // pbc-allow(panic): subslice of the checked 16-byte trailer; try_into is infallible
    let index_offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
    // pbc-allow(panic): subslice of the checked 16-byte trailer; try_into is infallible
    let index_len = u32::from_le_bytes(trailer[8..12].try_into().unwrap());
    // pbc-allow(panic): subslice of the checked 16-byte trailer; try_into is infallible
    let index_crc = u32::from_le_bytes(trailer[12..16].try_into().unwrap());
    Ok((index_offset, index_len, index_crc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn header_roundtrips() {
        let header = Header {
            version: VERSION,
            codec_id: 3,
            flags: FLAG_SORTED_KEYS,
            artifacts: vec![1, 2, 3, 250],
        };
        let bytes = header.encode();
        let (decoded, used) = Header::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded.codec_id, 3);
        assert_eq!(decoded.flags, FLAG_SORTED_KEYS);
        assert_eq!(decoded.artifacts, vec![1, 2, 3, 250]);
    }

    #[test]
    fn header_rejects_overflowing_artifact_length_without_panicking() {
        // A crafted artifact-length varint near usize::MAX must produce a
        // typed error, not an arithmetic-overflow panic or wild slice.
        let mut crafted = Vec::new();
        crafted.extend_from_slice(&HEADER_MAGIC);
        crafted.extend_from_slice(&VERSION.to_le_bytes());
        crafted.push(0); // codec id
        crafted.push(0); // flags
        varint::write_u64(&mut crafted, u64::MAX - 22);
        crafted.extend_from_slice(&[0u8; 8]); // pretend-artifacts + crc space
        assert!(matches!(
            Header::decode(&crafted),
            Err(ArchiveError::Truncated { context: "header" })
        ));
    }

    #[test]
    fn header_rejects_bad_magic_version_and_crc() {
        let header = Header {
            version: VERSION,
            codec_id: 0,
            flags: 0,
            artifacts: Vec::new(),
        };
        let good = header.encode();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Header::decode(&bad_magic),
            Err(ArchiveError::BadMagic {
                location: "header",
                ..
            })
        ));

        // Newer and older alike: no other layout ever shipped. The version
        // check happens before the CRC so the clearer error wins.
        for other in [99u8, 1] {
            let mut bad_version = good.clone();
            bad_version[8] = other;
            assert!(matches!(
                Header::decode(&bad_version),
                Err(ArchiveError::UnsupportedVersion { found, .. }) if found == other as u16
            ));
        }

        let mut bad_crc = good.clone();
        bad_crc[10] ^= 0x40;
        assert!(matches!(
            Header::decode(&bad_crc),
            Err(ArchiveError::CrcMismatch { what: "header", .. })
        ));

        assert!(matches!(
            Header::decode(&good[..6]),
            Err(ArchiveError::Truncated { context: "header" })
        ));
    }

    #[test]
    fn index_roundtrips() {
        let blocks = vec![
            BlockMeta {
                codec_id: 3,
                record_count: 128,
                raw_len: 65_536,
                file_offset: 32,
                comp_len: 9_000,
                crc: 0xdead_beef,
                min_key: b"user:0001".to_vec(),
                max_key: b"user:0999".to_vec(),
                flagged_count: 17,
            },
            BlockMeta {
                codec_id: 0,
                record_count: 64,
                raw_len: 30_000,
                file_offset: 9_032,
                comp_len: 4_400,
                crc: 7,
                min_key: Vec::new(),
                max_key: Vec::new(),
                flagged_count: 0,
            },
        ];
        let bytes = encode_index(&blocks);
        assert_eq!(decode_index(&bytes).unwrap(), blocks);
    }

    #[test]
    fn index_rejects_flagged_count_above_record_count() {
        let mut bytes = Vec::new();
        varint::write_usize(&mut bytes, 1);
        BlockMeta {
            codec_id: 1,
            record_count: 2,
            raw_len: 10,
            file_offset: 32,
            comp_len: 10,
            crc: 1,
            min_key: vec![b'k'],
            max_key: vec![b'k'],
            flagged_count: 3,
        }
        .encode(&mut bytes);
        assert!(matches!(
            decode_index(&bytes),
            Err(ArchiveError::Corrupt { .. })
        ));
    }

    #[test]
    fn index_rejects_truncation_and_trailing_garbage() {
        let blocks = vec![BlockMeta {
            codec_id: 1,
            record_count: 1,
            raw_len: 10,
            file_offset: 32,
            comp_len: 10,
            crc: 1,
            min_key: vec![b'k'],
            max_key: vec![b'k'],
            flagged_count: 1,
        }];
        let bytes = encode_index(&blocks);
        assert!(decode_index(&bytes[..bytes.len() - 2]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            decode_index(&padded),
            Err(ArchiveError::Corrupt { .. })
        ));
    }

    #[test]
    fn trailer_roundtrips_and_rejects_bad_magic() {
        let trailer = encode_trailer(1_000, 52, 0xfeed_f00d);
        assert_eq!(decode_trailer(&trailer).unwrap(), (1_000, 52, 0xfeed_f00d));
        let mut bad = trailer;
        bad[20] = b'?';
        assert!(matches!(
            decode_trailer(&bad),
            Err(ArchiveError::BadMagic {
                location: "trailer",
                ..
            })
        ));
    }
}
