//! Snappy-style codec: LZ77 parse with Snappy's tag-byte serialization.
//!
//! Stands in for Google Snappy in the paper's evaluation (used by LevelDB):
//! tuned for speed over ratio. The format mirrors Snappy's element types —
//! literal tags with 2-bit length-size, copy tags with 1-, 2- and 4-byte
//! offsets — behind a varint-encoded uncompressed length header.
//!
//! Called by `repro table4` (the Snappy file column), which `repro fig6`
//! plots.

use crate::error::{CodecError, Result};
use crate::lz77::{MatchFinder, MatchFinderConfig, MIN_MATCH};
use crate::traits::Codec;
use crate::varint;

/// Snappy-like compressor (see module docs).
#[derive(Debug, Clone)]
pub struct SnappyLike {
    config: MatchFinderConfig,
}

impl Default for SnappyLike {
    fn default() -> Self {
        Self::new()
    }
}

/// Element tags (low two bits of each tag byte), mirroring Snappy.
const TAG_LITERAL: u8 = 0b00;
const TAG_COPY1: u8 = 0b01;
const TAG_COPY2: u8 = 0b10;
const TAG_COPY4: u8 = 0b11;

impl SnappyLike {
    /// Create the codec with a fast match-finder profile restricted to
    /// Snappy's 64 KiB window.
    pub fn new() -> Self {
        let mut config = MatchFinderConfig::fast();
        config.window = 64 * 1024 - 1;
        config.max_chain = 8;
        SnappyLike { config }
    }

    fn emit_literal(out: &mut Vec<u8>, lit: &[u8]) {
        let mut rest = lit;
        while !rest.is_empty() {
            // Snappy literals can describe at most 2^32 bytes; we chunk at
            // 2^16 to keep the tag small, which costs nothing measurable.
            let chunk_len = rest.len().min(65536);
            let n = chunk_len - 1;
            if n < 60 {
                out.push(((n as u8) << 2) | TAG_LITERAL);
            } else if n < 256 {
                out.push((60 << 2) | TAG_LITERAL);
                out.push(n as u8);
            } else {
                out.push((61 << 2) | TAG_LITERAL);
                out.extend_from_slice(&(n as u16).to_le_bytes());
            }
            out.extend_from_slice(&rest[..chunk_len]);
            rest = &rest[chunk_len..];
        }
    }

    fn emit_copy(out: &mut Vec<u8>, offset: usize, mut len: usize) {
        // Long matches are split into chunks of at most 64 bytes, like Snappy.
        while len > 0 {
            let chunk = if len > 64 && len < 68 {
                // Avoid leaving a tail shorter than MIN_MATCH.
                60
            } else {
                len.min(64)
            };
            if (4..=11).contains(&chunk) && offset < 2048 {
                // COPY1: 3-bit length (chunk-4), 11-bit offset.
                let tag = TAG_COPY1 | (((chunk - 4) as u8) << 2) | (((offset >> 8) as u8) << 5);
                out.push(tag);
                out.push((offset & 0xff) as u8);
            } else if offset < 65536 {
                // COPY2: 6-bit length (chunk-1), 16-bit offset.
                out.push(TAG_COPY2 | (((chunk - 1) as u8) << 2));
                out.extend_from_slice(&(offset as u16).to_le_bytes());
            } else {
                // COPY4: 6-bit length, 32-bit offset.
                out.push(TAG_COPY4 | (((chunk - 1) as u8) << 2));
                out.extend_from_slice(&(offset as u32).to_le_bytes());
            }
            len -= chunk;
        }
    }
}

impl Codec for SnappyLike {
    fn name(&self) -> &str {
        "Snappy-like"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        varint::write_usize(&mut out, input.len());
        if input.is_empty() {
            return out;
        }
        let mut finder = MatchFinder::new(input, 0, self.config);
        let tokens = finder.parse();
        for t in &tokens {
            let lit = &input[t.literal_start..t.literal_start + t.literal_len];
            if !lit.is_empty() {
                Self::emit_literal(&mut out, lit);
            }
            if let Some(m) = t.match_ {
                debug_assert!(m.len >= MIN_MATCH);
                Self::emit_copy(&mut out, m.offset, m.len);
            }
        }
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        let (raw_len, mut pos) = varint::read_usize(input, 0)?;
        let mut out = Vec::with_capacity(raw_len);
        while out.len() < raw_len {
            let tag = *input.get(pos).ok_or(CodecError::UnexpectedEof {
                context: "snappy tag",
            })?;
            pos += 1;
            match tag & 0b11 {
                TAG_LITERAL => {
                    let n = (tag >> 2) as usize;
                    let len = if n < 60 {
                        n + 1
                    } else {
                        let extra = n - 59;
                        if pos + extra > input.len() {
                            return Err(CodecError::UnexpectedEof {
                                context: "snappy literal length",
                            });
                        }
                        let mut v = 0usize;
                        for i in 0..extra {
                            v |= (input[pos + i] as usize) << (8 * i);
                        }
                        pos += extra;
                        v + 1
                    };
                    if pos + len > input.len() {
                        return Err(CodecError::UnexpectedEof {
                            context: "snappy literal bytes",
                        });
                    }
                    out.extend_from_slice(&input[pos..pos + len]);
                    pos += len;
                }
                kind @ (TAG_COPY1 | TAG_COPY2 | TAG_COPY4) => {
                    let (len, offset) = match kind {
                        TAG_COPY1 => {
                            let len = ((tag >> 2) & 0b111) as usize + 4;
                            let hi = (tag >> 5) as usize;
                            let lo = *input.get(pos).ok_or(CodecError::UnexpectedEof {
                                context: "snappy copy1 offset",
                            })? as usize;
                            pos += 1;
                            (len, (hi << 8) | lo)
                        }
                        TAG_COPY2 => {
                            let len = (tag >> 2) as usize + 1;
                            if pos + 2 > input.len() {
                                return Err(CodecError::UnexpectedEof {
                                    context: "snappy copy2 offset",
                                });
                            }
                            let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                            pos += 2;
                            (len, offset)
                        }
                        _ => {
                            let len = (tag >> 2) as usize + 1;
                            if pos + 4 > input.len() {
                                return Err(CodecError::UnexpectedEof {
                                    context: "snappy copy4 offset",
                                });
                            }
                            let offset = u32::from_le_bytes([
                                input[pos],
                                input[pos + 1],
                                input[pos + 2],
                                input[pos + 3],
                            ]) as usize;
                            pos += 4;
                            (len, offset)
                        }
                    };
                    if offset == 0 || offset > out.len() {
                        return Err(CodecError::InvalidOffset {
                            offset,
                            position: out.len(),
                        });
                    }
                    let start = out.len() - offset;
                    for i in 0..len {
                        let b = out[start + i];
                        out.push(b);
                    }
                }
                _ => unreachable!("two-bit tag"),
            }
        }
        if out.len() != raw_len {
            return Err(CodecError::corrupt("snappy stream produced wrong length"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let codec = SnappyLike::new();
        let compressed = codec.compress(data);
        assert_eq!(
            codec.decompress(&compressed).unwrap(),
            data,
            "len {}",
            data.len()
        );
    }

    #[test]
    fn roundtrip_basic_inputs() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"snappy");
        roundtrip(&b"0123456789".repeat(100));
        roundtrip(&vec![0u8; 70_000]);
    }

    #[test]
    fn roundtrip_log_like_text() {
        let mut data = Vec::new();
        for i in 0..500 {
            data.extend_from_slice(
                format!(
                    "2023-05-0{} 12:00:{:02} INFO dfs.DataNode: Received block blk_{} of size {}\n",
                    (i % 9) + 1,
                    i % 60,
                    1000000 + i * 37,
                    67108864 - i
                )
                .as_bytes(),
            );
        }
        let codec = SnappyLike::new();
        let compressed = codec.compress(&data);
        assert!(compressed.len() < data.len() / 2);
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn all_copy_tag_variants_roundtrip() {
        // Short offsets (COPY1 territory): small repeated chunk.
        let mut data = b"abcdefgh".repeat(4);
        // Medium offsets (COPY2): repeat after ~5 KiB.
        data.extend(vec![b'-'; 5000]);
        data.extend_from_slice(b"abcdefghabcdefghabcdefgh");
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let codec = SnappyLike::new();
        let data = b"repetitive repetitive repetitive".repeat(10);
        let mut compressed = codec.compress(&data);
        compressed.truncate(compressed.len() - 3);
        assert!(codec.decompress(&compressed).is_err());
    }

    #[test]
    fn invalid_offset_is_an_error() {
        // Hand-crafted: declared length 8, then a copy referring back 100 bytes.
        let mut buf = Vec::new();
        varint::write_usize(&mut buf, 8);
        buf.push((3 << 2) | TAG_LITERAL); // 4 literal bytes
        buf.extend_from_slice(b"abcd");
        buf.push(TAG_COPY2 | (3 << 2)); // len 4
        buf.extend_from_slice(&100u16.to_le_bytes());
        let codec = SnappyLike::new();
        assert!(matches!(
            codec.decompress(&buf),
            Err(CodecError::InvalidOffset { .. })
        ));
    }

    #[test]
    fn ratio_reported_matches_sizes() {
        let codec = SnappyLike::new();
        let data = b"aaaaaaaaaabbbbbbbbbb".repeat(64);
        let ratio = codec.ratio(&data);
        let expected = codec.compress(&data).len() as f64 / data.len() as f64;
        assert!((ratio - expected).abs() < 1e-12);
        assert!(ratio < 0.3);
    }
}
