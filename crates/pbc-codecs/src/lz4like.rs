//! LZ4-style codec: LZ77 parse serialized with a byte-oriented token format
//! and no entropy stage.
//!
//! This stands in for LZ4 in the paper's evaluation ("the best lightweight
//! compression method"): very fast, moderate ratio. The format follows the
//! spirit of the LZ4 block format — a token byte holding 4-bit literal and
//! match length nibbles with 255-extension bytes, little-endian 16-bit
//! offsets — extended with varint offsets so the large-window profile also
//! works.
//!
//! Called by `repro table3` (the LZ4(dict) per-record column) and
//! `repro table4` (the LZ4 file column); `repro fig6` plots both.

use crate::error::{CodecError, Result};
use crate::lz77::{MatchFinder, MatchFinderConfig, MIN_MATCH};
use crate::traits::{Codec, DictCodec};
use crate::varint;

/// LZ4-like compressor (see module docs).
#[derive(Debug, Clone)]
pub struct Lz4Like {
    config: MatchFinderConfig,
}

impl Default for Lz4Like {
    fn default() -> Self {
        Self::new()
    }
}

impl Lz4Like {
    /// Create the codec with the fast match-finder profile (the LZ4 spirit).
    pub fn new() -> Self {
        Lz4Like {
            config: MatchFinderConfig::fast(),
        }
    }

    /// Create with a custom match-finder configuration.
    pub fn with_config(config: MatchFinderConfig) -> Self {
        Lz4Like { config }
    }

    fn compress_internal(&self, input: &[u8], dict: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        varint::write_usize(&mut out, input.len());
        if input.is_empty() {
            return out;
        }
        let mut data = Vec::with_capacity(dict.len() + input.len());
        data.extend_from_slice(dict);
        data.extend_from_slice(input);
        let mut finder = MatchFinder::new(&data, dict.len(), self.config);
        let tokens = finder.parse();
        for t in &tokens {
            let lit = &data[t.literal_start..t.literal_start + t.literal_len];
            let match_len = t.match_.map_or(0, |m| m.len);
            // Token byte: high nibble = literal length (15 = extended),
            // low nibble = match length - MIN_MATCH (15 = extended).
            let lit_nibble = lit.len().min(15) as u8;
            let match_code = match_len.saturating_sub(MIN_MATCH);
            let match_nibble = match_code.min(15) as u8;
            out.push((lit_nibble << 4) | match_nibble);
            if lit.len() >= 15 {
                write_extended(&mut out, lit.len() - 15);
            }
            out.extend_from_slice(lit);
            if let Some(m) = t.match_ {
                varint::write_usize(&mut out, m.offset);
                if match_code >= 15 {
                    write_extended(&mut out, match_code - 15);
                }
            }
        }
        out
    }

    fn decompress_internal(&self, input: &[u8], dict: &[u8]) -> Result<Vec<u8>> {
        let (raw_len, mut pos) = varint::read_usize(input, 0)?;
        let target = dict
            .len()
            .checked_add(raw_len)
            .ok_or(CodecError::corrupt("lz4 declared length overflows"))?;
        // A length extension byte adds at most 255 output bytes.
        let mut out =
            Vec::with_capacity(dict.len() + varint::reservation(raw_len, input.len(), 255));
        out.extend_from_slice(dict);
        while out.len() < target {
            let token = *input.get(pos).ok_or(CodecError::UnexpectedEof {
                context: "lz4 token",
            })?;
            pos += 1;
            let mut lit_len = (token >> 4) as usize;
            if lit_len == 15 {
                let (ext, p) = read_extended(input, pos)?;
                lit_len += ext;
                pos = p;
            }
            let lit_end = pos
                .checked_add(lit_len)
                .filter(|&end| end <= input.len())
                .ok_or(CodecError::UnexpectedEof {
                    context: "lz4 literals",
                })?;
            if lit_len > target - out.len() {
                return Err(CodecError::corrupt("lz4 literals overrun declared size"));
            }
            out.extend_from_slice(&input[pos..lit_end]);
            pos = lit_end;
            if out.len() >= target {
                break;
            }
            let mut match_len = (token & 0x0f) as usize;
            let (offset, p) = varint::read_usize(input, pos)?;
            pos = p;
            if match_len == 15 {
                let (ext, p) = read_extended(input, pos)?;
                match_len += ext;
                pos = p;
            }
            let match_len = match_len + MIN_MATCH;
            if offset == 0 || offset > out.len() {
                return Err(CodecError::InvalidOffset {
                    offset,
                    position: out.len(),
                });
            }
            if match_len > target - out.len() {
                return Err(CodecError::corrupt("lz4 match overruns declared size"));
            }
            let start = out.len() - offset;
            for i in 0..match_len {
                let b = out[start + i];
                out.push(b);
            }
        }
        if out.len() != target {
            return Err(CodecError::corrupt("lz4 stream produced wrong length"));
        }
        out.drain(..dict.len());
        Ok(out)
    }
}

/// LZ4-style length extension: a run of 255 bytes followed by a final byte.
fn write_extended(out: &mut Vec<u8>, mut value: usize) {
    while value >= 255 {
        out.push(255);
        value -= 255;
    }
    out.push(value as u8);
}

fn read_extended(input: &[u8], mut pos: usize) -> Result<(usize, usize)> {
    let mut value = 0usize;
    loop {
        let b = *input.get(pos).ok_or(CodecError::UnexpectedEof {
            context: "lz4 length extension",
        })?;
        pos += 1;
        value += b as usize;
        if b != 255 {
            return Ok((value, pos));
        }
    }
}

impl Codec for Lz4Like {
    fn name(&self) -> &str {
        "LZ4-like"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        self.compress_internal(input, &[])
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.decompress_internal(input, &[])
    }
}

impl DictCodec for Lz4Like {
    fn compress_with_dict(&self, input: &[u8], dict: &[u8]) -> Vec<u8> {
        self.compress_internal(input, dict)
    }

    fn decompress_with_dict(&self, input: &[u8], dict: &[u8]) -> Result<Vec<u8>> {
        self.decompress_internal(input, dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let codec = Lz4Like::new();
        let compressed = codec.compress(data);
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_common_cases() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"hello");
        roundtrip(&b"abcabcabc".repeat(50));
        roundtrip("日本語のテキストもバイト列として扱える".as_bytes());
    }

    #[test]
    fn repetitive_input_compresses() {
        let data = b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n".repeat(100);
        let codec = Lz4Like::new();
        let compressed = codec.compress(&data);
        assert!(compressed.len() < data.len() / 5);
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn incompressible_input_has_bounded_expansion() {
        let mut state = 99u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        let codec = Lz4Like::new();
        let compressed = codec.compress(&data);
        // At most a few % expansion for random data.
        assert!(compressed.len() < data.len() + data.len() / 8 + 64);
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn long_literal_runs_and_long_matches() {
        // Forces both 255-extension paths.
        let mut data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        data.extend(vec![b'x'; 5000]);
        roundtrip(&data);
    }

    #[test]
    fn dictionary_improves_short_record_compression() {
        let dict =
            b"{\"symbol\": \"IBM\", \"side\": \"B\", \"quantity\": , \"price\": , \"timestamp\": }";
        let record = b"{\"symbol\": \"IBM\", \"side\": \"B\", \"quantity\": 100, \"price\": 50.25, \"timestamp\": 1639574096}";
        let codec = Lz4Like::new();
        let plain = codec.compress(record);
        let with_dict = codec.compress_with_dict(record, dict);
        assert!(
            with_dict.len() < plain.len(),
            "dictionary must help: {} vs {}",
            with_dict.len(),
            plain.len()
        );
        assert_eq!(
            codec.decompress_with_dict(&with_dict, dict).unwrap(),
            record
        );
    }

    #[test]
    fn corrupt_streams_are_rejected_not_panicking() {
        let codec = Lz4Like::new();
        let data = b"some repetitive data some repetitive data".to_vec();
        let mut compressed = codec.compress(&data);
        // Truncate.
        compressed.truncate(compressed.len() / 2);
        assert!(codec.decompress(&compressed).is_err());
        // Garbage.
        assert!(codec.decompress(&[0xff, 0xff, 0xff, 0x01, 0x02]).is_err());
    }

    #[test]
    fn decompressing_with_wrong_dict_fails_or_differs() {
        let codec = Lz4Like::new();
        let dict = b"the right dictionary with useful content";
        let record = b"the right dictionary with useful content and more";
        let compressed = codec.compress_with_dict(record, dict);
        let wrong = vec![0u8; dict.len()];
        if let Ok(out) = codec.decompress_with_dict(&compressed, &wrong) {
            assert_ne!(out, record)
        }
    }
}
