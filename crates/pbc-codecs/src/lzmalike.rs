//! LZMA-like codec: high-effort LZ77 parse entropy-coded with an adaptive
//! binary range coder and context modelling.
//!
//! This stands in for LZMA in the paper's evaluation ("the compression
//! method with the highest compression ratio in the LZ family"), used both
//! as a file-compression baseline (Table 4) and as the heavy backend of
//! `PBC_L` and of the LogReducer-like log compressor (Table 5).
//!
//! Called by `repro table4` (the LZMA file column, plotted by `repro fig6`),
//! `repro table6` and `repro table7` (the LZMA stage after each JSON
//! encoding) and, through `PBC_L` and the LogReducer-like compressor, by
//! `repro table5`.
//!
//! ## Model
//!
//! * one `is_match` bit per element, conditioned on the previous element kind;
//! * literal bytes coded through a bit-tree with a context selected by the
//!   high bits of the previous byte (LZMA's literal context bits, `lc = 3`);
//! * match lengths coded as an 8-bit bit-tree plus a rare direct-bit escape;
//! * offsets coded as a 6-bit "slot" bit-tree (log2 bucket) followed by the
//!   remaining bits coded directly, mirroring LZMA's distance slots.

use crate::error::{CodecError, Result};
use crate::lz77::{MatchFinder, MatchFinderConfig, MIN_MATCH};
use crate::range_coder::{BitModel, RangeDecoder, RangeEncoder};
use crate::traits::Codec;
use crate::varint;

/// Literal context bits (how many high bits of the previous byte select the
/// literal coder context).
const LC: u32 = 3;
/// Length values below this are coded with the bit-tree; larger lengths use
/// the escape path.
const LEN_TREE_LIMIT: usize = 254;
/// Escape value in the length tree signalling a direct 32-bit length.
const LEN_ESCAPE: u32 = 255;

/// LZMA-like compressor (see module docs).
#[derive(Debug, Clone)]
pub struct LzmaLike {
    config: MatchFinderConfig,
    /// Preset level (1..=9); kept for reporting, affects match effort.
    level: i32,
}

impl Default for LzmaLike {
    fn default() -> Self {
        Self::new(6)
    }
}

/// The full probability model, reset per compressed buffer.
struct Model {
    is_match: [BitModel; 2],
    literal: Vec<[BitModel; 256]>,
    len_tree: Vec<BitModel>,
    slot_tree: Vec<BitModel>,
}

impl Model {
    fn new() -> Self {
        Model {
            is_match: [BitModel::new(); 2],
            literal: vec![[BitModel::new(); 256]; 1 << LC],
            len_tree: vec![BitModel::new(); 512],
            slot_tree: vec![BitModel::new(); 128],
        }
    }

    #[inline]
    fn literal_ctx(prev_byte: u8) -> usize {
        (prev_byte >> (8 - LC)) as usize
    }
}

impl LzmaLike {
    /// Create the codec at a given preset level (1..=9, default 6).
    pub fn new(level: i32) -> Self {
        let level = level.clamp(1, 9);
        let mut config = MatchFinderConfig::thorough();
        config.max_chain = 64 * level as usize;
        LzmaLike { config, level }
    }

    /// The configured preset level.
    pub fn level(&self) -> i32 {
        self.level
    }

    fn encode_length(enc: &mut RangeEncoder, model: &mut Model, len: usize) {
        let code = len - MIN_MATCH;
        if code < LEN_TREE_LIMIT {
            enc.encode_bittree(&mut model.len_tree, 8, code as u32);
        } else {
            enc.encode_bittree(&mut model.len_tree, 8, LEN_ESCAPE);
            enc.encode_direct(code as u32, 32);
        }
    }

    fn decode_length(dec: &mut RangeDecoder<'_>, model: &mut Model) -> usize {
        let code = dec.decode_bittree(&mut model.len_tree, 8);
        let code = if code == LEN_ESCAPE {
            dec.decode_direct(32) as usize
        } else {
            code as usize
        };
        code + MIN_MATCH
    }

    fn encode_offset(enc: &mut RangeEncoder, model: &mut Model, offset: usize) {
        debug_assert!(offset >= 1);
        let value = (offset - 1) as u32;
        // Distance slot: number of significant bits.
        let slot = 32 - value.leading_zeros(); // 0 for value 0
        enc.encode_bittree(&mut model.slot_tree, 6, slot);
        if slot > 1 {
            // The top bit is implied by the slot; code the remaining bits directly.
            let extra_bits = slot - 1;
            enc.encode_direct(value & ((1 << extra_bits) - 1), extra_bits);
        }
    }

    fn decode_offset(dec: &mut RangeDecoder<'_>, model: &mut Model) -> usize {
        let slot = dec.decode_bittree(&mut model.slot_tree, 6);
        let value = match slot {
            0 => 0u32,
            1 => 1u32,
            _ => {
                let extra_bits = slot - 1;
                (1 << extra_bits) | dec.decode_direct(extra_bits)
            }
        };
        value as usize + 1
    }
}

impl Codec for LzmaLike {
    fn name(&self) -> &str {
        "LZMA-like"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 3 + 16);
        varint::write_usize(&mut out, input.len());
        if input.is_empty() {
            return out;
        }
        let mut finder = MatchFinder::new(input, 0, self.config);
        let tokens = finder.parse();

        let mut enc = RangeEncoder::new();
        let mut model = Model::new();
        let mut prev_byte = 0u8;
        for t in &tokens {
            for &b in &input[t.literal_start..t.literal_start + t.literal_len] {
                enc.encode_bit(&mut model.is_match[0], 0);
                let ctx = Model::literal_ctx(prev_byte);
                enc.encode_bittree(&mut model.literal[ctx], 8, u32::from(b));
                prev_byte = b;
            }
            if let Some(m) = t.match_ {
                enc.encode_bit(&mut model.is_match[0], 1);
                Self::encode_length(&mut enc, &mut model, m.len);
                Self::encode_offset(&mut enc, &mut model, m.offset);
                // Keep the context byte in sync with the decoder, which knows
                // the last byte the match copied.
                let end = t.literal_start + t.literal_len + m.len;
                prev_byte = input[end - 1];
            }
        }
        out.extend_from_slice(&enc.finish());
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        let (raw_len, pos) = varint::read_usize(input, 0)?;
        if raw_len == 0 {
            return Ok(Vec::new());
        }
        let payload = &input[pos..];
        let mut dec = RangeDecoder::new(payload)?;
        let mut model = Model::new();
        let mut out: Vec<u8> = Vec::with_capacity(raw_len);
        let mut prev_byte = 0u8;
        while out.len() < raw_len {
            if dec.decode_bit(&mut model.is_match[0]) == 0 {
                let ctx = Model::literal_ctx(prev_byte);
                let b = dec.decode_bittree(&mut model.literal[ctx], 8) as u8;
                out.push(b);
                prev_byte = b;
            } else {
                let len = Self::decode_length(&mut dec, &mut model);
                let offset = Self::decode_offset(&mut dec, &mut model);
                if offset > out.len() {
                    return Err(CodecError::InvalidOffset {
                        offset,
                        position: out.len(),
                    });
                }
                if out.len() + len > raw_len + 64 {
                    return Err(CodecError::corrupt("lzma match overruns declared size"));
                }
                let start = out.len() - offset;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
                // pbc-allow(panic): the match copy above pushed at least one byte
                prev_byte = *out.last().expect("match produced bytes");
            }
            dec.check_consumed()?;
        }
        if out.len() != raw_len {
            return Err(CodecError::corrupt("lzma stream produced wrong length"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: &LzmaLike, data: &[u8]) {
        let compressed = codec.compress(data);
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_basic_inputs() {
        let codec = LzmaLike::default();
        roundtrip(&codec, b"");
        roundtrip(&codec, b"a");
        roundtrip(&codec, b"lzma");
        roundtrip(&codec, &b"abcdabcdabcd".repeat(40));
    }

    #[test]
    fn roundtrip_machine_generated_records() {
        let mut data = Vec::new();
        for i in 0..300 {
            data.extend_from_slice(
                format!(
                    "V5company_charging-100-{:02}accenter{:02}ac_accounting_log_202{:06}\n",
                    i % 100,
                    (i * 7) % 100,
                    123000 + i
                )
                .as_bytes(),
            );
        }
        let codec = LzmaLike::new(9);
        let compressed = codec.compress(&data);
        assert!(
            compressed.len() < data.len() / 6,
            "highly templated data should compress strongly: {} of {}",
            compressed.len(),
            data.len()
        );
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn beats_zstd_like_on_ratio_for_text() {
        let mut data = Vec::new();
        for i in 0..800 {
            data.extend_from_slice(
                format!("2023-11-07T10:{:02}:{:02}Z apache worker-{} served /static/img_{}.png in {}ms\n",
                    i / 60 % 60, i % 60, i % 8, i % 50, (i * 13) % 900).as_bytes(),
            );
        }
        let lzma = LzmaLike::new(9).compress(&data).len();
        let zstd = crate::zstdlike::ZstdLike::new(3).compress(&data).len();
        assert!(
            lzma < zstd,
            "lzma-like ({lzma}) should compress tighter than zstd-like default ({zstd})"
        );
    }

    #[test]
    fn incompressible_data_roundtrips_with_bounded_expansion() {
        let mut state = 7u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(0x5851F42D4C957F2D)
                    .wrapping_add(0x14057B7EF767814F);
                (state >> 33) as u8
            })
            .collect();
        let codec = LzmaLike::default();
        let compressed = codec.compress(&data);
        assert!(compressed.len() < data.len() + data.len() / 8 + 64);
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_is_rejected_or_differs() {
        let codec = LzmaLike::default();
        let data = b"the quick brown fox jumps over the lazy dog".repeat(20);
        let compressed = codec.compress(&data);
        let mut corrupted = compressed.clone();
        // Flip a byte in the middle of the range-coded payload.
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0xff;
        if let Ok(out) = codec.decompress(&corrupted) {
            assert_ne!(out, data)
        }
        // Truncation must not panic.
        let mut truncated = compressed;
        truncated.truncate(truncated.len() / 3);
        let _ = codec.decompress(&truncated);
    }

    #[test]
    fn long_match_lengths_use_escape_path() {
        let data = vec![b'q'; 100_000];
        let codec = LzmaLike::default();
        let compressed = codec.compress(&data);
        assert!(
            compressed.len() < 2048,
            "constant run must collapse, got {}",
            compressed.len()
        );
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }
}
