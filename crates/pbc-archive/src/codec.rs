//! Per-block codecs: how a block of records becomes bytes and back.
//!
//! A segment commits to one [`BlockCodec`] at write time; its trained
//! artifacts (PBC pattern dictionary, FSST symbol table, Zstd dictionary)
//! are serialized once into the segment header, so reopening a segment
//! needs no retraining.
//!
//! Two block shapes exist:
//!
//! * **Whole-block** codecs (`Raw`, `Zstd`) serialize all entries into one
//!   payload and compress it as a unit — best ratio, but a point lookup
//!   decompresses the whole block.
//! * **Per-record** codecs (`Pbc`, `PbcF`, `Fsst`) compress each value
//!   independently inside the block, so a point lookup walks entry headers
//!   and decodes only the requested value (the paper's random-access
//!   property, Figure 5).

use std::sync::Arc;

use pbc_codecs::fsst::FsstCodec;
use pbc_codecs::traits::DictCodec;
use pbc_codecs::varint;
use pbc_codecs::zstdlike::ZstdLike;
use pbc_codecs::Dictionary;
use pbc_core::{PatternDictionary, PbcCompressor, PbcConfig};

use crate::block::{read_chunk, DecodedBlock};
use crate::error::{ArchiveError, Result};

/// A key/value entry handed to the writer. Keyless records use an empty
/// key. (Reads produce a flat [`DecodedBlock`] instead.)
pub type Entry = (Vec<u8>, Vec<u8>);

/// Codec ids as stamped into the segment header. Stable: new codecs append,
/// existing ids never change meaning.
pub mod codec_id {
    /// Entries stored verbatim (also the per-block fallback id).
    pub const RAW: u8 = 0;
    /// Plain PBC with a trained pattern dictionary.
    pub const PBC: u8 = 1;
    /// PBC with FSST-compressed residuals.
    pub const PBC_F: u8 = 2;
    /// Whole-block Zstd-like with a trained dictionary.
    pub const ZSTD: u8 = 3;
    /// Per-record FSST symbol-table compression.
    pub const FSST: u8 = 4;
}

/// Which codec a [`crate::SegmentWriter`] should use.
#[derive(Debug, Clone, Default)]
pub enum CodecSpec {
    /// Train every candidate on the first block and keep whichever
    /// trial-compresses it smallest.
    #[default]
    Auto,
    /// Store blocks uncompressed.
    Raw,
    /// Plain PBC, trained on the first block.
    Pbc(PbcConfig),
    /// PBC with FSST residuals, trained on the first block.
    PbcF(PbcConfig),
    /// Zstd-like with a dictionary trained on the first block.
    Zstd {
        /// Compression level passed to the codec.
        level: i32,
    },
    /// FSST symbol table trained on the first block.
    Fsst,
    /// Use an already-trained codec as-is (no first-block training). This
    /// is the paper's "train offline, ship the dictionary to instances"
    /// flow: many writers can share one trained codec.
    Pretrained(BlockCodec),
}

/// A trained, ready-to-use block codec.
#[derive(Debug, Clone)]
pub enum BlockCodec {
    /// Entries stored verbatim.
    Raw,
    /// Per-record PBC (plain or FSST residuals — `fsst` distinguishes them
    /// for the header codec id).
    Pbc {
        /// The trained compressor, shared between writer workers.
        compressor: Arc<PbcCompressor>,
        /// Whether residuals are FSST-compressed (`PBC_F`).
        fsst: bool,
    },
    /// Whole-block Zstd-like with a shared trained dictionary.
    Zstd {
        /// The compressor configured at the chosen level.
        codec: ZstdLike,
        /// The trained dictionary, embedded in the segment header.
        dictionary: Arc<Vec<u8>>,
    },
    /// Per-record FSST.
    Fsst {
        /// The trained symbol table.
        codec: FsstCodec,
    },
}

impl BlockCodec {
    /// The header codec id.
    pub fn id(&self) -> u8 {
        match self {
            BlockCodec::Raw => codec_id::RAW,
            BlockCodec::Pbc { fsst: false, .. } => codec_id::PBC,
            BlockCodec::Pbc { fsst: true, .. } => codec_id::PBC_F,
            BlockCodec::Zstd { .. } => codec_id::ZSTD,
            BlockCodec::Fsst { .. } => codec_id::FSST,
        }
    }

    /// Name used in reports and summaries.
    pub fn name(&self) -> &'static str {
        match self {
            BlockCodec::Raw => "Raw",
            BlockCodec::Pbc { fsst: false, .. } => "PBC",
            BlockCodec::Pbc { fsst: true, .. } => "PBC_F",
            BlockCodec::Zstd { .. } => "Zstd(dict)",
            BlockCodec::Fsst { .. } => "FSST",
        }
    }

    /// Whether point lookups can decode a single record without
    /// decompressing the rest of its block.
    pub fn is_per_record(&self) -> bool {
        matches!(
            self,
            BlockCodec::Raw | BlockCodec::Pbc { .. } | BlockCodec::Fsst { .. }
        )
    }

    /// Serialize the trained artifacts for the segment header.
    pub fn artifacts(&self) -> Vec<u8> {
        match self {
            BlockCodec::Raw => Vec::new(),
            BlockCodec::Pbc { compressor, fsst } => {
                let dict = compressor.dictionary().serialize();
                if !*fsst {
                    return dict;
                }
                let mut out = Vec::with_capacity(dict.len() + 64);
                varint::write_usize(&mut out, dict.len());
                out.extend_from_slice(&dict);
                out.extend_from_slice(&fsst_table(compressor));
                out
            }
            BlockCodec::Zstd { codec, dictionary } => {
                let mut out = Vec::with_capacity(dictionary.len() + 8);
                varint::write_i64(&mut out, codec.level() as i64);
                varint::write_usize(&mut out, dictionary.len());
                out.extend_from_slice(dictionary);
                out
            }
            BlockCodec::Fsst { codec } => codec.serialize_table(),
        }
    }

    /// Rebuild a codec from a header codec id and its artifacts.
    pub fn from_parts(id: u8, artifacts: &[u8]) -> Result<Self> {
        match id {
            codec_id::RAW => Ok(BlockCodec::Raw),
            codec_id::PBC => {
                let dictionary = PatternDictionary::deserialize(artifacts)?;
                Ok(BlockCodec::Pbc {
                    compressor: Arc::new(PbcCompressor::from_dictionary(
                        dictionary,
                        &PbcConfig::default(),
                    )),
                    fsst: false,
                })
            }
            codec_id::PBC_F => {
                let (dict_len, pos) = varint::read_usize(artifacts, 0)?;
                let end = pos
                    .checked_add(dict_len)
                    .filter(|&e| e <= artifacts.len())
                    .ok_or(ArchiveError::Truncated {
                        context: "PBC_F artifacts",
                    })?;
                let dictionary = PatternDictionary::deserialize(&artifacts[pos..end])?;
                let (fsst, used) = FsstCodec::deserialize_table(&artifacts[end..])?;
                if end + used != artifacts.len() {
                    return Err(ArchiveError::Corrupt {
                        context: "trailing bytes after PBC_F artifacts".into(),
                    });
                }
                Ok(BlockCodec::Pbc {
                    compressor: Arc::new(
                        PbcCompressor::from_dictionary(dictionary, &PbcConfig::default())
                            .with_fsst(fsst),
                    ),
                    fsst: true,
                })
            }
            codec_id::ZSTD => {
                let (level, pos) = varint::read_i64(artifacts, 0)?;
                let (dict_len, pos) = varint::read_usize(artifacts, pos)?;
                let end = pos
                    .checked_add(dict_len)
                    .filter(|&e| e <= artifacts.len())
                    .ok_or(ArchiveError::Truncated {
                        context: "Zstd artifacts",
                    })?;
                Ok(BlockCodec::Zstd {
                    codec: ZstdLike::new(level as i32),
                    dictionary: Arc::new(artifacts[pos..end].to_vec()),
                })
            }
            codec_id::FSST => {
                let (codec, used) = FsstCodec::deserialize_table(artifacts)?;
                if used != artifacts.len() {
                    return Err(ArchiveError::Corrupt {
                        context: "trailing bytes after FSST artifacts".into(),
                    });
                }
                Ok(BlockCodec::Fsst { codec })
            }
            other => Err(ArchiveError::UnknownCodec { id: other }),
        }
    }

    /// Compress one block of entries.
    pub fn compress_block(&self, entries: &[Entry]) -> Vec<u8> {
        match self {
            BlockCodec::Raw => serialize_entries(entries),
            BlockCodec::Zstd { codec, dictionary } => {
                codec.compress_with_dict(&serialize_entries(entries), dictionary)
            }
            BlockCodec::Pbc { compressor, .. } => {
                compress_per_record(entries, |value| compressor.compress(value))
            }
            BlockCodec::Fsst { codec } => compress_per_record(entries, |value| codec.encode(value)),
        }
    }

    /// Decode a whole block into one flat [`DecodedBlock`]. `record_count`
    /// and `raw_len` are the block's footer entry: the decode must yield
    /// exactly that many records, and exactly (whole-block codecs) or at
    /// most (per-record codecs) that many bytes — a block claiming more is
    /// refused before anything is allocated for the claim.
    pub fn decompress_block(
        &self,
        block: &[u8],
        record_count: usize,
        raw_len: usize,
    ) -> Result<DecodedBlock> {
        let payload_len_mismatch = |len: usize| ArchiveError::Corrupt {
            context: format!("block payload is {len} bytes, index promises {raw_len}"),
        };
        match self {
            BlockCodec::Raw => {
                if block.len() != raw_len {
                    return Err(payload_len_mismatch(block.len()));
                }
                DecodedBlock::index_serialized(block.to_vec(), record_count)
            }
            BlockCodec::Zstd { codec, dictionary } => {
                let mut payload = Vec::new();
                codec.decompress_with_dict_into(block, dictionary, raw_len, &mut payload)?;
                if payload.len() != raw_len {
                    return Err(payload_len_mismatch(payload.len()));
                }
                DecodedBlock::index_serialized(payload, record_count)
            }
            BlockCodec::Pbc { .. } | BlockCodec::Fsst { .. } => {
                DecodedBlock::decode_per_record(block, record_count, raw_len, |value, out| {
                    self.decode_value_into(value, out)
                })
            }
        }
    }

    /// Decode a single entry by its position inside the block. For
    /// per-record codecs this walks entry headers and decodes only the
    /// requested value; whole-block codecs fall back to full decompression.
    pub fn entry_at(
        &self,
        block: &[u8],
        idx: usize,
        record_count: usize,
        raw_len: usize,
    ) -> Result<Entry> {
        if !self.is_per_record() {
            let decoded = self.decompress_block(block, record_count, raw_len)?;
            if idx >= decoded.len() {
                return Err(ArchiveError::Corrupt {
                    context: format!("entry {idx} out of block of {}", decoded.len()),
                });
            }
            return Ok((decoded.key(idx).to_vec(), decoded.value(idx).to_vec()));
        }
        let mut pos = 0usize;
        for i in 0..=idx {
            let key = read_chunk(block, pos, "block entry key")?;
            let value = read_chunk(block, key.end, "block entry value")?;
            pos = value.end;
            if i == idx {
                return Ok((block[key].to_vec(), self.decode_value(&block[value])?));
            }
        }
        unreachable!("loop returns at i == idx")
    }

    /// Decode one per-record-compressed value. Only meaningful for codecs
    /// where [`BlockCodec::is_per_record`] is true.
    fn decode_value(&self, value: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.decode_value_into(value, &mut out)?;
        Ok(out)
    }

    /// [`BlockCodec::decode_value`], appending to `out`.
    fn decode_value_into(&self, value: &[u8], out: &mut Vec<u8>) -> Result<()> {
        match self {
            BlockCodec::Raw => out.extend_from_slice(value),
            BlockCodec::Pbc { compressor, .. } => compressor.decompress_into(value, out)?,
            BlockCodec::Fsst { codec } => codec.decode_into(value, out)?,
            BlockCodec::Zstd { .. } => unreachable!("whole-block codecs have no per-record values"),
        }
        Ok(())
    }

    /// Find the **last** entry with `key` in the block, preserving the
    /// per-record random-access property: for per-record codecs only entry
    /// headers are walked and only the matching value is decoded.
    /// `sorted` enables early exit once keys pass the target.
    pub fn find_by_key(
        &self,
        block: &[u8],
        key: &[u8],
        record_count: usize,
        raw_len: usize,
        sorted: bool,
    ) -> Result<Option<Vec<u8>>> {
        if !self.is_per_record() {
            let decoded = self.decompress_block(block, record_count, raw_len)?;
            let hit = if sorted {
                decoded.find_last(key)
            } else {
                decoded
                    .iter()
                    .rev()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| v)
            };
            return Ok(hit.map(<[u8]>::to_vec));
        }
        let mut pos = 0usize;
        let mut hit: Option<&[u8]> = None;
        while pos < block.len() {
            let k = read_chunk(block, pos, "block entry key")?;
            let value = read_chunk(block, k.end, "block entry value")?;
            pos = value.end;
            let k = &block[k];
            if k == key {
                hit = Some(&block[value]); // keep walking: last entry wins
            } else if sorted && k > key {
                break;
            }
        }
        hit.map(|value| self.decode_value(value)).transpose()
    }
}

/// Serialize entries into the whole-block payload shape.
pub fn serialize_entries(entries: &[Entry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(serialized_len(entries));
    for (key, value) in entries {
        varint::write_usize(&mut out, key.len());
        out.extend_from_slice(key);
        varint::write_usize(&mut out, value.len());
        out.extend_from_slice(value);
    }
    out
}

/// Exact byte length [`serialize_entries`] will produce.
pub fn serialized_len(entries: &[Entry]) -> usize {
    entries
        .iter()
        .map(|(k, v)| {
            varint::encoded_len(k.len() as u64)
                + k.len()
                + varint::encoded_len(v.len() as u64)
                + v.len()
        })
        .sum()
}

fn compress_per_record(entries: &[Entry], compress: impl Fn(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(serialized_len(entries) / 2 + 16);
    for (key, value) in entries {
        varint::write_usize(&mut out, key.len());
        out.extend_from_slice(key);
        let compressed = compress(value);
        varint::write_usize(&mut out, compressed.len());
        out.extend_from_slice(&compressed);
    }
    out
}

fn fsst_table(compressor: &PbcCompressor) -> Vec<u8> {
    // The compressor does not expose its FSST table directly; recover it via
    // the residual mode. This helper exists only for artifact serialization.
    match compressor.residual_fsst() {
        Some(fsst) => fsst.serialize_table(),
        None => Vec::new(),
    }
}

/// Build the codec a [`CodecSpec`] asks for, training on the given sample
/// entries (normally the segment's first block).
pub fn build_codec(spec: &CodecSpec, samples: &[Entry]) -> BlockCodec {
    let values: Vec<&[u8]> = samples.iter().map(|(_, v)| v.as_slice()).collect();
    match spec {
        CodecSpec::Auto => select_codec(samples),
        CodecSpec::Raw => BlockCodec::Raw,
        CodecSpec::Pbc(config) => BlockCodec::Pbc {
            compressor: Arc::new(PbcCompressor::train(&values, config)),
            fsst: false,
        },
        CodecSpec::PbcF(config) => BlockCodec::Pbc {
            compressor: Arc::new(PbcCompressor::train_fsst(&values, config)),
            fsst: true,
        },
        CodecSpec::Zstd { level } => BlockCodec::Zstd {
            codec: ZstdLike::new(*level),
            dictionary: Arc::new(Dictionary::train_default(&values).as_bytes().to_vec()),
        },
        CodecSpec::Fsst => BlockCodec::Fsst {
            codec: <FsstCodec as pbc_codecs::TrainableCodec>::train(&values),
        },
        CodecSpec::Pretrained(codec) => codec.clone(),
    }
}

/// Trial-compress one sample block with every candidate codec and keep the
/// one producing the fewest bytes.
fn select_codec(samples: &[Entry]) -> BlockCodec {
    select_codec_over_blocks(&[samples])
}

/// Trial-select a codec over several sample blocks spread across the input.
///
/// Candidates train on the concatenation of all samples and are scored by
/// the total trial-compressed size of the sample blocks plus the artifact
/// bytes each codec would add to the header (ties break toward the earlier
/// candidate, so selection is deterministic). Sampling blocks spread across
/// the input — rather than the first block only — keeps drifting corpora
/// from committing to a codec that raw-fallbacks on the whole tail.
pub fn select_codec_over_blocks(sample_blocks: &[&[Entry]]) -> BlockCodec {
    let concatenated: Vec<Entry>;
    let training: &[Entry] = match sample_blocks {
        [] => &[],
        [single] => single,
        many => {
            concatenated = many.iter().flat_map(|b| b.iter().cloned()).collect();
            &concatenated
        }
    };
    if training.is_empty() {
        return BlockCodec::Raw;
    }
    // `PBC` and `PBC_F` extract the same pattern dictionary from the same
    // sample: extract it once, for `PBC_F`, and build `PBC` on it.
    let config = PbcConfig::default();
    let values: Vec<&[u8]> = training.iter().map(|(_, v)| v.as_slice()).collect();
    let pbc_f = Arc::new(PbcCompressor::train_fsst(&values, &config));
    let pbc = Arc::new(PbcCompressor::from_dictionary(
        pbc_f.dictionary().clone(),
        &config,
    ));
    let candidates = [
        BlockCodec::Pbc {
            compressor: pbc,
            fsst: false,
        },
        BlockCodec::Pbc {
            compressor: pbc_f,
            fsst: true,
        },
        build_codec(&CodecSpec::Zstd { level: 3 }, training),
        build_codec(&CodecSpec::Fsst, training),
        BlockCodec::Raw,
    ];
    let mut best: Option<(usize, BlockCodec)> = None;
    for codec in candidates {
        let size = sample_blocks
            .iter()
            .map(|block| codec.compress_block(block).len())
            .sum::<usize>()
            + codec.artifacts().len();
        if best.as_ref().is_none_or(|(b, _)| size < *b) {
            best = Some((size, codec));
        }
    }
    // pbc-allow(panic): the scoring loop above always pushes at least one candidate
    best.expect("candidate list is non-empty").1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                (
                    format!("user:{i:08}").into_bytes(),
                    format!(
                        "sess|uid={}|dev=android-13|ip=10.0.{}.{}|exp={}",
                        10_000_000 + (i * 9_700_417) % 89_999_999,
                        i % 256,
                        (i * 7) % 256,
                        1_686_000_000 + (i * 86_413) % 9_999_999
                    )
                    .into_bytes(),
                )
            })
            .collect()
    }

    fn all_trained_codecs(entries: &[Entry]) -> Vec<BlockCodec> {
        [
            CodecSpec::Raw,
            CodecSpec::Pbc(PbcConfig::small()),
            CodecSpec::PbcF(PbcConfig::small()),
            CodecSpec::Zstd { level: 3 },
            CodecSpec::Fsst,
        ]
        .iter()
        .map(|spec| build_codec(spec, entries))
        .collect()
    }

    #[test]
    fn every_codec_roundtrips_a_block() {
        let entries = sample_entries(120);
        for codec in all_trained_codecs(&entries) {
            let block = codec.compress_block(&entries);
            let back = codec
                .decompress_block(&block, entries.len(), serialized_len(&entries))
                .unwrap();
            assert_eq!(back.to_entries(), entries, "{}", codec.name());
        }
    }

    #[test]
    fn every_codec_survives_header_artifact_roundtrip() {
        let entries = sample_entries(150);
        for codec in all_trained_codecs(&entries) {
            let rebuilt = BlockCodec::from_parts(codec.id(), &codec.artifacts()).unwrap();
            assert_eq!(rebuilt.id(), codec.id());
            let block = codec.compress_block(&entries);
            // The rebuilt codec must produce byte-identical blocks (writers
            // may hand segments to other processes for compaction).
            assert_eq!(rebuilt.compress_block(&entries), block, "{}", codec.name());
            assert_eq!(
                rebuilt
                    .decompress_block(&block, entries.len(), serialized_len(&entries))
                    .unwrap()
                    .to_entries(),
                entries,
                "{}",
                codec.name()
            );
        }
    }

    #[test]
    fn per_record_blocks_decode_inside_the_reserved_buffer() {
        // Values decode straight into the block buffer, which is reserved
        // once for the footer's `raw_len`: no value may grow it.
        let entries = sample_entries(120);
        let raw_len = serialized_len(&entries);
        for spec in [
            CodecSpec::Pbc(PbcConfig::small()),
            CodecSpec::PbcF(PbcConfig::small()),
            CodecSpec::Fsst,
        ] {
            let codec = build_codec(&spec, &entries);
            let block = codec.compress_block(&entries);
            assert!(raw_len <= block.len() * 16, "{}", codec.name());
            let decoded = codec
                .decompress_block(&block, entries.len(), raw_len)
                .unwrap();
            let offsets = entries.len() * std::mem::size_of::<[u32; 4]>();
            assert_eq!(decoded.heap_bytes(), raw_len + offsets, "{}", codec.name());
        }
    }

    #[test]
    fn find_by_key_matches_full_decompression_and_keeps_last_duplicate() {
        let mut entries = sample_entries(48);
        // Duplicate key with two values: the later one must win.
        entries.push((b"user:00000007".to_vec(), b"overwritten-value".to_vec()));
        let raw_len = serialized_len(&entries);
        for codec in all_trained_codecs(&entries) {
            let block = codec.compress_block(&entries);
            let hit = codec
                .find_by_key(&block, b"user:00000007", entries.len(), raw_len, false)
                .unwrap();
            assert_eq!(
                hit.as_deref(),
                Some(b"overwritten-value".as_slice()),
                "{}",
                codec.name()
            );
            assert_eq!(
                codec
                    .find_by_key(&block, b"user:00000012", entries.len(), raw_len, false)
                    .unwrap(),
                Some(entries[12].1.clone()),
                "{}",
                codec.name()
            );
            assert_eq!(
                codec
                    .find_by_key(&block, b"user:zzz", entries.len(), raw_len, false)
                    .unwrap(),
                None,
                "{}",
                codec.name()
            );
        }
    }

    #[test]
    fn entry_at_matches_full_decompression() {
        let entries = sample_entries(64);
        for codec in all_trained_codecs(&entries) {
            let block = codec.compress_block(&entries);
            for idx in [0usize, 1, 31, 63] {
                assert_eq!(
                    codec
                        .entry_at(&block, idx, entries.len(), serialized_len(&entries))
                        .unwrap(),
                    entries[idx],
                    "{}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn auto_selection_beats_raw_on_templated_data() {
        let entries = sample_entries(256);
        let codec = build_codec(&CodecSpec::Auto, &entries);
        assert_ne!(codec.id(), codec_id::RAW);
        let compressed = codec.compress_block(&entries).len();
        assert!(compressed < serialized_len(&entries) / 2);
    }

    #[test]
    fn unknown_codec_id_is_a_typed_error() {
        assert!(matches!(
            BlockCodec::from_parts(250, &[]),
            Err(ArchiveError::UnknownCodec { id: 250 })
        ));
    }
}
