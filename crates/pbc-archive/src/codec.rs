//! Record and block codecs: how one value, and a block of records, become
//! bytes and back.
//!
//! A [`RecordCodec`] encodes one value on its own — verbatim, PBC or
//! PBC_F, FSST, or Zstd-like with a trained dictionary — and is the one
//! per-record codec of the workspace: the hot tier (`pbc-store`, the
//! paper's Table 8) stores every value through it, and per-record segment
//! blocks frame every value through it.
//!
//! A segment commits to one [`BlockCodec`] at write time; its trained
//! artifacts (PBC pattern dictionary, FSST symbol table, Zstd dictionary)
//! are serialized once into the segment header, so reopening a segment
//! needs no retraining. A block takes one of two shapes:
//!
//! * **Per-record** ([`BlockCodec::PerRecord`]): each value is encoded by
//!   the record codec inside the block's `varint len, bytes` frames, so a
//!   point lookup walks the frames and decodes only the requested value
//!   (the paper's random-access property, Figure 5; `repro fig5` measures
//!   it on [`BlockCodec::entry_at`]). A `Raw` block is this shape with
//!   every value stored verbatim.
//! * **Whole-block** ([`BlockCodec::Zstd`]): all entries serialized into
//!   one payload and compressed as a unit — best ratio, but a point lookup
//!   decompresses the whole block.
//!
//! Header ids 0–4 name the codecs [`CodecSpec::Auto`] chooses from. Id 5
//! is a per-record Zstd(dict) segment, which only a
//! [`CodecSpec::Pretrained`] writer stamps.

use std::borrow::Cow;
use std::sync::Arc;

use pbc_codecs::fsst::FsstCodec;
use pbc_codecs::traits::{DictCodec, TrainableCodec};
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
    /// Per-record Zstd-like with a trained dictionary.
    pub const ZSTD_RECORD: u8 = 5;
}

/// Which codec a [`crate::SegmentWriter`] should use.
#[derive(Debug, Clone, Default)]
pub enum CodecSpec {
    /// Train every candidate on sample blocks of the writer's first window
    /// (see [`crate::SegmentConfig::auto_sample_blocks`]) and keep
    /// whichever trial-compresses them smallest.
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

/// Zstd-like compression with a trained dictionary: a whole-block segment
/// codec, and a record codec (TierBase's previous solution, Table 8's
/// "Zstd(dict)" row).
#[derive(Debug, Clone)]
pub struct ZstdDict {
    /// The compressor, configured at the level it was trained for.
    pub codec: ZstdLike,
    /// The trained dictionary, shared by every clone and embedded in the
    /// segment header.
    pub dictionary: Arc<Vec<u8>>,
}

impl ZstdDict {
    /// Train a dictionary on sampled values (the paper's "sample data for
    /// a target workload and train a workload-specific dictionary ...
    /// offline" flow).
    pub fn train(samples: &[&[u8]], level: i32) -> Self {
        ZstdDict {
            codec: ZstdLike::new(level),
            dictionary: Arc::new(Dictionary::train_default(samples).as_bytes().to_vec()),
        }
    }

    /// `varint level, varint dictionary length, dictionary`.
    fn artifacts(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.dictionary.len() + 8);
        varint::write_i64(&mut out, self.codec.level() as i64);
        varint::write_usize(&mut out, self.dictionary.len());
        out.extend_from_slice(&self.dictionary);
        out
    }

    fn from_artifacts(artifacts: &[u8]) -> Result<Self> {
        let (level, pos) = varint::read_i64(artifacts, 0)?;
        let (dict_len, pos) = varint::read_usize(artifacts, pos)?;
        let end = pos
            .checked_add(dict_len)
            .filter(|&e| e <= artifacts.len())
            .ok_or(ArchiveError::Truncated {
                context: "Zstd artifacts",
            })?;
        Ok(ZstdDict {
            codec: ZstdLike::new(level as i32),
            dictionary: Arc::new(artifacts[pos..end].to_vec()),
        })
    }
}

/// A trained per-record codec: one value in, one value out.
#[derive(Debug, Clone)]
pub enum RecordCodec {
    /// Values stored verbatim.
    Raw,
    /// PBC with a trained pattern dictionary, shared by every clone:
    /// `PBC_F` when the compressor codes residuals with FSST
    /// ([`PbcCompressor::residual_fsst`]), plain `PBC` otherwise.
    Pbc(Arc<PbcCompressor>),
    /// FSST with a trained symbol table.
    Fsst(FsstCodec),
    /// Zstd-like with a trained dictionary.
    ZstdDict(ZstdDict),
}

impl RecordCodec {
    /// The header id of a per-record segment written with this codec.
    pub fn id(&self) -> u8 {
        match self {
            RecordCodec::Raw => codec_id::RAW,
            RecordCodec::Pbc(compressor) if compressor.residual_fsst().is_some() => codec_id::PBC_F,
            RecordCodec::Pbc(_) => codec_id::PBC,
            RecordCodec::Fsst(_) => codec_id::FSST,
            RecordCodec::ZstdDict(_) => codec_id::ZSTD_RECORD,
        }
    }

    /// Name used in reports and summaries.
    pub fn name(&self) -> &'static str {
        match self {
            RecordCodec::Raw => "Raw",
            RecordCodec::Pbc(compressor) => compressor.variant_name(),
            RecordCodec::Fsst(_) => "FSST",
            RecordCodec::ZstdDict(_) => "Zstd(dict)",
        }
    }

    /// Encode one value; `Raw` borrows it.
    pub fn encode<'a>(&self, value: &'a [u8]) -> Cow<'a, [u8]> {
        match self {
            RecordCodec::Raw => Cow::Borrowed(value),
            RecordCodec::Pbc(compressor) => Cow::Owned(compressor.compress(value)),
            RecordCodec::Fsst(codec) => Cow::Owned(codec.encode(value)),
            RecordCodec::ZstdDict(ZstdDict { codec, dictionary }) => {
                Cow::Owned(codec.compress_with_dict(value, dictionary))
            }
        }
    }

    /// Append the value `stored` encodes to `out`. On error `out` holds
    /// what it held on entry.
    pub fn decode_into(&self, stored: &[u8], out: &mut Vec<u8>) -> Result<()> {
        self.decode_capped_into(stored, usize::MAX, out)
    }

    /// [`RecordCodec::decode_into`], refusing a `ZstdDict` value that
    /// declares more than `max_len` bytes before sizing `out` for it (a few
    /// stream bytes can declare gigabytes). The other codecs' output is
    /// bounded by their input and trained state.
    fn decode_capped_into(&self, stored: &[u8], max_len: usize, out: &mut Vec<u8>) -> Result<()> {
        match self {
            RecordCodec::Raw => out.extend_from_slice(stored),
            RecordCodec::Pbc(compressor) => compressor.decompress_into(stored, out)?,
            RecordCodec::Fsst(codec) => codec.decode_into(stored, out)?,
            RecordCodec::ZstdDict(ZstdDict { codec, dictionary }) => {
                codec.decompress_with_dict_into(stored, dictionary, max_len, out)?
            }
        }
        Ok(())
    }

    /// [`RecordCodec::decode_into`] a new buffer, which the decoder sizes:
    /// `Raw` and `ZstdDict` allocate it once, at the value's length.
    pub fn decode(&self, stored: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.decode_into(stored, &mut out)?;
        Ok(out)
    }

    /// Serialize the trained artifacts for the segment header.
    pub fn artifacts(&self) -> Vec<u8> {
        match self {
            RecordCodec::Raw => Vec::new(),
            RecordCodec::Pbc(compressor) => {
                let dict = compressor.dictionary().serialize();
                let Some(fsst) = compressor.residual_fsst() else {
                    return dict;
                };
                let mut out = Vec::with_capacity(dict.len() + 64);
                varint::write_usize(&mut out, dict.len());
                out.extend_from_slice(&dict);
                out.extend_from_slice(&fsst.serialize_table());
                out
            }
            RecordCodec::Fsst(codec) => codec.serialize_table(),
            RecordCodec::ZstdDict(zstd) => zstd.artifacts(),
        }
    }

    /// Rebuild a codec from a header codec id and its artifacts.
    pub fn from_parts(id: u8, artifacts: &[u8]) -> Result<Self> {
        let pbc = |dictionary| PbcCompressor::from_dictionary(dictionary, &PbcConfig::default());
        match id {
            codec_id::RAW => Ok(RecordCodec::Raw),
            codec_id::PBC => {
                let dictionary = PatternDictionary::deserialize(artifacts)?;
                Ok(RecordCodec::Pbc(Arc::new(pbc(dictionary))))
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
                Ok(RecordCodec::Pbc(Arc::new(pbc(dictionary).with_fsst(fsst))))
            }
            codec_id::FSST => {
                let (codec, used) = FsstCodec::deserialize_table(artifacts)?;
                if used != artifacts.len() {
                    return Err(ArchiveError::Corrupt {
                        context: "trailing bytes after FSST artifacts".into(),
                    });
                }
                Ok(RecordCodec::Fsst(codec))
            }
            codec_id::ZSTD_RECORD => {
                Ok(RecordCodec::ZstdDict(ZstdDict::from_artifacts(artifacts)?))
            }
            other => Err(ArchiveError::UnknownCodec { id: other }),
        }
    }
}

/// A trained, ready-to-use block codec: a block shape and the codec that
/// fills it.
#[derive(Debug, Clone)]
pub enum BlockCodec {
    /// Every value encoded on its own by the record codec, inside the
    /// block's frames.
    PerRecord(RecordCodec),
    /// The serialized block compressed as a unit, with a shared trained
    /// dictionary.
    Zstd(ZstdDict),
}

impl BlockCodec {
    /// The header codec id.
    pub fn id(&self) -> u8 {
        match self {
            BlockCodec::PerRecord(codec) => codec.id(),
            BlockCodec::Zstd(_) => codec_id::ZSTD,
        }
    }

    /// Name used in reports and summaries.
    pub fn name(&self) -> &'static str {
        match self {
            BlockCodec::PerRecord(codec) => codec.name(),
            BlockCodec::Zstd(_) => "Zstd(dict)",
        }
    }

    /// Whether point lookups can decode a single record without
    /// decompressing the rest of its block.
    pub fn is_per_record(&self) -> bool {
        matches!(self, BlockCodec::PerRecord(_))
    }

    /// Serialize the trained artifacts for the segment header.
    pub fn artifacts(&self) -> Vec<u8> {
        match self {
            BlockCodec::PerRecord(codec) => codec.artifacts(),
            BlockCodec::Zstd(zstd) => zstd.artifacts(),
        }
    }

    /// Rebuild a codec from a header codec id and its artifacts.
    pub fn from_parts(id: u8, artifacts: &[u8]) -> Result<Self> {
        if id == codec_id::ZSTD {
            return Ok(BlockCodec::Zstd(ZstdDict::from_artifacts(artifacts)?));
        }
        RecordCodec::from_parts(id, artifacts).map(BlockCodec::PerRecord)
    }

    /// Compress one block of entries.
    pub fn compress_block(&self, entries: &[Entry]) -> Vec<u8> {
        match self {
            BlockCodec::PerRecord(codec) => frame_entries(entries, codec),
            BlockCodec::Zstd(ZstdDict { codec, dictionary }) => {
                codec.compress_with_dict(&serialize_entries(entries), dictionary)
            }
        }
    }

    /// Decode a whole block into one flat [`DecodedBlock`]. `record_count`
    /// and `raw_len` are the block's footer entry: the decode must yield
    /// exactly that many records, which serialize to exactly that many
    /// bytes — a block claiming more is refused before anything is
    /// allocated for the claim.
    pub fn decompress_block(
        &self,
        block: &[u8],
        record_count: usize,
        raw_len: usize,
    ) -> Result<DecodedBlock> {
        match self {
            BlockCodec::PerRecord(codec) => {
                DecodedBlock::decode_per_record(block, record_count, raw_len, |value, out| {
                    let budget = raw_len.saturating_sub(out.len());
                    codec.decode_capped_into(value, budget, out)
                })
            }
            BlockCodec::Zstd(ZstdDict { codec, dictionary }) => {
                let mut payload = Vec::new();
                codec.decompress_with_dict_into(block, dictionary, raw_len, &mut payload)?;
                if payload.len() != raw_len {
                    return Err(ArchiveError::Corrupt {
                        context: format!(
                            "block payload is {} bytes, index promises {raw_len}",
                            payload.len()
                        ),
                    });
                }
                DecodedBlock::index_serialized(payload, record_count)
            }
        }
    }

    /// Decode a single entry by its position inside the block. A
    /// per-record block walks entry headers and decodes only the requested
    /// value; a whole-block codec decompresses the block.
    pub fn entry_at(
        &self,
        block: &[u8],
        idx: usize,
        record_count: usize,
        raw_len: usize,
    ) -> Result<Entry> {
        let BlockCodec::PerRecord(codec) = self else {
            let decoded = self.decompress_block(block, record_count, raw_len)?;
            if idx >= decoded.len() {
                return Err(ArchiveError::Corrupt {
                    context: format!("entry {idx} out of block of {}", decoded.len()),
                });
            }
            return Ok((decoded.key(idx).to_vec(), decoded.value(idx).to_vec()));
        };
        let mut pos = 0usize;
        for _ in 0..idx {
            let key = read_chunk(block, pos, "block entry key")?;
            pos = read_chunk(block, key.end, "block entry value")?.end;
        }
        let key = read_chunk(block, pos, "block entry key")?;
        let value = read_chunk(block, key.end, "block entry value")?;
        Ok((block[key].to_vec(), codec.decode(&block[value])?))
    }

    /// Find the **last** entry with `key` in a block whose keys ascend (a
    /// key may repeat, adjacently), preserving the per-record random-access
    /// property: a per-record block walks only entry headers, up to the
    /// first key past `key`, and decodes only the matching value.
    pub fn find_by_key(
        &self,
        block: &[u8],
        key: &[u8],
        record_count: usize,
        raw_len: usize,
    ) -> Result<Option<Vec<u8>>> {
        let BlockCodec::PerRecord(codec) = self else {
            let decoded = self.decompress_block(block, record_count, raw_len)?;
            return Ok(decoded.find_last(key).map(<[u8]>::to_vec));
        };
        let mut pos = 0usize;
        let mut hit: Option<&[u8]> = None;
        while pos < block.len() {
            let k = read_chunk(block, pos, "block entry key")?;
            let value = read_chunk(block, k.end, "block entry value")?;
            pos = value.end;
            let k = &block[k];
            if k == key {
                hit = Some(&block[value]); // keep walking: last entry wins
            } else if k > key {
                break;
            }
        }
        hit.map(|value| codec.decode(value)).transpose()
    }
}

/// Serialize entries into the whole-block payload shape: the per-record
/// frames with every value verbatim.
pub fn serialize_entries(entries: &[Entry]) -> Vec<u8> {
    frame_entries(entries, &RecordCodec::Raw)
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

/// `varint key_len, key, varint len, encoded value` per entry, sized for
/// the serialized payload (a block that outgrows it falls back to raw).
fn frame_entries(entries: &[Entry], codec: &RecordCodec) -> Vec<u8> {
    let mut out = Vec::with_capacity(serialized_len(entries));
    for (key, value) in entries {
        varint::write_usize(&mut out, key.len());
        out.extend_from_slice(key);
        let stored = codec.encode(value);
        varint::write_usize(&mut out, stored.len());
        out.extend_from_slice(&stored);
    }
    out
}

/// Build the codec a [`CodecSpec`] asks for, training on the given sample
/// entries (normally the segment's first block).
pub fn build_codec(spec: &CodecSpec, samples: &[Entry]) -> BlockCodec {
    let values: Vec<&[u8]> = samples.iter().map(|(_, v)| v.as_slice()).collect();
    let pbc = |compressor| BlockCodec::PerRecord(RecordCodec::Pbc(Arc::new(compressor)));
    match spec {
        CodecSpec::Auto => select_codec_over_blocks(&[samples]),
        CodecSpec::Raw => BlockCodec::PerRecord(RecordCodec::Raw),
        CodecSpec::Pbc(config) => pbc(PbcCompressor::train(&values, config)),
        CodecSpec::PbcF(config) => pbc(PbcCompressor::train_fsst(&values, config)),
        CodecSpec::Zstd { level } => BlockCodec::Zstd(ZstdDict::train(&values, *level)),
        CodecSpec::Fsst => BlockCodec::PerRecord(RecordCodec::Fsst(FsstCodec::train(&values))),
        CodecSpec::Pretrained(codec) => codec.clone(),
    }
}

/// Trial-select a codec over several sample blocks spread across the input.
///
/// Candidates train on the concatenation of all samples and are scored by
/// the total trial-compressed size of the sample blocks plus the artifact
/// bytes each codec would add to the header (ties break toward the earlier
/// candidate, so selection is deterministic). Sampling blocks spread across
/// the input — rather than the first block only — keeps drifting corpora
/// from committing to a codec that raw-fallbacks on the whole tail.
pub(crate) fn select_codec_over_blocks(sample_blocks: &[&[Entry]]) -> BlockCodec {
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
        return BlockCodec::PerRecord(RecordCodec::Raw);
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
        BlockCodec::PerRecord(RecordCodec::Pbc(pbc)),
        BlockCodec::PerRecord(RecordCodec::Pbc(pbc_f)),
        build_codec(&CodecSpec::Zstd { level: 3 }, training),
        build_codec(&CodecSpec::Fsst, training),
        BlockCodec::PerRecord(RecordCodec::Raw),
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
        let values: Vec<&[u8]> = entries.iter().map(|(_, v)| v.as_slice()).collect();
        // Plain block Zstd, with no dictionary: the codec `repro fig5`
        // measures against.
        let plain_zstd = BlockCodec::Zstd(ZstdDict {
            codec: ZstdLike::new(1),
            dictionary: Arc::default(),
        });
        let zstd_per_record =
            BlockCodec::PerRecord(RecordCodec::ZstdDict(ZstdDict::train(&values, 3)));
        [
            CodecSpec::Raw,
            CodecSpec::Pbc(PbcConfig::small()),
            CodecSpec::PbcF(PbcConfig::small()),
            CodecSpec::Zstd { level: 3 },
            CodecSpec::Fsst,
            CodecSpec::Pretrained(plain_zstd),
            CodecSpec::Pretrained(zstd_per_record),
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
            let raw_len = serialized_len(&entries);
            let back = codec
                .decompress_block(&block, entries.len(), raw_len)
                .unwrap();
            assert_eq!(back.to_entries(), entries, "{}", codec.name());
            // A footer whose raw length is off by one either way is corrupt.
            for wrong in [raw_len - 1, raw_len + 1] {
                assert!(
                    matches!(
                        codec.decompress_block(&block, entries.len(), wrong),
                        Err(ArchiveError::Corrupt { .. } | ArchiveError::Codec(_))
                    ),
                    "{}: raw_len {wrong}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn every_codec_survives_header_artifact_roundtrip() {
        let entries = sample_entries(150);
        let codecs = all_trained_codecs(&entries);
        let ids: Vec<u8> = codecs.iter().map(BlockCodec::id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, 3, 5], "every header id, 3 twice");
        for codec in codecs {
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
        for codec in all_trained_codecs(&entries) {
            if !codec.is_per_record() {
                continue;
            }
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
        // Keys ascend, as a segment writer takes them; key 7 repeats right
        // after itself and the later value must win.
        let mut entries = sample_entries(48);
        entries.insert(
            8,
            (b"user:00000007".to_vec(), b"overwritten-value".to_vec()),
        );
        let raw_len = serialized_len(&entries);
        for codec in all_trained_codecs(&entries) {
            let block = codec.compress_block(&entries);
            let find = |key: &[u8]| {
                codec
                    .find_by_key(&block, key, entries.len(), raw_len)
                    .unwrap()
            };
            let name = codec.name();
            assert_eq!(
                find(b"user:00000007").as_deref(),
                Some(b"overwritten-value".as_slice()),
                "{name}"
            );
            let full = codec
                .decompress_block(&block, entries.len(), raw_len)
                .unwrap();
            for key in [&b"user:00000000"[..], b"user:00000008", b"user:00000047"] {
                assert_eq!(find(key).as_deref(), full.find_last(key), "{name}: {key:?}");
            }
            assert_eq!(
                find(b"user:00000012"),
                Some(entries[13].1.clone()),
                "{name}"
            );
            // Before the first key, between two keys, past the last.
            for key in [&b"user:"[..], b"user:00000012x", b"user:zzz"] {
                assert_eq!(find(key), None, "{name}: {key:?}");
            }
        }
    }

    #[test]
    fn entry_at_matches_full_decompression() {
        let entries = sample_entries(64);
        let (count, raw_len) = (entries.len(), serialized_len(&entries));
        for codec in all_trained_codecs(&entries) {
            let block = codec.compress_block(&entries);
            for (idx, entry) in entries.iter().enumerate() {
                assert_eq!(
                    &codec.entry_at(&block, idx, count, raw_len).unwrap(),
                    entry,
                    "{} entry {idx}",
                    codec.name()
                );
            }
            assert!(
                matches!(
                    codec.entry_at(&block, count, count, raw_len),
                    Err(ArchiveError::Corrupt { .. })
                ),
                "{}: one past the last entry is a typed error",
                codec.name()
            );
        }
    }

    #[test]
    fn a_per_record_value_cannot_declare_more_than_its_block() {
        // A few stream bytes that decode to 1 MiB, in a block whose footer
        // promises 64 bytes: refused on the declared length, before any
        // buffer is sized for it.
        let codec = BlockCodec::PerRecord(RecordCodec::ZstdDict(ZstdDict::train(&[], 3)));
        let entries = vec![(b"k".to_vec(), vec![0u8; 1 << 20])];
        let block = codec.compress_block(&entries);
        assert!(block.len() < 1024);
        assert!(matches!(
            codec.decompress_block(&block, 1, 64),
            Err(ArchiveError::Codec(
                pbc_codecs::CodecError::SizeLimitExceeded { .. }
            ))
        ));
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
        for id in [6, 250] {
            assert!(matches!(
                BlockCodec::from_parts(id, &[]),
                Err(ArchiveError::UnknownCodec { id: found }) if found == id
            ));
        }
    }

    // The record codec on its own: the hot tier's values and Table 8.

    fn sample_values(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                format!(
                    "{{\"order_id\":\"ORD2023{:010}\",\"user_id\":{},\"status\":\"PAID\",\"amount_cents\":{}}}",
                    (i as u64 * 1_234_567_891) % 10_000_000_000,
                    10_000_000 + (i * 9_700_417) % 89_999_999,
                    100 + (i * 7_103) % 5_000_000
                )
                .into_bytes()
            })
            .collect()
    }

    /// Raw, Zstd(dict), PBC and PBC_F trained on `samples`.
    fn record_codecs(samples: &[&[u8]]) -> [RecordCodec; 4] {
        let pbc_f = PbcCompressor::train_fsst(samples, &PbcConfig::small());
        let pbc = PbcCompressor::from_dictionary(pbc_f.dictionary().clone(), &PbcConfig::small());
        [
            RecordCodec::Raw,
            RecordCodec::ZstdDict(ZstdDict::train(samples, 3)),
            RecordCodec::Pbc(Arc::new(pbc)),
            RecordCodec::Pbc(Arc::new(pbc_f)),
        ]
    }

    #[test]
    fn record_codecs_roundtrip() {
        let values = sample_values(200);
        let refs: Vec<&[u8]> = values[..100].iter().map(|v| v.as_slice()).collect();
        for codec in record_codecs(&refs) {
            for v in &values {
                let stored = codec.encode(v);
                assert_eq!(&codec.decode(&stored).unwrap(), v, "{}", codec.name());
                // Appending keeps what the buffer held.
                let mut out = b"prefix".to_vec();
                codec.decode_into(&stored, &mut out).unwrap();
                assert_eq!(&out[6..], v.as_slice(), "{}", codec.name());
            }
        }
    }

    #[test]
    fn compressed_record_codecs_reduce_stored_bytes() {
        let values = sample_values(300);
        let refs: Vec<&[u8]> = values[..100].iter().map(|v| v.as_slice()).collect();
        let [_, zstd, _, pbc_f] = record_codecs(&refs);
        let raw: usize = values.iter().map(|v| v.len()).sum();
        let zstd_total: usize = values.iter().map(|v| zstd.encode(v).len()).sum();
        let pbc_total: usize = values.iter().map(|v| pbc_f.encode(v).len()).sum();
        assert!(zstd_total < raw);
        assert!(pbc_total < raw);
        assert!(
            pbc_total < zstd_total,
            "PBC_F ({pbc_total}) should beat dictionary Zstd ({zstd_total}) on templated values"
        );
    }

    #[test]
    fn record_codec_names_distinguish_the_table8_rows() {
        let values = sample_values(50);
        let refs: Vec<&[u8]> = values.iter().map(|v| v.as_slice()).collect();
        let names = record_codecs(&refs).map(|codec| codec.name());
        assert_eq!(names, ["Raw", "Zstd(dict)", "PBC", "PBC_F"]);
    }

    #[test]
    fn corrupt_record_values_are_typed_errors() {
        let values = sample_values(60);
        let refs: Vec<&[u8]> = values.iter().map(|v| v.as_slice()).collect();
        let [_, zstd, pbc, pbc_f] = record_codecs(&refs);
        let garbage = [0xff, 0x13, 0x88];
        assert!(matches!(zstd.decode(&garbage), Err(ArchiveError::Codec(_))));
        for codec in [pbc, pbc_f] {
            assert!(matches!(codec.decode(&garbage), Err(ArchiveError::Pbc(_))));
        }
    }
}
