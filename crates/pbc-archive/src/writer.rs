//! Streaming segment writer.
//!
//! Records arrive in non-decreasing key order ([`SegmentWriter::append`]
//! rejects a key that sorts below the previous one) and accumulate into
//! blocks of roughly `target_block_bytes`; each closed block is compressed
//! on the calling thread and written at once, so every segment carries
//! [`FLAG_SORTED_KEYS`] and its footer's per-block key bounds are the
//! block's first and last key.
//!
//! The block codec is fixed once: forced specs train on the first block as
//! it closes, while [`CodecSpec::Auto`] buffers a window of
//! `AUTO_SAMPLE_WINDOW` blocks and trial-selects over up to
//! [`SegmentConfig::auto_sample_blocks`] samples spread across it, so a
//! drifting corpus cannot commit the segment to whatever the first block
//! alone suggested. Either way the header with the trained artifacts is
//! written before any block bytes.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::codec::{
    build_codec, codec_id, select_codec_over_blocks, serialize_entries, serialized_len, BlockCodec,
    CodecSpec, Entry,
};
use crate::error::{ArchiveError, Result};
use crate::format::{
    crc32, encode_index, encode_trailer, BlockMeta, Header, FLAG_SORTED_KEYS, VERSION,
};
use crate::obs::WriterObs;

/// Hard cap on records per block regardless of size.
const MAX_BLOCK_RECORDS: usize = 4096;

/// For [`CodecSpec::Auto`]: closed blocks buffered before committing to a
/// codec, so selection can sample across the input instead of trusting the
/// first block. Bounds the writer's extra memory to roughly
/// `AUTO_SAMPLE_WINDOW * target_block_bytes`.
const AUTO_SAMPLE_WINDOW: usize = 16;

/// Tuning for [`SegmentWriter`].
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Close a block once its serialized payload reaches this many bytes.
    pub target_block_bytes: usize,
    /// Which codec to use (or how to pick one).
    pub codec: CodecSpec,
    /// Ignored; segments compress inline. Kept only because `bench/`
    /// names it in a struct literal.
    pub workers: usize,
    /// For [`CodecSpec::Auto`]: how many blocks, spread evenly across the
    /// buffered window, the trial selection samples (at most 4 by default).
    pub auto_sample_blocks: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            target_block_bytes: 64 * 1024,
            codec: CodecSpec::Auto,
            workers: 1,
            auto_sample_blocks: 4,
        }
    }
}

impl SegmentConfig {
    /// Convenience: default config with the given codec.
    pub fn with_codec(codec: CodecSpec) -> Self {
        SegmentConfig {
            codec,
            ..SegmentConfig::default()
        }
    }

    /// Whether a block holding `records` entries of `bytes` estimated
    /// payload is due to close under this config: the rule
    /// [`SegmentWriter::append`] closes blocks by, for callers that lay out
    /// the same blocks without writing a segment.
    pub fn block_is_full(&self, records: usize, bytes: usize) -> bool {
        bytes >= self.target_block_bytes || records >= MAX_BLOCK_RECORDS
    }
}

/// The writer's per-entry size estimate used to close blocks: key and
/// value bytes plus ~10 bytes of varint framing (see
/// [`SegmentConfig::block_is_full`]).
pub fn entry_size_estimate(key_len: usize, value_len: usize) -> usize {
    key_len + value_len + 10
}

/// What [`SegmentWriter::finish`] reports.
#[derive(Debug, Clone)]
pub struct SegmentSummary {
    /// Where the segment was written.
    pub path: PathBuf,
    /// Records stored.
    pub record_count: u64,
    /// Blocks written.
    pub block_count: usize,
    /// Total serialized (uncompressed) payload bytes.
    pub raw_bytes: u64,
    /// Total compressed block bytes (excluding header/index).
    pub compressed_bytes: u64,
    /// Name of the codec the segment committed to.
    pub codec: &'static str,
    /// The codec itself, trained artifacts included: another writer given
    /// it as [`CodecSpec::Pretrained`] writes the same codec without
    /// training.
    pub block_codec: BlockCodec,
    /// Records appended via [`SegmentWriter::append_flagged`] (tombstones,
    /// for the tiered store).
    pub flagged_count: u64,
    /// Total bytes written to the segment file (header + blocks + index +
    /// trailer) — the authoritative on-disk size, counted by the writer
    /// itself so callers never have to re-stat a file they just fsynced.
    pub file_bytes: u64,
}

impl SegmentSummary {
    /// Compressed/raw ratio over block payloads (1.0 when empty).
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.compressed_bytes as f64 / self.raw_bytes as f64
        }
    }
}

/// A closed block on its way to compression: its entries plus the count of
/// flagged records among them.
struct BlockJob {
    entries: Vec<Entry>,
    flagged: u64,
}

/// Compress one closed block: its bytes, and its index entry complete but
/// for `file_offset`. Keys ascend, so the block's key bounds are its first
/// and last key.
fn compress_one(codec: &BlockCodec, job: BlockJob, obs: &WriterObs) -> (BlockMeta, Vec<u8>) {
    let timer = obs.encode_ns.start_timer();
    obs.blocks_encoded.inc();
    let BlockJob { entries, flagged } = job;
    let raw_len = serialized_len(&entries);
    let bytes = codec.compress_block(&entries);
    timer.observe();
    // Per-block raw fallback: when the segment codec expands this block
    // (data drifted away from what the first block trained on), store the
    // serialized payload verbatim instead, bounding worst-case ratio.
    let (id, bytes) = if raw_len < bytes.len() {
        (codec_id::RAW, serialize_entries(&entries))
    } else {
        (codec.id(), bytes)
    };
    let key = |entry: Option<&Entry>| entry.map(|(key, _)| key.clone()).unwrap_or_default();
    let meta = BlockMeta {
        codec_id: id,
        record_count: entries.len() as u64,
        raw_len: raw_len as u64,
        file_offset: 0,
        comp_len: bytes.len() as u64,
        crc: crc32(&bytes),
        min_key: key(entries.first()),
        max_key: key(entries.last()),
        flagged_count: flagged,
    };
    (meta, bytes)
}

/// Up to `k` strictly increasing indices spread evenly over `0..n` (first
/// and last always included when `n > 1`): which blocks of the `Auto`
/// window the codec selection samples.
fn spread_sample_indices(n: usize, k: usize) -> Vec<usize> {
    if n <= k {
        return (0..n).collect();
    }
    if k == 1 {
        return vec![0];
    }
    (0..k).map(|i| i * (n - 1) / (k - 1)).collect()
}

/// Writes one segment file; see the [module docs](self) for the pipeline.
pub struct SegmentWriter {
    path: PathBuf,
    file: BufWriter<File>,
    config: SegmentConfig,
    /// The committed codec; `None` until the header is written.
    codec: Option<BlockCodec>,
    current: Vec<Entry>,
    current_bytes: usize,
    /// Flagged records in the current (open) block.
    current_flagged: u64,
    /// Closed blocks held back until the codec is committed: the first
    /// block under a forced spec, up to `AUTO_SAMPLE_WINDOW` blocks under
    /// [`CodecSpec::Auto`].
    pending: Vec<BlockJob>,
    /// The last key appended; the next one may not sort below it.
    last_key: Vec<u8>,
    offset: u64,
    index: Vec<BlockMeta>,
    record_count: u64,
    /// Encode instrumentation; no-op unless attached via
    /// [`SegmentWriter::create_with_obs`].
    obs: WriterObs,
}

impl SegmentWriter {
    /// Create a segment at `path` (truncating any existing file).
    pub fn create(path: impl AsRef<Path>, config: SegmentConfig) -> Result<Self> {
        Self::create_with_obs(path, config, WriterObs::noop())
    }

    /// [`SegmentWriter::create`] with encode instrumentation attached:
    /// `obs` counts blocks encoded and times each block's compression.
    pub fn create_with_obs(
        path: impl AsRef<Path>,
        config: SegmentConfig,
        obs: WriterObs,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = BufWriter::new(File::create(&path)?);
        Ok(SegmentWriter {
            path,
            file,
            config,
            codec: None,
            current: Vec::new(),
            current_bytes: 0,
            current_flagged: 0,
            pending: Vec::new(),
            last_key: Vec::new(),
            offset: 0,
            index: Vec::new(),
            record_count: 0,
            obs,
        })
    }

    /// Append a keyed record. Keys must not decrease: a key that sorts
    /// below the previous one is [`ArchiveError::UnsortedKeys`], and
    /// nothing is appended.
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.append_inner(key, value, false)
    }

    /// Append a keyed record and count it in the block's `flagged_count`
    /// (surfaced per block and per segment through the footer index). The
    /// flag changes nothing about how the record is stored or read back;
    /// callers define its meaning — the tiered store flags tombstones so
    /// dead-entry ratios are readable without decoding blocks. Keys must
    /// not decrease, as for [`SegmentWriter::append`].
    pub fn append_flagged(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.append_inner(key, value, true)
    }

    fn append_inner(&mut self, key: &[u8], value: &[u8], flagged: bool) -> Result<()> {
        if key < self.last_key.as_slice() {
            return Err(ArchiveError::UnsortedKeys);
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.current_bytes += entry_size_estimate(key.len(), value.len());
        self.current.push((key.to_vec(), value.to_vec()));
        self.record_count += 1;
        if flagged {
            self.current_flagged += 1;
        }
        if self
            .config
            .block_is_full(self.current.len(), self.current_bytes)
        {
            self.close_block()?;
        }
        Ok(())
    }

    /// Append a keyless record (empty key); retrieval is by ordinal via
    /// [`crate::SegmentReader::get_record`].
    pub fn append_record(&mut self, value: &[u8]) -> Result<()> {
        self.append(&[], value)
    }

    /// Records appended so far.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// The codec the segment committed to, if the first block has closed.
    pub fn codec_name(&self) -> Option<&'static str> {
        self.codec.as_ref().map(|c| c.name())
    }

    /// Close the current block: compress and write it once a codec is
    /// committed, else hold it back and commit as soon as the codec can be
    /// chosen (the first block under a forced spec, a full sampling window
    /// under [`CodecSpec::Auto`]).
    fn close_block(&mut self) -> Result<()> {
        if self.current.is_empty() {
            return Ok(());
        }
        let job = BlockJob {
            entries: std::mem::take(&mut self.current),
            flagged: std::mem::take(&mut self.current_flagged),
        };
        self.current_bytes = 0;
        if let Some(codec) = &self.codec {
            let block = compress_one(codec, job, &self.obs);
            return self.write_block(block);
        }
        self.pending.push(job);
        if !matches!(self.config.codec, CodecSpec::Auto) || self.pending.len() >= AUTO_SAMPLE_WINDOW
        {
            self.codec = Some(self.commit()?);
        }
        Ok(())
    }

    /// Choose the codec over the held-back blocks — trial selection over up
    /// to [`SegmentConfig::auto_sample_blocks`] of them spread evenly across
    /// the window under [`CodecSpec::Auto`], the first block's training
    /// otherwise — write the header, then the held-back blocks in order.
    /// With no block held back (an empty segment) the codec still commits,
    /// so the file is self-describing (Raw under `Auto`).
    fn commit(&mut self) -> Result<BlockCodec> {
        let pending = std::mem::take(&mut self.pending);
        let codec = match &self.config.codec {
            CodecSpec::Auto => {
                let samples =
                    spread_sample_indices(pending.len(), self.config.auto_sample_blocks.max(1));
                let sample_blocks: Vec<&[Entry]> = samples
                    .iter()
                    .map(|&i| pending[i].entries.as_slice())
                    .collect();
                select_codec_over_blocks(&sample_blocks)
            }
            spec => build_codec(spec, pending.first().map_or(&[], |job| &job.entries)),
        };
        let header = Header {
            version: VERSION,
            codec_id: codec.id(),
            flags: FLAG_SORTED_KEYS,
            artifacts: codec.artifacts(),
        };
        let bytes = header.encode();
        self.file.write_all(&bytes)?;
        self.offset = bytes.len() as u64;
        for job in pending {
            let block = compress_one(&codec, job, &self.obs);
            self.write_block(block)?;
        }
        Ok(codec)
    }

    /// Append a compressed block to the file and its entry to the index.
    fn write_block(&mut self, (mut meta, bytes): (BlockMeta, Vec<u8>)) -> Result<()> {
        self.file.write_all(&bytes)?;
        meta.file_offset = self.offset;
        self.offset += meta.comp_len;
        self.index.push(meta);
        Ok(())
    }

    /// Flush the tail block, commit the codec if no block has yet, and
    /// write the index + trailer.
    pub fn finish(mut self) -> Result<SegmentSummary> {
        self.close_block()?;
        let codec = match self.codec.take() {
            Some(codec) => codec,
            None => self.commit()?,
        };
        let index = encode_index(&self.index);
        let index_offset = self.offset;
        self.file.write_all(&index)?;
        let trailer = encode_trailer(index_offset, index.len() as u32, crc32(&index));
        self.file.write_all(&trailer)?;
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        Ok(SegmentSummary {
            path: self.path.clone(),
            record_count: self.record_count,
            block_count: self.index.len(),
            raw_bytes: self.index.iter().map(|b| b.raw_len).sum(),
            compressed_bytes: self.index.iter().map(|b| b.comp_len).sum(),
            codec: codec.name(),
            block_codec: codec,
            flagged_count: self.index.iter().map(|b| b.flagged_count).sum(),
            file_bytes: index_offset + index.len() as u64 + trailer.len() as u64,
        })
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::spread_sample_indices;

    #[test]
    fn spread_indices_cover_first_and_last() {
        assert_eq!(spread_sample_indices(16, 4), vec![0, 5, 10, 15]);
        assert_eq!(spread_sample_indices(5, 4), vec![0, 1, 2, 4]);
        assert_eq!(spread_sample_indices(3, 4), vec![0, 1, 2]);
        assert_eq!(spread_sample_indices(0, 4), Vec::<usize>::new());
        assert_eq!(spread_sample_indices(9, 1), vec![0]);
        // Strictly increasing whenever n > k.
        for n in 5..40 {
            let idx = spread_sample_indices(n, 4);
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "n={n}: {idx:?}");
            assert_eq!(*idx.last().unwrap(), n - 1);
        }
    }
}
