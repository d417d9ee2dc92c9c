//! Streaming segment writer with a worker pool for block compression.
//!
//! Records accumulate into blocks of roughly `target_block_bytes`; each
//! full block is handed to a `std::thread` worker pool as `(sequence,
//! entries)`, compressed independently, and reassembled in sequence order
//! before hitting the file — so a segment written with N workers is
//! byte-identical to one written single-threaded.
//!
//! The block codec is fixed once: forced specs train on the first block as
//! it closes, while [`CodecSpec::Auto`] buffers a window of
//! `AUTO_SAMPLE_WINDOW` blocks and trial-selects over up to
//! [`SegmentConfig::auto_sample_blocks`] samples spread across it, so a
//! drifting corpus cannot commit the segment to whatever the first block
//! alone suggested. Either way the header with the trained artifacts is
//! written before any block bytes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::codec::{build_codec, serialized_len, BlockCodec, CodecSpec, Entry};
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
    /// Compression worker threads. `0` and `1` both mean inline (no pool).
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

    /// Convenience: set the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Whether a block holding `records` entries of `bytes` estimated
    /// payload is due to close under this config. This is **the** blocking
    /// rule — callers predicting writer block boundaries (e.g. to sample
    /// spill payloads for codec selection) must use it rather than
    /// re-deriving the thresholds.
    pub fn block_is_full(&self, records: usize, bytes: usize) -> bool {
        bytes >= self.target_block_bytes || records >= MAX_BLOCK_RECORDS
    }
}

/// The writer's per-entry size estimate used to close blocks: key and
/// value bytes plus ~10 bytes of varint framing. Shared so external block
/// predictions stay in sync with [`SegmentWriter::append`].
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

/// A compressed block travelling from a worker back to the writer.
struct CompressedBlock {
    entries_meta: BlockEntryMeta,
    /// Codec the block actually used (the segment codec, or the raw
    /// fallback when compression expanded the payload).
    codec_id: u8,
    bytes: Vec<u8>,
}

/// Everything the index needs to know about a block besides its file
/// position. Most of it is computed from the raw entries before
/// compression; `flagged_count` is carried in by the writer (it is not
/// derivable from the entry bytes).
struct BlockEntryMeta {
    record_count: u64,
    raw_len: u64,
    min_key: Vec<u8>,
    max_key: Vec<u8>,
    flagged_count: u64,
}

fn block_entry_meta(entries: &[Entry], flagged_count: u64) -> BlockEntryMeta {
    let mut min_key: Option<&[u8]> = None;
    let mut max_key: Option<&[u8]> = None;
    for (key, _) in entries {
        if min_key.is_none_or(|m| key.as_slice() < m) {
            min_key = Some(key);
        }
        if max_key.is_none_or(|m| key.as_slice() > m) {
            max_key = Some(key);
        }
    }
    BlockEntryMeta {
        record_count: entries.len() as u64,
        raw_len: serialized_len(entries) as u64,
        min_key: min_key.unwrap_or_default().to_vec(),
        max_key: max_key.unwrap_or_default().to_vec(),
        flagged_count,
    }
}

/// A closed block on its way to compression: its entries plus the count of
/// flagged records among them.
struct BlockJob {
    entries: Vec<Entry>,
    flagged: u64,
}

fn compress_one(codec: &BlockCodec, job: BlockJob, obs: &WriterObs) -> CompressedBlock {
    let timer = obs.encode_ns.start_timer();
    obs.blocks_encoded.inc();
    let BlockJob { entries, flagged } = job;
    let entries_meta = block_entry_meta(&entries, flagged);
    let bytes = codec.compress_block(&entries);
    timer.observe();
    // Per-block raw fallback: when the segment codec expands this block
    // (data drifted away from what the first block trained on), store the
    // serialized payload verbatim instead, bounding worst-case ratio.
    if entries_meta.raw_len < bytes.len() as u64 {
        return CompressedBlock {
            bytes: crate::codec::serialize_entries(&entries),
            entries_meta,
            codec_id: crate::codec::codec_id::RAW,
        };
    }
    CompressedBlock {
        entries_meta,
        codec_id: codec.id(),
        bytes,
    }
}

/// Up to `k` strictly increasing indices spread evenly over `0..n` (first
/// and last always included when `n > 1`) — the shared sampling rule for
/// codec selection, used by this writer's `Auto` window and by callers
/// sampling whole segments or spill payloads.
pub fn spread_sample_indices(n: usize, k: usize) -> Vec<usize> {
    if n <= k {
        return (0..n).collect();
    }
    if k == 1 {
        return vec![0];
    }
    (0..k).map(|i| i * (n - 1) / (k - 1)).collect()
}

struct Pool {
    work_tx: Option<SyncSender<(u64, BlockJob)>>,
    result_rx: Receiver<(u64, CompressedBlock)>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    fn spawn(codec: Arc<BlockCodec>, workers: usize, obs: WriterObs) -> Pool {
        let (work_tx, work_rx) = mpsc::sync_channel::<(u64, BlockJob)>(workers * 2);
        let (result_tx, result_rx) = mpsc::channel();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let handles = (0..workers)
            .map(|worker| {
                let work_rx = Arc::clone(&work_rx);
                let result_tx = result_tx.clone();
                let codec = Arc::clone(&codec);
                let obs = obs.clone();
                std::thread::Builder::new()
                    .name(format!("pbc-archive-compress-{worker}"))
                    .spawn(move || loop {
                        let job = work_rx.lock().recv();
                        match job {
                            Ok((seq, block)) => {
                                // A send error means the writer is gone; just
                                // stop, it can no longer use the result.
                                if result_tx
                                    .send((seq, compress_one(&codec, block, &obs)))
                                    .is_err()
                                {
                                    return;
                                }
                            }
                            Err(_) => return,
                        }
                    })
                    // pbc-allow(panic): OS thread-spawn failure at pool creation is not a recoverable write error
                    .expect("spawning compression worker")
            })
            .collect();
        Pool {
            work_tx: Some(work_tx),
            result_rx,
            handles,
        }
    }

    fn shutdown(&mut self) {
        // Closing the work channel makes every worker's recv fail and exit.
        self.work_tx = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Writes one segment file; see the [module docs](self) for the pipeline.
pub struct SegmentWriter {
    path: PathBuf,
    file: BufWriter<File>,
    config: SegmentConfig,
    codec: Option<Arc<BlockCodec>>,
    /// `(artifacts, sorted-bit-as-written)` — kept so `finish` can re-write
    /// the header if a later append broke sorted order after the header
    /// already hit the file.
    header_state: Option<(Vec<u8>, bool)>,
    pool: Option<Pool>,
    current: Vec<Entry>,
    current_bytes: usize,
    /// Flagged records in the current (open) block.
    current_flagged: u64,
    /// Closed blocks held back while [`CodecSpec::Auto`] waits for its
    /// sampling window (`AUTO_SAMPLE_WINDOW` blocks) to fill.
    pending: Vec<BlockJob>,
    sorted: bool,
    last_key: Vec<u8>,
    offset: u64,
    index: Vec<BlockMeta>,
    /// Sequence number the next closed block gets.
    next_seq: u64,
    /// Sequence number the next block written to the file must have.
    next_write: u64,
    /// Out-of-order results waiting for their turn.
    reorder: BinaryHeap<Reverse<SeqBlock>>,
    raw_bytes: u64,
    compressed_bytes: u64,
    record_count: u64,
    flagged_count: u64,
    /// Encode instrumentation; no-op unless attached via
    /// [`SegmentWriter::create_with_obs`]. Cloned into pool workers, so
    /// it must be set before the first block closes.
    obs: WriterObs,
}

struct SeqBlock {
    seq: u64,
    block: CompressedBlock,
}

impl PartialEq for SeqBlock {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for SeqBlock {}

impl PartialOrd for SeqBlock {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SeqBlock {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.seq.cmp(&other.seq)
    }
}

impl SegmentWriter {
    /// Create a segment at `path` (truncating any existing file).
    pub fn create(path: impl AsRef<Path>, config: SegmentConfig) -> Result<Self> {
        Self::create_with_obs(path, config, WriterObs::noop())
    }

    /// [`SegmentWriter::create`] with encode instrumentation attached:
    /// `obs` counts blocks encoded and times each block's compression
    /// (on whichever thread runs it, inline or pool worker).
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
            header_state: None,
            pool: None,
            current: Vec::new(),
            current_bytes: 0,
            current_flagged: 0,
            pending: Vec::new(),
            sorted: true,
            last_key: Vec::new(),
            offset: 0,
            index: Vec::new(),
            next_seq: 0,
            next_write: 0,
            reorder: BinaryHeap::new(),
            raw_bytes: 0,
            compressed_bytes: 0,
            record_count: 0,
            flagged_count: 0,
            obs,
        })
    }

    /// Append a keyed record. Keys appended in non-decreasing order keep the
    /// segment key-searchable via [`crate::SegmentReader::get`].
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.append_inner(key, value, false)
    }

    /// Append a keyed record and count it in the block's `flagged_count`
    /// (surfaced per block and per segment through the footer index). The
    /// flag changes nothing about how the record is stored or read back;
    /// callers define its meaning — the tiered store flags tombstones so
    /// dead-entry ratios are readable without decoding blocks.
    pub fn append_flagged(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.append_inner(key, value, true)
    }

    fn append_inner(&mut self, key: &[u8], value: &[u8], flagged: bool) -> Result<()> {
        if self.sorted && self.record_count > 0 && key < self.last_key.as_slice() {
            self.sorted = false;
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.current_bytes += entry_size_estimate(key.len(), value.len());
        self.current.push((key.to_vec(), value.to_vec()));
        self.record_count += 1;
        if flagged {
            self.current_flagged += 1;
            self.flagged_count += 1;
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

    /// Close the current block: pick the codec if none is committed yet
    /// (buffering under [`CodecSpec::Auto`] until the sampling window
    /// fills), then compress inline or enqueue to the pool.
    fn close_block(&mut self) -> Result<()> {
        if self.current.is_empty() {
            return Ok(());
        }
        let job = BlockJob {
            entries: std::mem::take(&mut self.current),
            flagged: std::mem::take(&mut self.current_flagged),
        };
        self.current_bytes = 0;
        if self.codec.is_none() {
            if matches!(self.config.codec, CodecSpec::Auto) {
                self.pending.push(job);
                if self.pending.len() >= AUTO_SAMPLE_WINDOW {
                    self.commit_pending()?;
                }
                return Ok(());
            }
            self.commit_codec(build_codec(&self.config.codec, &job.entries))?;
        }
        self.dispatch_block(job)
    }

    /// Hand a closed block to the worker pool (or compress it inline) once a
    /// codec is committed.
    fn dispatch_block(&mut self, job: BlockJob) -> Result<()> {
        let codec = Arc::clone(
            self.codec
                .as_ref()
                // pbc-allow(panic): commit_codec runs before any block dispatch
                .expect("codec committed before dispatch"),
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.config.workers > 1 {
            if self.pool.is_none() {
                self.pool = Some(Pool::spawn(
                    Arc::clone(&codec),
                    self.config.workers,
                    self.obs.clone(),
                ));
            }
            self.pool
                .as_ref()
                // pbc-allow(panic): pool created in the branch above
                .expect("pool spawned above")
                .work_tx
                .as_ref()
                // pbc-allow(panic): work channel closes only when the pool is dropped
                .expect("work channel open while writing")
                .send((seq, job))
                // pbc-allow(panic): workers only exit after the work channel closes; send cannot fail here
                .expect("compression workers alive while writer holds the pool");
            self.drain_results(false)?;
        } else {
            let block = compress_one(&codec, job, &self.obs);
            self.write_block(seq, block)?;
        }
        Ok(())
    }

    /// Commit the `Auto` codec: trial-select over up to
    /// [`SegmentConfig::auto_sample_blocks`] blocks spread evenly across the
    /// buffered window, write the header, then stream the buffered blocks
    /// out in their original order.
    fn commit_pending(&mut self) -> Result<()> {
        let pending = std::mem::take(&mut self.pending);
        let samples = spread_sample_indices(pending.len(), self.config.auto_sample_blocks.max(1));
        let sample_blocks: Vec<&[Entry]> = samples
            .iter()
            .map(|&i| pending[i].entries.as_slice())
            .collect();
        let codec = crate::codec::select_codec_over_blocks(&sample_blocks);
        self.commit_codec(codec)?;
        for job in pending {
            self.dispatch_block(job)?;
        }
        Ok(())
    }

    /// Write the header for a trained codec and commit to it.
    fn commit_codec(&mut self, codec: BlockCodec) -> Result<()> {
        let header = Header {
            version: VERSION,
            codec_id: codec.id(),
            flags: if self.sorted { FLAG_SORTED_KEYS } else { 0 },
            artifacts: codec.artifacts(),
        };
        let bytes = header.encode();
        self.file.write_all(&bytes)?;
        self.offset = bytes.len() as u64;
        self.header_state = Some((header.artifacts, self.sorted));
        self.codec = Some(Arc::new(codec));
        Ok(())
    }

    /// If appends after the header was written broke sorted order, re-write
    /// the header in place with the flag cleared (same length, new CRC).
    fn patch_header_if_stale(&mut self) -> Result<()> {
        use std::io::{Seek, SeekFrom};
        let Some((artifacts, written_sorted)) = self.header_state.take() else {
            return Ok(());
        };
        if written_sorted == self.sorted {
            return Ok(());
        }
        let header = Header {
            version: VERSION,
            // pbc-allow(panic): codec committed before the header rewrite
            codec_id: self.codec.as_ref().expect("codec set with header").id(),
            flags: if self.sorted { FLAG_SORTED_KEYS } else { 0 },
            artifacts,
        };
        self.file.flush()?;
        let file = self.file.get_mut();
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header.encode())?;
        file.seek(SeekFrom::Start(self.offset))?;
        Ok(())
    }

    /// Pull finished blocks off the result channel and write every in-order
    /// prefix. `blocking` waits until all submitted blocks are written.
    fn drain_results(&mut self, blocking: bool) -> Result<()> {
        if self.pool.is_none() {
            return Ok(());
        }
        loop {
            // First flush whatever the reorder heap already has in order.
            while self
                .reorder
                .peek()
                .is_some_and(|Reverse(b)| b.seq == self.next_write)
            {
                // pbc-allow(panic): peeked Some on the line above
                let Reverse(SeqBlock { seq, block }) = self.reorder.pop().expect("peeked above");
                self.write_block(seq, block)?;
            }
            if self.next_write == self.next_seq {
                return Ok(()); // everything submitted has been written
            }
            let received = {
                // pbc-allow(panic): pool presence checked at fn entry
                let pool = self.pool.as_ref().expect("pool presence checked above");
                if blocking {
                    match pool.result_rx.recv() {
                        Ok(result) => Some(result),
                        Err(_) => {
                            return Err(ArchiveError::Corrupt {
                                context: "compression workers exited early".into(),
                            })
                        }
                    }
                } else {
                    pool.result_rx.try_recv().ok()
                }
            };
            match received {
                Some((seq, block)) => self.reorder.push(Reverse(SeqBlock { seq, block })),
                None => return Ok(()), // non-blocking and nothing ready yet
            }
        }
    }

    fn write_block(&mut self, seq: u64, block: CompressedBlock) -> Result<()> {
        debug_assert_eq!(seq, self.next_write, "blocks must be written in order");
        let CompressedBlock {
            entries_meta,
            codec_id,
            bytes,
        } = block;
        self.file.write_all(&bytes)?;
        self.index.push(BlockMeta {
            codec_id,
            record_count: entries_meta.record_count,
            raw_len: entries_meta.raw_len,
            file_offset: self.offset,
            comp_len: bytes.len() as u64,
            crc: crc32(&bytes),
            min_key: entries_meta.min_key,
            max_key: entries_meta.max_key,
            flagged_count: entries_meta.flagged_count,
        });
        self.offset += bytes.len() as u64;
        self.raw_bytes += entries_meta.raw_len;
        self.compressed_bytes += bytes.len() as u64;
        self.next_write = seq + 1;
        Ok(())
    }

    /// Flush the tail block, drain the pool, and write the index + trailer.
    pub fn finish(mut self) -> Result<SegmentSummary> {
        self.close_block()?;
        if self.codec.is_none() && !self.pending.is_empty() {
            // Auto segment shorter than the sampling window: select over
            // whatever blocks exist.
            self.commit_pending()?;
        }
        if self.codec.is_none() {
            // Zero-record segment: commit so the file is still
            // self-describing (Raw under Auto).
            self.commit_codec(build_codec(&self.config.codec, &[]))?;
        }
        self.drain_results(true)?;
        if let Some(mut pool) = self.pool.take() {
            pool.shutdown();
        }
        self.patch_header_if_stale()?;
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
            raw_bytes: self.raw_bytes,
            compressed_bytes: self.compressed_bytes,
            // pbc-allow(panic): stats are read after commit_codec
            codec: self.codec.as_ref().expect("codec committed above").name(),
            flagged_count: self.flagged_count,
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
