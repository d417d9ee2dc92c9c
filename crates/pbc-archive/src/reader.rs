//! Reading segments back: open, verify, random access, scans.

use std::borrow::Cow;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::block::DecodedBlock;
use crate::codec::{BlockCodec, Entry};
use crate::error::{ArchiveError, Result};
use crate::format::{
    crc32, decode_index, decode_trailer, BlockMeta, Header, FLAG_SORTED_KEYS, TRAILER_LEN,
};
use crate::mmap::MappedFile;
use crate::obs::ReaderObs;
use crate::positioned::PositionedFile;

/// How a [`SegmentReader`] fetches bytes from disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadMode {
    /// Memory-map the segment when the platform/build supports it
    /// ([`MappedFile::supported`]), otherwise fall back to `pread`.
    #[default]
    Auto,
    /// Require the mmap backend; [`SegmentReader::open_with`] errors where
    /// it is unavailable (non-unix targets or the `mmap` feature off).
    Mmap,
    /// Always use the `pread` backend ([`PositionedFile`]), even where
    /// mmap is available.
    Pread,
}

/// Where block bytes come from: a positional-read file handle (every
/// fetch copies into a fresh buffer) or a page-cache mapping (fetches
/// borrow the mapped bytes — zero copies).
enum BlockSource {
    Pread(PositionedFile),
    Mapped(MappedFile),
}

impl BlockSource {
    /// Fetch `len` bytes at `offset`. Borrowed straight from the mapping
    /// on the mmap backend; copied into an owned buffer on pread.
    ///
    /// Callers validate ranges against the file length captured at open,
    /// so an out-of-bounds request means the file shrank underneath us —
    /// reported as [`ArchiveError::Truncated`] with the caller's context.
    fn bytes_at(&self, offset: u64, len: usize, context: &'static str) -> Result<Cow<'_, [u8]>> {
        match self {
            BlockSource::Pread(file) => {
                let mut buf = vec![0u8; len];
                file.read_exact_at(&mut buf, offset)?;
                Ok(Cow::Owned(buf))
            }
            BlockSource::Mapped(map) => usize::try_from(offset)
                .ok()
                .and_then(|start| start.checked_add(len).map(|end| (start, end)))
                .and_then(|(start, end)| map.as_slice().get(start..end))
                .map(Cow::Borrowed)
                .ok_or(ArchiveError::Truncated { context }),
        }
    }

    fn mode(&self) -> ReadMode {
        match self {
            BlockSource::Pread(_) => ReadMode::Pread,
            BlockSource::Mapped(_) => ReadMode::Mmap,
        }
    }
}

/// A reopened segment. All methods take `&self`; block reads go through
/// either a read-only mmap (unix default — fetches borrow the page-cache
/// mapping with zero copies) or [`PositionedFile`] (`pread`), so
/// concurrent readers sharing one `SegmentReader` never serialize on a
/// file cursor. Pick the backend with [`SegmentReader::open_with`].
///
/// The `Debug` form reports geometry only (no block payloads).
pub struct SegmentReader {
    path: PathBuf,
    source: BlockSource,
    header: Header,
    codec: BlockCodec,
    /// Shared instance backing the per-block raw-fallback path.
    raw_codec: BlockCodec,
    blocks: Vec<BlockMeta>,
    /// `starts[b]` = global ordinal of block `b`'s first record.
    starts: Vec<u64>,
    record_count: u64,
    /// On-disk file size in bytes, captured at open.
    file_len: u64,
    /// One bit per block, set once that block's payload CRC has been
    /// verified; later fetches of the same (immutable) block skip the
    /// checksum pass.
    verified: Vec<AtomicU64>,
    /// Decode instrumentation; no-op unless [`SegmentReader::set_obs`]
    /// attached real handles.
    obs: ReaderObs,
}

impl std::fmt::Debug for SegmentReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentReader")
            .field("path", &self.path)
            .field("codec", &self.codec.name())
            .field("backend", &self.source.mode())
            .field("blocks", &self.blocks.len())
            .field("records", &self.record_count)
            .finish()
    }
}

impl SegmentReader {
    /// Open and verify a segment with [`ReadMode::Auto`] backend
    /// selection: header magic/version/CRC, trailer magic, index CRC.
    /// Block payloads are verified lazily as they are read.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(path, ReadMode::Auto)
    }

    /// [`SegmentReader::open`] with an explicit backend choice.
    pub fn open_with(path: impl AsRef<Path>, mode: ReadMode) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let source = match mode {
            ReadMode::Pread => BlockSource::Pread(PositionedFile::new(file)),
            ReadMode::Mmap => BlockSource::Mapped(MappedFile::map(&file, file_len)?),
            // Auto: mmap wherever it works, pread everywhere else (non-unix
            // targets, the `mmap` feature off, or a filesystem refusing the
            // mapping).
            ReadMode::Auto => match MappedFile::map(&file, file_len) {
                Ok(map) => BlockSource::Mapped(map),
                Err(_) => BlockSource::Pread(PositionedFile::new(file)),
            },
        };

        // Header: magic(8) + version(2) + codec(1) + flags(1) + varint
        // artifact length (≤10) + the artifacts themselves + CRC. One
        // bounded prefix read covers the fixed part and, in practice, the
        // whole header; only a header whose trained artifacts outgrow the
        // prefix costs a second fetch.
        const HEADER_PREFIX: u64 = 16 * 1024;
        let prefix_len = file_len.min(HEADER_PREFIX) as usize;
        if prefix_len < 13 {
            return Err(ArchiveError::Truncated { context: "header" });
        }
        let prefix = source.bytes_at(0, prefix_len, "header")?;
        let (artifact_len, artifacts_start) = pbc_codecs::varint::read_usize(&prefix, 12)
            .map_err(|_| ArchiveError::Truncated { context: "header" })?;
        let header_len = artifacts_start
            .checked_add(artifact_len)
            .and_then(|n| n.checked_add(4))
            .filter(|&n| (n as u64) <= file_len)
            .ok_or(ArchiveError::Truncated { context: "header" })?;
        let header_bytes: Cow<'_, [u8]> = if header_len <= prefix.len() {
            Cow::Borrowed(&prefix[..header_len])
        } else {
            source.bytes_at(0, header_len, "header")?
        };
        let (header, _) = Header::decode(&header_bytes)?;
        let codec = BlockCodec::from_parts(header.codec_id, &header.artifacts)?;
        drop(header_bytes);
        drop(prefix);

        // Trailer and index.
        if file_len < (header_len + TRAILER_LEN) as u64 {
            return Err(ArchiveError::Truncated { context: "trailer" });
        }
        let trailer_bytes =
            source.bytes_at(file_len - TRAILER_LEN as u64, TRAILER_LEN, "trailer")?;
        let trailer: &[u8; TRAILER_LEN] = trailer_bytes
            .as_ref()
            .try_into()
            .map_err(|_| ArchiveError::Truncated { context: "trailer" })?;
        let (index_offset, index_len, index_crc) = decode_trailer(trailer)?;
        drop(trailer_bytes);
        index_offset
            .checked_add(index_len as u64)
            .and_then(|end| end.checked_add(TRAILER_LEN as u64))
            .filter(|&total| total <= file_len)
            .ok_or(ArchiveError::Truncated {
                context: "block index",
            })?;
        let index_bytes = source.bytes_at(index_offset, index_len as usize, "block index")?;
        let computed = crc32(&index_bytes);
        if computed != index_crc {
            return Err(ArchiveError::CrcMismatch {
                what: "block index",
                index: 0,
                stored: index_crc,
                computed,
            });
        }
        let blocks = decode_index(&index_bytes)?;
        drop(index_bytes);

        // Validate block geometry against the file before trusting offsets.
        let mut starts = Vec::with_capacity(blocks.len());
        let mut record_count = 0u64;
        for (i, meta) in blocks.iter().enumerate() {
            let end = meta.file_offset.checked_add(meta.comp_len);
            if end.is_none_or(|e| e > index_offset) {
                return Err(ArchiveError::Corrupt {
                    context: format!("block {i} extends past the index region"),
                });
            }
            starts.push(record_count);
            record_count = record_count.checked_add(meta.record_count).ok_or_else(|| {
                ArchiveError::Corrupt {
                    context: "record count overflow".into(),
                }
            })?;
        }
        let verified = (0..blocks.len().div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect();

        Ok(SegmentReader {
            path,
            source,
            header,
            codec,
            raw_codec: BlockCodec::Raw,
            blocks,
            starts,
            record_count,
            file_len,
            verified,
            obs: ReaderObs::noop(),
        })
    }

    /// Which backend this reader resolved to: [`ReadMode::Mmap`] or
    /// [`ReadMode::Pread`] (never [`ReadMode::Auto`]).
    pub fn read_mode(&self) -> ReadMode {
        self.source.mode()
    }

    /// Attach decode instrumentation (blocks-decoded counter + decode
    /// latency histogram). Call before the reader is shared; typically
    /// right after [`SegmentReader::open`].
    pub fn set_obs(&mut self, obs: ReaderObs) {
        self.obs = obs;
    }

    /// Where this segment lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total records across all blocks.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Total flagged records across all blocks (see
    /// [`crate::SegmentWriter::append_flagged`]).
    pub fn flagged_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.flagged_count).sum()
    }

    /// Flagged records in block `block`.
    pub fn block_flagged_count(&self, block: usize) -> u64 {
        self.blocks.get(block).map_or(0, |b| b.flagged_count)
    }

    /// Smallest key across all blocks (`None` for an empty segment).
    /// Footer-only: no block is decoded. On a sorted segment it is the
    /// first block's minimum; only an unsorted one needs every block's.
    pub fn min_key(&self) -> Option<&[u8]> {
        if self.is_sorted() {
            return self.blocks.first().map(|b| b.min_key.as_slice());
        }
        self.blocks.iter().map(|b| b.min_key.as_slice()).min()
    }

    /// Largest key across all blocks (`None` for an empty segment): the
    /// last block's maximum on a sorted segment.
    pub fn max_key(&self) -> Option<&[u8]> {
        if self.is_sorted() {
            return self.blocks.last().map(|b| b.max_key.as_slice());
        }
        self.blocks.iter().map(|b| b.max_key.as_slice()).max()
    }

    /// On-disk file size in bytes, captured when the segment was opened —
    /// so stat backfills never have to re-stat the file (a transient
    /// metadata error must not be silently recorded as a 0-byte segment).
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Total serialized (uncompressed) payload bytes across all blocks.
    pub fn raw_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.raw_len).sum()
    }

    /// Total compressed block bytes (excluding header/index).
    pub fn compressed_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.comp_len).sum()
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Name of the codec the segment was written with.
    pub fn codec_name(&self) -> &'static str {
        self.codec.name()
    }

    /// Whether the writer observed non-decreasing keys (enables [`Self::get`]).
    pub fn is_sorted(&self) -> bool {
        self.header.flags & FLAG_SORTED_KEYS != 0
    }

    /// Whether point lookups avoid whole-block decompression.
    pub fn is_per_record(&self) -> bool {
        self.codec.is_per_record()
    }

    /// Whether block `block`'s payload CRC has already been verified by a
    /// previous fetch through this reader.
    fn crc_already_verified(&self, block: usize) -> bool {
        self.verified[block / 64].load(Ordering::Relaxed) & (1u64 << (block % 64)) != 0
    }

    /// Fetch the compressed bytes of one block: borrowed from the mapping
    /// on the mmap backend (zero copy), copied into an owned buffer on
    /// pread. The payload CRC is verified on the **first** fetch of each
    /// block and skipped afterwards — sound because segment files are
    /// immutable once written (they are only ever unlinked, never
    /// modified), so a block that checked out once cannot change.
    pub fn block_bytes(&self, block: usize) -> Result<Cow<'_, [u8]>> {
        let meta = self
            .blocks
            .get(block)
            .ok_or_else(|| ArchiveError::Corrupt {
                context: format!("block {block} out of range ({} blocks)", self.blocks.len()),
            })?;
        let bytes = self
            .source
            .bytes_at(meta.file_offset, meta.comp_len as usize, "block")?;
        if let Cow::Owned(copied) = &bytes {
            self.obs.bytes_copied.add(copied.len() as u64);
        }
        if !self.crc_already_verified(block) {
            let computed = crc32(&bytes);
            if computed != meta.crc {
                return Err(ArchiveError::CrcMismatch {
                    what: "block",
                    index: block,
                    stored: meta.crc,
                    computed,
                });
            }
            self.verified[block / 64].fetch_or(1u64 << (block % 64), Ordering::Relaxed);
        }
        Ok(bytes)
    }

    /// The codec block `block` actually used: the segment codec, or the
    /// raw fallback stamped in its index entry.
    fn block_codec(&self, block: usize) -> Result<&BlockCodec> {
        let id = self.blocks[block].codec_id;
        if id == self.codec.id() {
            Ok(&self.codec)
        } else if id == crate::codec::codec_id::RAW {
            Ok(&self.raw_codec)
        } else {
            Err(ArchiveError::Corrupt {
                context: format!(
                    "block {block} claims codec id {id}, segment codec is {}",
                    self.codec.id()
                ),
            })
        }
    }

    /// Record count and serialized payload length the footer promises for
    /// `block`, as the sizes a decode is checked against.
    fn block_shape(&self, block: usize) -> Result<(usize, usize)> {
        let meta = &self.blocks[block];
        usize::try_from(meta.record_count)
            .ok()
            .zip(usize::try_from(meta.raw_len).ok())
            .ok_or_else(|| ArchiveError::Corrupt {
                context: format!("block {block} is larger than this platform can address"),
            })
    }

    /// Decode a whole block into one flat [`DecodedBlock`].
    pub fn read_block(&self, block: usize) -> Result<DecodedBlock> {
        let bytes = self.block_bytes(block)?;
        let (record_count, raw_len) = self.block_shape(block)?;
        let timer = self.obs.decode_ns.start_timer();
        let decoded = self
            .block_codec(block)?
            .decompress_block(&bytes, record_count, raw_len);
        timer.observe();
        self.obs.blocks_decoded.inc();
        decoded
    }

    /// Which block holds global record `ordinal` (binary search).
    fn block_of(&self, ordinal: u64) -> Result<usize> {
        if ordinal >= self.record_count {
            return Err(ArchiveError::RecordOutOfRange {
                index: ordinal,
                count: self.record_count,
            });
        }
        Ok(self.starts.partition_point(|&start| start <= ordinal) - 1)
    }

    /// Fetch the `(key, value)` entry with global ordinal `i`. O(log blocks)
    /// to locate, then a single-block decode (single-record for per-record
    /// codecs).
    pub fn get_entry(&self, i: u64) -> Result<Entry> {
        let block = self.block_of(i)?;
        let within = (i - self.starts[block]) as usize;
        let bytes = self.block_bytes(block)?;
        let (record_count, raw_len) = self.block_shape(block)?;
        self.block_codec(block)?
            .entry_at(&bytes, within, record_count, raw_len)
    }

    /// Fetch just the value bytes of record `i`.
    pub fn get_record(&self, i: u64) -> Result<Vec<u8>> {
        self.get_entry(i).map(|(_, value)| value)
    }

    /// The contiguous range of blocks whose `[min_key, max_key]` interval
    /// contains `key` — the blocks a point lookup must inspect. Requires a
    /// sorted segment. External block caches use this to fetch and cache
    /// exactly the blocks a `get` would touch.
    pub fn candidate_blocks_for_key(&self, key: &[u8]) -> Result<std::ops::Range<usize>> {
        self.candidate_blocks_for_range(key, Some(key))
    }

    /// The contiguous range of blocks whose `[min_key, max_key]` footer
    /// intervals intersect the closed key interval `[min, max]`
    /// (`max = None` means unbounded above) — one binary search per bound
    /// over the footer index, no block decoded. Requires a sorted segment.
    ///
    /// This is the single bounds helper behind both
    /// [`SegmentReader::candidate_blocks_for_key`] (a point lookup is the
    /// degenerate range `[key, key]`) and [`SegmentReader::scan_range`];
    /// external block caches use it to fetch exactly the blocks a bounded
    /// scan will touch.
    pub fn candidate_blocks_for_range(
        &self,
        min: &[u8],
        max: Option<&[u8]>,
    ) -> Result<std::ops::Range<usize>> {
        if !self.is_sorted() {
            return Err(ArchiveError::UnsortedKeys);
        }
        let lo = self
            .blocks
            .partition_point(|meta| meta.max_key.as_slice() < min);
        let hi = match max {
            Some(max) => self
                .blocks
                .partition_point(|meta| meta.min_key.as_slice() <= max),
            None => self.blocks.len(),
        };
        // An inverted interval (min > max) intersects nothing.
        Ok(lo..hi.max(lo))
    }

    /// Key lookup over a sorted segment: binary-search the block index by
    /// min/max key, then search inside the single candidate block. Returns
    /// the value of the **last** entry with the key (later appends win).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        // Candidate blocks form the contiguous range whose [min, max] key
        // interval contains the key; duplicates may straddle block borders,
        // so for last-wins semantics scan the range back to front.
        for block in self.candidate_blocks_for_key(key)?.rev() {
            let bytes = self.block_bytes(block)?;
            let (record_count, raw_len) = self.block_shape(block)?;
            let hit =
                self.block_codec(block)?
                    .find_by_key(&bytes, key, record_count, raw_len, true)?;
            if hit.is_some() {
                return Ok(hit);
            }
        }
        Ok(None)
    }

    /// Iterate every entry in storage order, decoding blocks lazily.
    pub fn scan(&self) -> Scan<'_> {
        Scan {
            fetch: Box::new(|block| self.read_block(block).map(Arc::new)),
            blocks: 0..self.blocks.len(),
            start: Vec::new(),
            end: None,
            decoded: None,
            next: 0,
        }
    }

    /// Stream the entries of a **sorted** segment whose keys fall in the
    /// closed interval `[start, end]` (`end = None` means unbounded
    /// above), in key order.
    ///
    /// The scan seeks via the footer index
    /// ([`SegmentReader::candidate_blocks_for_range`]): only blocks whose
    /// `[min_key, max_key]` interval intersects the requested range are
    /// ever decoded, one block at a time — a narrow range over a large
    /// segment touches one or two blocks, never the whole file. Within the
    /// first candidate block the lower bound is located by binary search;
    /// the scan ends as soon as a key passes `end`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pbc_archive::{SegmentConfig, SegmentReader, SegmentWriter};
    ///
    /// let path = std::env::temp_dir().join(format!("pbc-scan-doc-{}.seg", std::process::id()));
    /// let mut writer = SegmentWriter::create(&path, SegmentConfig::default()).unwrap();
    /// for i in 0..1_000u32 {
    ///     writer
    ///         .append(format!("k:{i:05}").as_bytes(), format!("value-{i}").as_bytes())
    ///         .unwrap();
    /// }
    /// writer.finish().unwrap();
    ///
    /// let reader = SegmentReader::open(&path).unwrap();
    /// // A bounded scan yields exactly the keys inside [start, end], in order.
    /// let rows: Vec<_> = reader
    ///     .scan_range(b"k:00100", Some(b"k:00104"))
    ///     .unwrap()
    ///     .map(|entry| entry.unwrap())
    ///     .collect();
    /// assert_eq!(rows.len(), 5);
    /// assert_eq!(rows[0].0, b"k:00100".to_vec());
    /// assert_eq!(rows[4].1, b"value-104".to_vec());
    /// // An unbounded tail: everything from the start key on.
    /// assert_eq!(reader.scan_range(b"k:00990", None).unwrap().count(), 10);
    /// std::fs::remove_file(&path).unwrap();
    /// ```
    pub fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<RangeScan<'_>> {
        self.scan_range_with(start, end, |block| self.read_block(block).map(Arc::new))
    }

    /// [`SegmentReader::scan_range`] with the blocks supplied by `fetch`
    /// instead of decoded from the file: `fetch(b)` must return this
    /// segment's block `b` decoded, typically from a block cache that
    /// falls back to [`SegmentReader::read_block`]. The footer index still
    /// picks the candidate blocks, and each is fetched once, in order.
    ///
    /// The scan borrows nothing from `self`; whatever `fetch` captures is
    /// what it keeps alive.
    pub fn scan_range_with<'f>(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        fetch: impl FnMut(usize) -> Result<Arc<DecodedBlock>> + Send + 'f,
    ) -> Result<Scan<'f>> {
        Ok(Scan {
            fetch: Box::new(fetch),
            blocks: self.candidate_blocks_for_range(start, end)?,
            start: start.to_vec(),
            end: end.map(|e| e.to_vec()),
            decoded: None,
            next: 0,
        })
    }
}

/// Streaming cursor over a segment's entries — all of them in storage
/// order ([`SegmentReader::scan`]), or, on a sorted segment, those inside a
/// key interval ([`SegmentReader::scan_range`]: only the candidate blocks
/// the footer index selected are fetched, and the scan stops at the upper
/// bound). One block is held at a time, as a shared flat [`DecodedBlock`]
/// decoded from the file or supplied by the caller
/// ([`SegmentReader::scan_range_with`]).
///
/// Use it as an [`Iterator`] for owned rows, or step it with
/// [`Scan::advance`] and borrow each row with [`Scan::current`] — a merge
/// that drops most rows then copies only the ones it keeps.
pub struct Scan<'a> {
    /// Where decoded blocks come from, by block index.
    fetch: Box<dyn FnMut(usize) -> Result<Arc<DecodedBlock>> + Send + 'a>,
    /// Candidate blocks not yet fetched.
    blocks: std::ops::Range<usize>,
    /// Inclusive lower key bound, applied inside the first fetched block
    /// (empty for a full scan, where it skips nothing).
    start: Vec<u8>,
    /// Inclusive upper key bound; `None` = unbounded above.
    end: Option<Vec<u8>>,
    /// The block being drained.
    decoded: Option<Arc<DecodedBlock>>,
    /// One past the current record in `decoded` (0 = not yet on a record).
    next: usize,
}

/// A [`Scan`] bounded to a key interval; see [`SegmentReader::scan_range`].
pub type RangeScan<'a> = Scan<'a>;

impl Scan<'_> {
    /// Step onto the next entry, fetching the next block when the current
    /// one is drained. `Ok(false)` once the scan is over (past the last
    /// block or the upper bound); after an error the scan stays over.
    pub fn advance(&mut self) -> Result<bool> {
        loop {
            if let Some(decoded) = self.decoded.as_ref().filter(|d| self.next < d.len()) {
                let beyond = self
                    .end
                    .as_deref()
                    .is_some_and(|end| decoded.key(self.next) > end);
                if !beyond {
                    self.next += 1;
                    return Ok(true);
                }
                // Keys are sorted: nothing further can qualify.
                self.blocks = 0..0;
            }
            // Drained (or cut off): let the block go before the next fetch.
            self.decoded = None;
            self.next = 0;
            let Some(block) = self.blocks.next() else {
                return Ok(false);
            };
            let decoded = (self.fetch)(block).inspect_err(|_| self.blocks = 0..0)?;
            // Only the first candidate block can hold keys below the lower
            // bound; for later blocks this skip is 0.
            self.next = decoded.lower_bound(&self.start);
            self.decoded = Some(decoded);
        }
    }

    /// The entry the last [`Scan::advance`] stepped onto, borrowed from
    /// the decoded block (`None` before the first step and once over).
    pub fn current(&self) -> Option<(&[u8], &[u8])> {
        let i = self.next.checked_sub(1)?;
        let decoded = self.decoded.as_ref()?;
        Some((decoded.key(i), decoded.value(i)))
    }
}

impl Iterator for Scan<'_> {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.advance() {
            Ok(true) => self
                .current()
                .map(|(key, value)| Ok((key.to_vec(), value.to_vec()))),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}
