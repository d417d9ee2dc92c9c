//! Zstandard-like codec: LZ77 parse with a large window followed by a
//! canonical-Huffman entropy stage over separated literal and sequence
//! streams, with compression levels and offline dictionary training.
//!
//! This stands in for Zstd in the paper's evaluation: RocksDB's and
//! TierBase's block compressor, "the best trade-off between compression
//! ratio and efficiency for database systems", and the paper's strongest
//! general-purpose dictionary-mode baseline for short records
//! (`Zstd(dict)` in Table 3).
//!
//! ## Format
//!
//! ```text
//! varint  raw_len
//! varint  token_count
//! block   literals   (entropy-coded or raw, see `write_block`)
//! block   sequences  (varint triples lit_len/offset/match_len, entropy-coded or raw)
//! ```
//!
//! Each block starts with a flag byte (0 = raw, 1 = Huffman) and a varint
//! payload length, mirroring Zstd's per-block entropy mode selection.
//!
//! ## Decode kernel
//!
//! Every cold point read of a `Zstd(dict)` segment decodes one whole block
//! here, so the decoder is built for block-sized streams:
//!
//! * when both streams are Huffman-coded they decode together in one loop
//!   (`huffman::Decoder::decompress_pair_into`), so the two per-symbol
//!   table-load chains overlap; a raw stream is borrowed from the input;
//! * the sequences are parsed and checked to produce exactly `raw_len`
//!   bytes from the literals available before the output is touched;
//! * execution then grows the output once, by `raw_len` plus 16 bytes of
//!   slack, and copies literal runs and matches at least 16 bytes back in
//!   16-byte chunks ("wild copies"); overlapping matches and dictionary
//!   copies without room copy exactly.

use crate::error::{CodecError, Result};
use crate::huffman;
use crate::lz77::{MatchFinder, MatchFinderConfig, MIN_MATCH};
use crate::traits::{Codec, DictCodec};
use crate::varint;

/// Zstd-like compressor with a level knob (1 = fastest, 19 = strongest).
#[derive(Debug, Clone)]
pub struct ZstdLike {
    level: i32,
    config: MatchFinderConfig,
}

impl Default for ZstdLike {
    fn default() -> Self {
        Self::new(3)
    }
}

impl ZstdLike {
    /// Create a codec at the given compression level (clamped to 1..=19).
    /// Level 3 mirrors Zstd's default.
    pub fn new(level: i32) -> Self {
        let level = level.clamp(1, 19);
        let config = match level {
            1..=2 => MatchFinderConfig::fast(),
            3..=9 => {
                let mut c = MatchFinderConfig::balanced();
                c.max_chain = 32 * level as usize;
                c
            }
            _ => {
                let mut c = MatchFinderConfig::thorough();
                c.max_chain = 64 * level as usize;
                c
            }
        };
        ZstdLike { level, config }
    }

    /// The configured compression level.
    pub fn level(&self) -> i32 {
        self.level
    }

    fn compress_internal(&self, input: &[u8], dict: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 3 + 32);
        varint::write_usize(&mut out, input.len());
        if input.is_empty() {
            return out;
        }
        let mut data = Vec::with_capacity(dict.len() + input.len());
        data.extend_from_slice(dict);
        data.extend_from_slice(input);
        let mut finder = MatchFinder::new(&data, dict.len(), self.config);
        let tokens = finder.parse();
        varint::write_usize(&mut out, tokens.len());

        // Stream separation: literals in one buffer, sequence triples in another.
        let mut literals = Vec::new();
        let mut sequences = Vec::new();
        for t in &tokens {
            literals.extend_from_slice(&data[t.literal_start..t.literal_start + t.literal_len]);
            varint::write_usize(&mut sequences, t.literal_len);
            match t.match_ {
                Some(m) => {
                    varint::write_usize(&mut sequences, m.offset);
                    varint::write_usize(&mut sequences, m.len - MIN_MATCH);
                }
                None => {
                    // Terminal token: offset 0 marks "no match".
                    varint::write_usize(&mut sequences, 0);
                }
            }
        }
        write_block(&mut out, &literals);
        write_block(&mut out, &sequences);
        out
    }

    /// Decompress a stream produced with `dict`, appending the decoded
    /// bytes to `out` — the caller's buffer is the only allocation (the
    /// literal/sequence scratch and the Huffman tables are reused per
    /// thread). Back-references into the dictionary are resolved against
    /// the `dict` slice itself; nothing is copied in front of the output.
    ///
    /// A stream declaring more than `max_len` decoded bytes is refused with
    /// [`CodecError::SizeLimitExceeded`], and whatever it declares must
    /// equal what its sequences add up to *before* `out` is sized from it,
    /// so a corrupt length cannot request an allocation the stream does not
    /// back. On error `out` is left as it was.
    pub fn decompress_with_dict_into(
        &self,
        input: &[u8],
        dict: &[u8],
        max_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let (raw_len, pos) = varint::read_usize(input, 0)?;
        if raw_len > max_len {
            return Err(CodecError::SizeLimitExceeded {
                declared: raw_len,
                limit: max_len,
            });
        }
        if raw_len == 0 {
            return Ok(());
        }
        SCRATCH.with_borrow_mut(|scratch| {
            let Scratch {
                literals,
                sequences,
                seqs,
                huffman,
            } = scratch;
            let (token_count, pos) = varint::read_usize(input, pos)?;
            let (literal_block, pos) = read_block(input, pos)?;
            let (sequence_block, _pos) = read_block(input, pos)?;
            literals.clear();
            sequences.clear();
            match (literal_block, sequence_block) {
                (Block::Huffman(l), Block::Huffman(s)) => {
                    huffman.decompress_pair_into([l, s], [literals, sequences])?;
                }
                (l, s) => {
                    for (block, scratch) in [(l, &mut *literals), (s, &mut *sequences)] {
                        if let Block::Huffman(payload) = block {
                            huffman.decompress_into(payload, scratch)?;
                        }
                    }
                }
            }
            let sequences = sequence_block.bytes(sequences);
            let literal_len = literal_block.bytes(literals).len();
            parse_sequences(sequences, token_count, literal_len, raw_len, seqs)?;
            // Decoded literals get `WILD` bytes of padding, so every literal
            // run can be copied in whole chunks.
            if let Block::Huffman(_) = literal_block {
                literals.resize(literal_len + WILD, 0);
            }
            let executed =
                execute_sequences(seqs, literal_block.bytes(literals), dict, raw_len, out);
            scratch.release_oversized();
            executed
        })
    }
}

/// One parsed sequence: a literal run, then a match (`offset == 0` marks
/// the terminal token, which has none).
struct Seq {
    lit_len: u32,
    offset: u32,
    match_len: u32,
}

/// Per-thread decode scratch: the entropy-decoded literal and sequence
/// streams, the parsed sequences, and the Huffman decode tables. Decoding
/// a block allocates none of these afresh.
#[derive(Default)]
struct Scratch {
    literals: Vec<u8>,
    sequences: Vec<u8>,
    seqs: Vec<Seq>,
    huffman: huffman::Decoder,
}

impl Scratch {
    /// Most scratch bytes a thread keeps between calls: plenty for block-
    /// sized streams, while one whole-file decode does not pin its
    /// high-water mark for the life of the thread.
    const RETAINED_BYTES: usize = 1 << 20;

    fn release_oversized(&mut self) {
        if self.literals.capacity() > Self::RETAINED_BYTES {
            self.literals = Vec::new();
        }
        if self.sequences.capacity() > Self::RETAINED_BYTES {
            self.sequences = Vec::new();
        }
        if self.seqs.capacity() * std::mem::size_of::<Seq>() > Self::RETAINED_BYTES {
            self.seqs = Vec::new();
        }
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
}

/// Parse the varint triples of `sequences` into `seqs` and check that they
/// produce exactly `raw_len` bytes from exactly the literals available.
fn parse_sequences(
    sequences: &[u8],
    token_count: usize,
    literal_len: usize,
    raw_len: usize,
    seqs: &mut Vec<Seq>,
) -> Result<()> {
    let narrow =
        |v: usize| u32::try_from(v).map_err(|_| CodecError::corrupt("zstd length overflow"));
    seqs.clear();
    let mut pos = 0usize;
    let mut lit_total = 0usize;
    let mut total = 0usize;
    // `token_count` is untrusted: every token consumes sequence bytes, so
    // the loop ends with the stream, and nothing is reserved from the count.
    for i in 0..token_count {
        let (lit_len, p) = read_len(sequences, pos)?;
        let (offset, p) = read_len(sequences, p)?;
        pos = p;
        lit_total = lit_total.saturating_add(lit_len);
        let mut seq = Seq {
            lit_len: narrow(lit_len)?,
            offset: narrow(offset)?,
            match_len: 0,
        };
        if offset == 0 {
            // Terminal token; must be the last one.
            if i + 1 != token_count {
                return Err(CodecError::corrupt("zstd terminal token before end"));
            }
        } else {
            let (len_code, p) = read_len(sequences, pos)?;
            pos = p;
            seq.match_len = narrow(len_code.saturating_add(MIN_MATCH))?;
        }
        total = total
            .saturating_add(lit_len)
            .saturating_add(seq.match_len as usize);
        seqs.push(seq);
    }
    if lit_total > literal_len {
        return Err(CodecError::UnexpectedEof {
            context: "zstd literal stream",
        });
    }
    if total != raw_len {
        return Err(CodecError::corrupt(format!(
            "zstd stream produces {total} bytes, expected {raw_len}"
        )));
    }
    Ok(())
}

/// A sequence-stream varint, with the single-byte case (nearly every
/// length and offset of a block) inline.
#[inline(always)]
fn read_len(sequences: &[u8], pos: usize) -> Result<(usize, usize)> {
    match sequences.get(pos) {
        Some(&byte) if byte < 0x80 => Ok((usize::from(byte), pos + 1)),
        _ => varint::read_usize(sequences, pos),
    }
}

/// Chunk size of the wild copies in [`execute_sequences`], and the slack
/// they need past the end of what they copy.
const WILD: usize = 16;

/// Run parsed sequences, appending exactly `raw_len` bytes to `out` (on
/// error `out` is left as it was). A match reaching back past the start of
/// this stream's output reads the tail of `dict`. [`parse_sequences`]
/// already proved the sequences produce `raw_len` bytes from the literals
/// available, so `out` grows once, by `raw_len` plus [`WILD`] bytes of
/// slack, and literal runs and matches at least [`WILD`] bytes back copy
/// in whole [`WILD`]-byte chunks that may overrun into bytes the next
/// sequence (or the final truncation) overwrites. `literals` may carry
/// padding past the literal stream; runs too close to its end, dictionary
/// copies without room, and overlapping matches copy exactly.
fn execute_sequences(
    seqs: &[Seq],
    literals: &[u8],
    dict: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
) -> Result<()> {
    let base = out.len();
    out.resize(base + raw_len + WILD, 0);
    let executed = execute_into(seqs, literals, dict, &mut out[base..]);
    out.truncate(if executed.is_ok() {
        base + raw_len
    } else {
        base
    });
    executed
}

/// [`execute_sequences`] over the stream's own output, `raw_len` bytes
/// plus [`WILD`] of slack.
fn execute_into(seqs: &[Seq], literals: &[u8], dict: &[u8], buf: &mut [u8]) -> Result<()> {
    let mut lit_pos = 0usize;
    let mut op = 0usize;
    for seq in seqs {
        let lit_len = seq.lit_len as usize;
        if lit_pos + lit_len + WILD <= literals.len() {
            wild_copy(&literals[lit_pos..], &mut buf[op..], lit_len);
        } else {
            buf[op..op + lit_len].copy_from_slice(&literals[lit_pos..lit_pos + lit_len]);
        }
        lit_pos += lit_len;
        op += lit_len;
        if seq.offset == 0 {
            break;
        }
        let offset = seq.offset as usize;
        let mut remaining = seq.match_len as usize;
        if offset > op {
            // The match starts in the dictionary (and may run on into the
            // output, which then continues `offset` bytes back as usual).
            let back = offset - op;
            let start = dict
                .len()
                .checked_sub(back)
                .ok_or(CodecError::InvalidOffset {
                    offset,
                    position: dict.len() + op,
                })?;
            let n = remaining.min(back);
            if n + WILD <= back {
                wild_copy(&dict[start..], &mut buf[op..], n);
            } else {
                buf[op..op + n].copy_from_slice(&dict[start..start + n]);
            }
            op += n;
            remaining -= n;
            if remaining == 0 {
                continue;
            }
        }
        if offset >= WILD {
            // Each chunk reads bytes at least `WILD` behind the one it
            // writes, all of them already final.
            let mut from = op - offset;
            let end = op + remaining;
            while op < end {
                buf.copy_within(from..from + WILD, op);
                from += WILD;
                op += WILD;
            }
            op = end;
        } else {
            // Overlapping run (offset < length): each pass doubles the
            // repeated run.
            let start = op - offset;
            while remaining > 0 {
                let n = remaining.min(op - start);
                buf.copy_within(start..start + n, op);
                op += n;
                remaining -= n;
            }
        }
    }
    Ok(())
}

/// Copy `len` bytes of `src` to `dst` in whole [`WILD`]-byte chunks: up to
/// `WILD - 1` bytes past `len` are read and written too.
#[inline(always)]
fn wild_copy(src: &[u8], dst: &mut [u8], len: usize) {
    let mut at = 0;
    while at < len {
        dst[at..at + WILD].copy_from_slice(&src[at..at + WILD]);
        at += WILD;
    }
}

/// Write an entropy-coded block: pick raw or Huffman, whichever is smaller.
fn write_block(out: &mut Vec<u8>, payload: &[u8]) {
    let encoded = huffman::compress(payload);
    if encoded.len() < payload.len() {
        out.push(1);
        varint::write_usize(out, encoded.len());
        out.extend_from_slice(&encoded);
    } else {
        out.push(0);
        varint::write_usize(out, payload.len());
        out.extend_from_slice(payload);
    }
}

/// A block written by [`write_block`]: a raw payload, or an entropy-coded
/// one still to be decoded.
#[derive(Clone, Copy)]
enum Block<'a> {
    Raw(&'a [u8]),
    Huffman(&'a [u8]),
}

impl<'a> Block<'a> {
    /// The block's bytes: a raw payload borrowed from the input, or
    /// `decoded` — where an entropy-coded payload was decoded to.
    fn bytes(self, decoded: &'a [u8]) -> &'a [u8] {
        match self {
            Block::Raw(payload) => payload,
            Block::Huffman(_) => decoded,
        }
    }
}

/// Read the framing of a block written by [`write_block`].
fn read_block(input: &[u8], pos: usize) -> Result<(Block<'_>, usize)> {
    let flag = *input.get(pos).ok_or(CodecError::UnexpectedEof {
        context: "zstd block flag",
    })?;
    let (len, pos) = varint::read_usize(input, pos + 1)?;
    let end = pos
        .checked_add(len)
        .filter(|&end| end <= input.len())
        .ok_or(CodecError::UnexpectedEof {
            context: "zstd block payload",
        })?;
    let payload = &input[pos..end];
    let block = match flag {
        0 => Block::Raw(payload),
        1 => Block::Huffman(payload),
        _ => return Err(CodecError::corrupt("unknown zstd block flag")),
    };
    Ok((block, end))
}

impl Codec for ZstdLike {
    fn name(&self) -> &str {
        "Zstd-like"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        self.compress_internal(input, &[])
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.decompress_with_dict(input, &[])
    }
}

impl DictCodec for ZstdLike {
    fn compress_with_dict(&self, input: &[u8], dict: &[u8]) -> Vec<u8> {
        self.compress_internal(input, dict)
    }

    fn decompress_with_dict(&self, input: &[u8], dict: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.decompress_with_dict_into(input, dict, usize::MAX, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: &ZstdLike, data: &[u8]) {
        let compressed = codec.compress(data);
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_across_levels() {
        let data = b"INFO 2023-05-01 connection from 10.0.0.1 established; session=42\n".repeat(64);
        for level in [1, 3, 9, 19] {
            roundtrip(&ZstdLike::new(level), &data);
        }
    }

    #[test]
    fn level_is_clamped() {
        assert_eq!(ZstdLike::new(0).level(), 1);
        assert_eq!(ZstdLike::new(100).level(), 19);
        assert_eq!(ZstdLike::new(5).level(), 5);
    }

    #[test]
    fn higher_levels_do_not_compress_worse_on_redundant_data() {
        let mut data = Vec::new();
        for i in 0..400 {
            data.extend_from_slice(
                format!(
                    "user_id={} action=click page=/home/section/{} ts=16395{:05}\n",
                    10_000 + i,
                    i % 7,
                    i * 13
                )
                .as_bytes(),
            );
        }
        let fast = ZstdLike::new(1).compress(&data).len();
        let strong = ZstdLike::new(19).compress(&data).len();
        assert!(
            strong <= fast,
            "level 19 ({strong}) should be <= level 1 ({fast})"
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let codec = ZstdLike::default();
        roundtrip(&codec, b"");
        roundtrip(&codec, b"a");
        roundtrip(&codec, b"ab");
        roundtrip(&codec, b"zstd");
    }

    #[test]
    fn entropy_stage_beats_plain_lz_on_text() {
        // Text with skewed byte distribution but few long repeats: the
        // Huffman stage should push the ratio below plain LZ4-like.
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(format!("{:08}", i * 7919 % 10_000_000).as_bytes());
        }
        let zstd = ZstdLike::new(3).compress(&data).len();
        let lz4 = crate::lz4like::Lz4Like::new().compress(&data).len();
        assert!(
            zstd < lz4,
            "zstd-like ({zstd}) should beat lz4-like ({lz4}) on digit soup"
        );
    }

    #[test]
    fn dictionary_mode_roundtrips_and_helps_short_records() {
        let codec = ZstdLike::new(3);
        let dict =
            b"{\"event\":\"page_view\",\"user\":\"\",\"url\":\"https://example.com/\",\"ms\":}"
                .to_vec();
        let record =
            b"{\"event\":\"page_view\",\"user\":\"u_8842\",\"url\":\"https://example.com/checkout\",\"ms\":132}";
        let plain = codec.compress(record);
        let with_dict = codec.compress_with_dict(record, &dict);
        assert!(with_dict.len() < plain.len());
        assert_eq!(
            codec.decompress_with_dict(&with_dict, &dict).unwrap(),
            record
        );
    }

    #[test]
    fn decode_into_appends_and_resolves_matches_that_start_in_the_dictionary() {
        let codec = ZstdLike::new(3);
        let dict = b"status=active;region=eu-west-1;".to_vec();
        // The input repeats the dictionary twice over: its first match
        // starts in the dictionary and runs on into the output itself.
        let record = [dict.as_slice(), dict.as_slice(), b"tail"].concat();
        let compressed = codec.compress_with_dict(&record, &dict);
        assert!(compressed.len() < record.len() / 2);
        let mut out = b"already here".to_vec();
        codec
            .decompress_with_dict_into(&compressed, &dict, record.len(), &mut out)
            .unwrap();
        assert_eq!(out, [b"already here".as_slice(), &record].concat());
        // Runs of every period around the wild-copy chunk: overlapping
        // (offset < length) and not, without a dictionary.
        for period in 1..=40u8 {
            for len in [7, 100, 1000] {
                let run: Vec<u8> = (0..period).cycle().take(len).collect();
                let mut out = vec![0xEE; 3];
                codec
                    .decompress_with_dict_into(&codec.compress(&run), &[], usize::MAX, &mut out)
                    .unwrap();
                assert_eq!(&out[3..], run, "period {period}, length {len}");
            }
        }
        // Matches that start in the dictionary and end anywhere in or
        // just past it, of lengths around the wild-copy chunk.
        let dict: Vec<u8> = (0..64u8).map(|i| b'A' + i % 58).collect();
        for start in 0..dict.len() - 4 {
            for len in [4, 15, 16, 17, 31, 33] {
                let end = (start + len).min(dict.len());
                let record = [&dict[start..end], b"|tail|".as_slice(), &dict[start..end]].concat();
                let compressed = codec.compress_with_dict(&record, &dict);
                assert_eq!(
                    codec.decompress_with_dict(&compressed, &dict).unwrap(),
                    record,
                    "dictionary match at {start}, length {len}"
                );
            }
        }
    }

    #[test]
    fn declared_length_is_checked_before_anything_is_sized_from_it() {
        let codec = ZstdLike::new(3);
        let data = b"key=value;".repeat(40);
        let good = codec.compress(&data);
        let mut out = b"kept".to_vec();
        assert!(matches!(
            codec.decompress_with_dict_into(&good, &[], data.len() - 1, &mut out),
            Err(CodecError::SizeLimitExceeded { declared, limit })
                if declared == data.len() && limit == data.len() - 1
        ));
        // A stream claiming 2^40 bytes it cannot produce is corrupt, not a
        // terabyte allocation. (`data.len()` = 400 encodes as two varint
        // bytes, which the forged length replaces.)
        let mut forged = Vec::new();
        varint::write_usize(&mut forged, 1 << 40);
        forged.extend_from_slice(&good[2..]);
        assert!(matches!(
            codec.decompress_with_dict_into(&forged, &[], usize::MAX, &mut out),
            Err(CodecError::Corrupt { .. })
        ));
        assert_eq!(out, b"kept", "a failed decode leaves the buffer alone");
    }

    #[test]
    fn corrupt_input_is_rejected() {
        let codec = ZstdLike::default();
        let data = b"hello hello hello hello hello hello".repeat(8);
        let mut compressed = codec.compress(&data);
        compressed.truncate(compressed.len() / 2);
        assert!(codec.decompress(&compressed).is_err());
        assert!(codec.decompress(&[7, 9, 200, 200, 200]).is_err());
    }

    #[test]
    fn block_mode_selection_handles_incompressible_blocks() {
        // Random bytes: Huffman should be skipped (raw flag), total expansion small.
        let mut state = 1u64;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                (state >> 56) as u8
            })
            .collect();
        let codec = ZstdLike::new(3);
        let compressed = codec.compress(&data);
        assert!(compressed.len() < data.len() + data.len() / 16 + 64);
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }
}
