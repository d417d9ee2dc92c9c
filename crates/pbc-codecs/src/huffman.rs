//! Canonical Huffman coding over byte alphabets.
//!
//! This is the entropy stage of the [`crate::zstdlike`] codec (standing in
//! for Zstd's FSE/Huffman stage) and is also exposed directly so that PBC's
//! optional residual-subsequence entropy encoding (Section 5.2, option 1 of
//! the paper) can reuse it.
//!
//! The encoder limits code lengths to [`MAX_CODE_LEN`] bits. The decoder
//! builds one lookup table per stream, sized to that stream's longest code
//! (capped at [`DEFAULT_DECODE_BITS`]), and escapes longer codes to a
//! canonical per-length search.

use crate::bitstream::BitWriter;
use crate::error::{CodecError, Result};
use crate::varint;

/// Maximum code length in bits. 15 keeps the decode table at 32K entries.
pub const MAX_CODE_LEN: u8 = 15;

/// Number of symbols in the byte alphabet.
const ALPHABET: usize = 256;

/// A canonical Huffman code book: one code length and code value per symbol.
#[derive(Debug, Clone)]
pub struct HuffmanTable {
    /// Code length in bits per symbol; 0 means the symbol does not occur.
    lengths: [u8; ALPHABET],
    /// Canonical code value per symbol (valid when length > 0).
    codes: [u16; ALPHABET],
}

impl HuffmanTable {
    /// Build a length-limited canonical Huffman table from symbol
    /// frequencies.
    ///
    /// Frequencies of zero produce no code. If only one distinct symbol
    /// occurs it is assigned a 1-bit code so the format stays decodable.
    pub fn from_frequencies(freqs: &[u64; ALPHABET]) -> Self {
        let lengths = build_code_lengths(freqs);
        let codes = canonical_codes(&lengths);
        HuffmanTable { lengths, codes }
    }

    /// Reconstruct a table from the per-symbol code lengths alone
    /// (canonical codes are fully determined by the lengths).
    pub fn from_lengths(lengths: [u8; ALPHABET]) -> Result<Self> {
        validate_lengths(&lengths)?;
        let codes = canonical_codes(&lengths);
        Ok(HuffmanTable { lengths, codes })
    }

    /// Code length of `symbol` in bits (0 if the symbol has no code).
    pub fn length(&self, symbol: u8) -> u8 {
        self.lengths[symbol as usize]
    }

    /// Total encoded size in bits for the given frequencies under this table.
    pub fn encoded_bits(&self, freqs: &[u64; ALPHABET]) -> u64 {
        freqs
            .iter()
            .zip(self.lengths.iter())
            .map(|(&f, &l)| f * u64::from(l))
            .sum()
    }

    /// Serialize the code lengths (4 bits per symbol, 128 bytes).
    fn write_lengths(&self, out: &mut Vec<u8>) {
        let mut w = BitWriter::with_capacity(ALPHABET / 2);
        for &l in &self.lengths {
            w.write_bits(u64::from(l), 4);
        }
        out.extend_from_slice(&w.finish());
    }
}

/// Deserialize (and validate) the code lengths written by
/// [`HuffmanTable::write_lengths`]: two 4-bit lengths per byte, first
/// symbol in the high nibble.
fn read_lengths(input: &[u8], pos: usize) -> Result<([u8; ALPHABET], usize)> {
    let end = pos + ALPHABET / 2;
    let packed = input.get(pos..end).ok_or(CodecError::UnexpectedEof {
        context: "huffman code lengths",
    })?;
    let mut lengths = [0u8; ALPHABET];
    for (pair, &byte) in lengths.chunks_exact_mut(2).zip(packed) {
        pair[0] = byte >> 4;
        pair[1] = byte & 0x0f;
    }
    validate_lengths(&lengths)?;
    Ok((lengths, end))
}

/// Validate that non-zero code lengths satisfy the Kraft inequality (i.e.
/// they describe a prefix-free code) and never exceed [`MAX_CODE_LEN`].
fn validate_lengths(lengths: &[u8; ALPHABET]) -> Result<()> {
    let mut kraft: u64 = 0;
    let unit = 1u64 << MAX_CODE_LEN;
    for &l in lengths {
        if l > MAX_CODE_LEN {
            return Err(CodecError::corrupt("huffman code length exceeds maximum"));
        }
        if l > 0 {
            kraft += unit >> l;
        }
    }
    if kraft > unit {
        return Err(CodecError::corrupt(
            "huffman code lengths violate Kraft inequality",
        ));
    }
    Ok(())
}

/// Heap-based Huffman construction followed by a length-limiting pass.
fn build_code_lengths(freqs: &[u64; ALPHABET]) -> [u8; ALPHABET] {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut lengths = [0u8; ALPHABET];
    let present: Vec<usize> = (0..ALPHABET).filter(|&s| freqs[s] > 0).collect();
    match present.len() {
        0 => return lengths,
        1 => {
            lengths[present[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Node arena: leaves first, then internal nodes.
    #[derive(Clone, Copy)]
    struct Node {
        left: usize,
        right: usize,
        symbol: usize,
    }
    let mut nodes: Vec<Node> = Vec::with_capacity(present.len() * 2);
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for &s in &present {
        nodes.push(Node {
            left: usize::MAX,
            right: usize::MAX,
            symbol: s,
        });
        heap.push(Reverse((freqs[s], nodes.len() - 1)));
    }
    while heap.len() > 1 {
        // pbc-allow(panic): loop guard: heap.len() > 1
        let Reverse((fa, a)) = heap.pop().expect("heap has two items");
        // pbc-allow(panic): loop guard: heap.len() > 1
        let Reverse((fb, b)) = heap.pop().expect("heap has two items");
        nodes.push(Node {
            left: a,
            right: b,
            symbol: usize::MAX,
        });
        heap.push(Reverse((fa + fb, nodes.len() - 1)));
    }
    // pbc-allow(panic): the merge loop leaves exactly the root in the heap
    let root = heap.pop().expect("root").0 .1;

    // Iterative depth-first traversal to assign depths.
    let mut stack = vec![(root, 0u8)];
    while let Some((idx, depth)) = stack.pop() {
        let node = nodes[idx];
        if node.symbol != usize::MAX {
            lengths[node.symbol] = depth.max(1);
        } else {
            stack.push((node.left, depth + 1));
            stack.push((node.right, depth + 1));
        }
    }

    limit_lengths(&mut lengths);
    lengths
}

/// Clamp code lengths to [`MAX_CODE_LEN`] while keeping the code prefix-free,
/// using the classic "overflow repair" on the Kraft sum.
fn limit_lengths(lengths: &mut [u8; ALPHABET]) {
    let unit = 1u64 << MAX_CODE_LEN;
    let mut overflow = false;
    for l in lengths.iter_mut() {
        if *l > MAX_CODE_LEN {
            *l = MAX_CODE_LEN;
            overflow = true;
        }
    }
    if !overflow {
        return;
    }
    // Compute Kraft sum in units of 2^-MAX_CODE_LEN.
    let kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
    let mut excess = kraft.saturating_sub(unit);
    // Lengthen the shortest over-short codes until the Kraft inequality holds.
    while excess > 0 {
        // Find a symbol whose code can be lengthened (length < MAX) with the
        // largest Kraft contribution reduction.
        let candidate = (0..ALPHABET)
            .filter(|&s| lengths[s] > 0 && lengths[s] < MAX_CODE_LEN)
            .min_by_key(|&s| lengths[s]);
        match candidate {
            Some(s) => {
                let before = unit >> lengths[s];
                lengths[s] += 1;
                let after = unit >> lengths[s];
                excess = excess.saturating_sub(before - after);
            }
            None => break,
        }
    }
}

/// Assign canonical code values: shorter codes first, ties broken by symbol.
fn canonical_codes(lengths: &[u8; ALPHABET]) -> [u16; ALPHABET] {
    let mut codes = [0u16; ALPHABET];
    let mut symbols: Vec<usize> = (0..ALPHABET).filter(|&s| lengths[s] > 0).collect();
    symbols.sort_by_key(|&s| (lengths[s], s));
    let mut code: u32 = 0;
    let mut prev_len = 0u8;
    for &s in &symbols {
        let len = lengths[s];
        code <<= len - prev_len;
        codes[s] = code as u16;
        code += 1;
        prev_len = len;
    }
    codes
}

/// Most first-level table bits a decoder uses: each stream's table has
/// `min(longest code, 11)` bits, so streams whose codes all fit (every
/// block the store writes) resolve each symbol in one probe, and the
/// largest table is 2 Ki entries (4 KiB, L1-resident). Longer codes take a
/// canonical per-length slow path.
pub const DEFAULT_DECODE_BITS: u8 = 11;

/// Entries of the largest first-level table.
const TABLE_LEN: usize = 1 << DEFAULT_DECODE_BITS;

/// Bits every word refill leaves buffered (see [`FastBits::refill_word`]).
const REFILL_BITS: u32 = 56;

/// Two-level decode structure for the table-driven fast path: a
/// `2^bits`-entry first-level table resolves every code of ≤ `bits` bits in
/// one lookup; rarer longer codes escape to a canonical per-length search.
/// Rebuilt in place for each stream, so a reused table costs no allocation.
struct FastDecodeTable {
    /// First-level table size in bits: the stream's longest code, capped at
    /// [`DEFAULT_DECODE_BITS`] (at least 1).
    bits: u8,
    /// Symbols every word refill decodes: [`REFILL_BITS`] / longest code.
    per_refill: usize,
    /// `entries[prefix] = len | symbol << 8` over the first `2^bits`
    /// entries; `len == 0` marks an escape — either a code longer than
    /// `bits` or an invalid prefix.
    entries: Box<[u16; TABLE_LEN]>,
    /// `first_code[len]` = canonical code value of the first code of each
    /// length (the canonical construction assigns codes in (length, symbol)
    /// order, so codes of one length form one contiguous value range).
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// Number of codes of each length.
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// `offset[len]` = index into `symbols` of the first symbol of `len`.
    offset: [u32; MAX_CODE_LEN as usize + 1],
    /// All coded symbols in canonical (length, symbol) order.
    symbols: [u8; ALPHABET],
}

impl Default for FastDecodeTable {
    fn default() -> Self {
        FastDecodeTable {
            bits: 1,
            per_refill: 0,
            entries: Box::new([0; TABLE_LEN]),
            first_code: [0; MAX_CODE_LEN as usize + 1],
            count: [0; MAX_CODE_LEN as usize + 1],
            offset: [0; MAX_CODE_LEN as usize + 1],
            symbols: [0; ALPHABET],
        }
    }
}

impl FastDecodeTable {
    /// Load the canonical code described by (validated) `lengths`. Codes
    /// are assigned exactly as [`canonical_codes`] does — shorter first,
    /// ties by symbol — but by counting per length instead of sorting.
    fn rebuild(&mut self, lengths: &[u8; ALPHABET]) {
        // One pass over the lengths: four interleaved histograms, so the
        // long runs of absent symbols do not serialise on one counter, and
        // the present symbols compacted in ascending order without a branch.
        const LENS: usize = MAX_CODE_LEN as usize + 1;
        let mut histograms = [[0u32; LENS]; 4];
        let mut present = [0u8; ALPHABET];
        let mut n = 0usize;
        let mut longest = 0u8;
        for (quad, lens) in lengths.chunks_exact(4).enumerate() {
            for (lane, &len) in lens.iter().enumerate() {
                histograms[lane][usize::from(len) & (LENS - 1)] += 1;
                present[n & (ALPHABET - 1)] = (quad * 4 + lane) as u8;
                n += usize::from(len != 0);
                longest = longest.max(len);
            }
        }
        let bits = longest.clamp(1, DEFAULT_DECODE_BITS);
        self.bits = bits;
        self.per_refill = (REFILL_BITS / u32::from(longest.max(1))) as usize;
        let mut code = 0u32;
        let mut total = 0u32;
        for len in 1..LENS {
            let count = histograms.iter().map(|h| h[len]).sum();
            self.count[len] = count;
            self.first_code[len] = code;
            self.offset[len] = total;
            code = (code + count) << 1;
            total += count;
        }
        // Symbols ascend within each length, so handing out the next
        // `symbols` slot of that length keeps canonical order.
        let mut issued = self.offset;
        for &symbol in &present[..n] {
            let len = usize::from(lengths[usize::from(symbol)]);
            self.symbols[issued[len] as usize] = symbol;
            issued[len] += 1;
        }
        // Codes of one length are consecutive, so each length fills one
        // stretch of the table, `2^(bits - len)` entries per symbol.
        for len in 1..=bits {
            let first = self.offset[usize::from(len)] as usize;
            let symbols = &self.symbols[first..first + self.count[usize::from(len)] as usize];
            let shift = bits - len;
            let from = (self.first_code[usize::from(len)] as usize) << shift;
            let stretch = &mut self.entries[from..from + (symbols.len() << shift)];
            match shift {
                0 => fill_runs::<1>(stretch, symbols, len),
                1 => fill_runs::<2>(stretch, symbols, len),
                2 => fill_runs::<4>(stretch, symbols, len),
                _ => fill_runs::<8>(stretch, symbols, len),
            }
        }
        // Codes of ≤ `bits` bits cover one prefix of the table; the rest
        // escapes.
        let covered = (self.first_code[usize::from(bits)] + self.count[usize::from(bits)]) as usize;
        self.entries[covered.min(1 << bits)..1 << bits].fill(0);
    }

    /// The loaded table as the decode loops use it.
    fn lookup(&self) -> Lookup<'_> {
        Lookup {
            entries: &self.entries,
            shift: 64 - u32::from(self.bits),
            table: self,
        }
    }

    /// Resolve a code longer than `self.bits` via the canonical per-length
    /// ranges.
    #[cold]
    fn decode_long(&self, bitbuf: u64) -> Result<(u8, u8)> {
        let peek = (bitbuf >> (64 - u32::from(MAX_CODE_LEN))) as u32;
        for len in (self.bits + 1)..=MAX_CODE_LEN {
            let code = peek >> (MAX_CODE_LEN - len);
            let first = self.first_code[len as usize];
            if code >= first && code - first < self.count[len as usize] {
                let idx = self.offset[len as usize] + (code - first);
                return Ok((self.symbols[idx as usize], len));
            }
        }
        Err(CodecError::corrupt("invalid huffman code in stream"))
    }
}

/// A loaded [`FastDecodeTable`] as the decode loops use it: the entry
/// array and the shift that indexes it held in registers, the rest of the
/// table for the slow path.
#[derive(Clone, Copy)]
struct Lookup<'t> {
    entries: &'t [u16; TABLE_LEN],
    /// `64 - bits`: shifts the head of a bit buffer down to a table index.
    shift: u32,
    table: &'t FastDecodeTable,
}

impl Lookup<'_> {
    /// Resolve the code at the head of `bitbuf` (the next stream bits,
    /// zero-padded past its end) to `(symbol, length)`.
    #[inline(always)]
    fn decode(self, bitbuf: u64) -> Result<(u8, u8)> {
        let entry = self.entries[(bitbuf >> self.shift) as usize & (TABLE_LEN - 1)];
        if entry as u8 != 0 {
            Ok(((entry >> 8) as u8, entry as u8))
        } else {
            self.table.decode_long(bitbuf)
        }
    }
}

/// Fill `stretch` with the entries of `symbols`, all codes of `len` bits:
/// each symbol owns `stretch.len() / symbols.len()` consecutive entries (a
/// power of two, at least `N`), written `N` at a time.
fn fill_runs<const N: usize>(stretch: &mut [u16], symbols: &[u8], len: u8) {
    let Some(per_symbol) = stretch.len().checked_div(symbols.len()) else {
        return;
    };
    for (run, &symbol) in stretch.chunks_exact_mut(per_symbol).zip(symbols) {
        let entries = [u16::from(len) | u16::from(symbol) << 8; N];
        for chunk in run.chunks_exact_mut(N) {
            chunk.copy_from_slice(&entries);
        }
    }
}

/// Word-buffered MSB-first bit cursor for the table-driven decoder. The
/// top `nbits` bits of `bitbuf` are the next bits of the stream; whatever
/// lies below them is either zero or the stream bits that follow (a word
/// refill may load part of a byte it does not count yet), so peeking past
/// the end of the stream zero-pads — exactly the semantics the branchy
/// decoder gets from `read_bits(available) << (MAX_CODE_LEN - available)`.
struct FastBits<'a> {
    buf: &'a [u8],
    /// Next byte of `buf` to load into the buffer.
    next: usize,
    bitbuf: u64,
    nbits: u32,
}

impl<'a> FastBits<'a> {
    fn new(buf: &'a [u8]) -> Self {
        FastBits {
            buf,
            next: 0,
            bitbuf: 0,
            nbits: 0,
        }
    }

    /// Top up the bit buffer to ≥ [`REFILL_BITS`] valid bits with one
    /// word load; `false` (and nothing loaded) once fewer than eight bytes
    /// remain.
    #[inline(always)]
    fn refill_word(&mut self) -> bool {
        let Some(word) = self.buf[self.next..].first_chunk::<8>() else {
            return false;
        };
        // Count only the whole bytes that fit. `nbits` stays ≤ 63 on this
        // path (it only reaches 64 in `refill`'s byte loop, after which
        // fewer than eight bytes remain for good).
        self.bitbuf |= u64::from_be_bytes(*word) >> self.nbits;
        let whole = (63 - self.nbits) / 8;
        self.next += whole as usize;
        self.nbits += whole * 8;
        true
    }

    /// Top up the bit buffer to ≥ [`REFILL_BITS`] valid bits (or the end of
    /// the stream).
    #[inline]
    fn refill(&mut self) {
        if self.refill_word() {
            return;
        }
        while self.nbits <= REFILL_BITS && self.next < self.buf.len() {
            self.bitbuf |= u64::from(self.buf[self.next]) << (56 - self.nbits);
            self.next += 1;
            self.nbits += 8;
        }
    }

    /// Drop `n` buffered bits. Callers guarantee `n <= self.nbits`.
    #[inline(always)]
    fn consume(&mut self, n: u8) {
        self.bitbuf <<= n;
        self.nbits -= u32::from(n);
    }

    /// Decode one symbol with no length check: the caller has made sure
    /// at least the table's longest code is buffered.
    #[inline(always)]
    fn decode_buffered(&mut self, lookup: Lookup<'_>) -> Result<u8> {
        let (symbol, len) = lookup.decode(self.bitbuf)?;
        self.consume(len);
        Ok(symbol)
    }
}

/// One stream being decoded: its table, bit cursor and output.
struct Stream<'t, 'a, 'o> {
    lookup: Lookup<'t>,
    bits: FastBits<'a>,
    dst: &'o mut [u8],
    /// Symbols of `dst` decoded so far.
    done: usize,
}

impl<'t, 'a, 'o> Stream<'t, 'a, 'o> {
    /// Parse a [`compress`] buffer's header, load its code into `table` and
    /// grow `out` by its symbol count; `None` for an empty stream.
    fn open(
        table: &'t mut FastDecodeTable,
        input: &'a [u8],
        out: &'o mut Vec<u8>,
    ) -> Result<Option<Self>> {
        let (raw_len, parsed) = parse_stream(input)?;
        let Some((lengths, payload)) = parsed else {
            return Ok(None);
        };
        table.rebuild(&lengths);
        let start = out.len();
        out.resize(start + raw_len, 0);
        Ok(Some(Stream {
            lookup: table.lookup(),
            bits: FastBits::new(payload),
            dst: &mut out[start..],
            done: 0,
        }))
    }

    /// Refill with one word load if the input has a word left and the
    /// output room for a whole batch: then [`FastDecodeTable::per_refill`]
    /// symbols decode with no per-symbol length check.
    #[inline(always)]
    fn batch_ready(&mut self) -> bool {
        self.done + self.lookup.table.per_refill <= self.dst.len() && self.bits.refill_word()
    }

    /// Decode the rest of `dst`: whole batches while they fit, then one
    /// symbol at a time, checking each code against the bits that remain.
    fn finish(mut self) -> Result<()> {
        let lookup = self.lookup;
        while self.batch_ready() {
            let end = self.done + lookup.table.per_refill;
            for slot in &mut self.dst[self.done..end] {
                *slot = self.bits.decode_buffered(lookup)?;
            }
            self.done = end;
        }
        let bits = &mut self.bits;
        let mut slots = self.dst[self.done..].iter_mut();
        loop {
            bits.refill();
            // With a whole code's worth of real bits buffered, whatever
            // length the table reports is really there.
            while bits.nbits >= u32::from(MAX_CODE_LEN) {
                let Some(slot) = slots.next() else {
                    return Ok(());
                };
                *slot = bits.decode_buffered(lookup)?;
            }
            if bits.next < bits.buf.len() {
                continue;
            }
            // Tail: fewer than MAX_CODE_LEN real bits remain and the peek
            // is zero-padded, so a decoded length must fit in what is left.
            for slot in slots {
                if bits.nbits == 0 {
                    return Err(CodecError::UnexpectedEof {
                        context: "huffman codes",
                    });
                }
                let (symbol, len) = lookup.decode(bits.bitbuf)?;
                if u32::from(len) > bits.nbits {
                    return Err(CodecError::corrupt("invalid huffman code in stream"));
                }
                bits.consume(len);
                *slot = symbol;
            }
            return Ok(());
        }
    }
}

/// Decode `a` and `b` in one loop, a batch of each per refill, so the two
/// streams' table-load chains overlap; each finishes alone once either
/// runs short of input or output.
fn decode_interleaved(mut a: Stream<'_, '_, '_>, mut b: Stream<'_, '_, '_>) -> Result<()> {
    let (lookup_a, lookup_b) = (a.lookup, b.lookup);
    let (per_a, per_b) = (lookup_a.table.per_refill, lookup_b.table.per_refill);
    let both = per_a.min(per_b);
    while a.batch_ready() && b.batch_ready() {
        let dst_a = &mut a.dst[a.done..a.done + per_a];
        let dst_b = &mut b.dst[b.done..b.done + per_b];
        let (head_a, tail_a) = dst_a.split_at_mut(both);
        let (head_b, tail_b) = dst_b.split_at_mut(both);
        for (slot_a, slot_b) in head_a.iter_mut().zip(head_b) {
            *slot_a = a.bits.decode_buffered(lookup_a)?;
            *slot_b = b.bits.decode_buffered(lookup_b)?;
        }
        for slot in tail_a {
            *slot = a.bits.decode_buffered(lookup_a)?;
        }
        for slot in tail_b {
            *slot = b.bits.decode_buffered(lookup_b)?;
        }
        a.done += per_a;
        b.done += per_b;
    }
    a.finish()?;
    b.finish()
}

/// Compress `input` with a canonical Huffman code trained on its own byte
/// frequencies. Output layout: varint raw length, 128-byte code-length table,
/// varint bit count, packed code bits.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 140);
    varint::write_usize(&mut out, input.len());
    if input.is_empty() {
        return out;
    }
    let mut freqs = [0u64; ALPHABET];
    for &b in input {
        freqs[b as usize] += 1;
    }
    let table = HuffmanTable::from_frequencies(&freqs);
    table.write_lengths(&mut out);
    let bits = table.encoded_bits(&freqs);
    varint::write_u64(&mut out, bits);
    let mut w = BitWriter::with_capacity((bits as usize).div_ceil(8));
    for &b in input {
        let s = b as usize;
        w.write_bits(u64::from(table.codes[s]), table.lengths[s]);
    }
    out.extend_from_slice(&w.finish());
    out
}

/// Parsed [`compress`] header: the declared raw length plus, for non-empty
/// streams, the validated code lengths and the bit-packed payload.
type ParsedStream<'a> = (usize, Option<([u8; ALPHABET], &'a [u8])>);

/// Parse the shared header of a [`compress`] buffer: raw length, code
/// lengths, bit count. `raw_len == 0` short-circuits with no table.
///
/// Every symbol costs at least one bit, so a declared raw length above the
/// (payload-checked) bit count is rejected here — before any caller sizes
/// an allocation from it.
fn parse_stream(input: &[u8]) -> Result<ParsedStream<'_>> {
    let (raw_len, pos) = varint::read_usize(input, 0)?;
    if raw_len == 0 {
        return Ok((0, None));
    }
    let (lengths, pos) = read_lengths(input, pos)?;
    let (bits, pos) = varint::read_u64(input, pos)?;
    let payload = &input[pos..];
    if (payload.len() as u64) * 8 < bits {
        return Err(CodecError::UnexpectedEof {
            context: "huffman payload",
        });
    }
    if raw_len as u64 > bits {
        return Err(CodecError::SizeLimitExceeded {
            declared: raw_len,
            limit: bits as usize,
        });
    }
    Ok((raw_len, Some((lengths, payload))))
}

/// A reusable table-driven decoder: the decode tables live in the value
/// and are rebuilt in place per stream, so a long-lived `Decoder` (one per
/// thread in [`crate::zstdlike`]) decodes without allocating.
#[derive(Default)]
pub struct Decoder {
    /// One table per stream of a [`Decoder::decompress_pair_into`] call.
    tables: [FastDecodeTable; 2],
}

impl Decoder {
    /// Decode a buffer produced by [`compress`], appending to `out`. On
    /// error `out` is left as it was.
    pub fn decompress_into(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let start = out.len();
        let decoded = match Stream::open(&mut self.tables[0], input, out) {
            Ok(Some(stream)) => stream.finish(),
            other => other.map(|_| ()),
        };
        if decoded.is_err() {
            out.truncate(start);
        }
        decoded
    }

    /// Decode two independent [`compress`] buffers, appending each to its
    /// own output, in one loop: each symbol waits on the previous one's
    /// table load and shift, so interleaving the streams overlaps the two
    /// dependency chains. The result equals two
    /// [`Decoder::decompress_into`] calls; on error both outputs are left
    /// as they were.
    pub(crate) fn decompress_pair_into(
        &mut self,
        inputs: [&[u8]; 2],
        outs: [&mut Vec<u8>; 2],
    ) -> Result<()> {
        let [out_a, out_b] = outs;
        let starts = (out_a.len(), out_b.len());
        let [table_a, table_b] = &mut self.tables;
        let decoded = (|| {
            let a = Stream::open(table_a, inputs[0], out_a)?;
            let b = Stream::open(table_b, inputs[1], out_b)?;
            match (a, b) {
                (Some(a), Some(b)) => decode_interleaved(a, b),
                (a, b) => a.into_iter().chain(b).try_for_each(Stream::finish),
            }
        })();
        if decoded.is_err() {
            out_a.truncate(starts.0);
            out_b.truncate(starts.1);
        }
        decoded
    }
}

/// Decompress a buffer produced by [`compress`] with the table-driven
/// decoder.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    Decoder::default().decompress_into(input, &mut out)?;
    Ok(out)
}

/// Estimate the zero-order empirical entropy of `input` in bits per byte.
///
/// Used by the PBC theoretical-analysis tests (Section 6) and by the
/// entropy-based clustering ablation.
pub fn empirical_entropy(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 0.0;
    }
    let mut freqs = [0u64; ALPHABET];
    for &b in input {
        freqs[b as usize] += 1;
    }
    let n = input.len() as f64;
    freqs
        .iter()
        .filter(|&&f| f > 0)
        .map(|&f| {
            let p = f as f64 / n;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitReader;

    /// Flat decode table mapping [`MAX_CODE_LEN`]-bit prefixes to (symbol, length).
    struct DecodeTable {
        entries: Vec<(u8, u8)>,
    }

    impl DecodeTable {
        fn build(table: &HuffmanTable) -> Self {
            let size = 1usize << MAX_CODE_LEN;
            let mut entries = vec![(0u8, 0u8); size];
            for symbol in 0..ALPHABET {
                let len = table.lengths[symbol];
                if len == 0 {
                    continue;
                }
                let code = table.codes[symbol] as usize;
                let shift = MAX_CODE_LEN - len;
                let start = code << shift;
                let end = (code + 1) << shift;
                for entry in entries.iter_mut().take(end).skip(start) {
                    *entry = (symbol as u8, len);
                }
            }
            DecodeTable { entries }
        }
    }

    /// The pre-table reference decoder: one flat [`MAX_CODE_LEN`]-bit lookup
    /// per symbol, peeking through a cloned [`BitReader`]. The oracle the
    /// table-driven fast path is differentially tested against: [`decompress`]
    /// must produce byte-identical output.
    fn decompress_branchy(input: &[u8]) -> Result<Vec<u8>> {
        let (raw_len, parsed) = parse_stream(input)?;
        let Some((lengths, payload)) = parsed else {
            return Ok(Vec::new());
        };
        let decode = DecodeTable::build(&HuffmanTable::from_lengths(lengths)?);
        let mut out = Vec::with_capacity(raw_len);
        let mut reader = BitReader::new(payload);
        while out.len() < raw_len {
            // Peek up to MAX_CODE_LEN bits (shorter near the end of the stream).
            let available = reader.remaining_bits().min(MAX_CODE_LEN as usize) as u8;
            if available == 0 {
                return Err(CodecError::UnexpectedEof {
                    context: "huffman codes",
                });
            }
            let peek = {
                let mut clone = reader.clone();
                clone.read_bits(available)? << (MAX_CODE_LEN - available)
            };
            let (symbol, len) = decode.entries[peek as usize];
            if len == 0 || len > available {
                return Err(CodecError::corrupt("invalid huffman code in stream"));
            }
            reader.read_bits(len)?;
            out.push(symbol);
        }
        Ok(out)
    }

    #[test]
    fn roundtrip_simple_text() {
        let data = b"the quick brown fox jumps over the lazy dog, the quick brown fox";
        let compressed = compress(data);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_empty_and_single_symbol() {
        assert_eq!(decompress(&compress(b"")).unwrap(), b"");
        let ones = vec![b'x'; 1000];
        let compressed = compress(&ones);
        assert!(compressed.len() < ones.len());
        assert_eq!(decompress(&compressed).unwrap(), ones);
    }

    #[test]
    fn skewed_distribution_compresses_well() {
        let mut data = vec![b'a'; 10_000];
        data.extend_from_slice(&[b'b'; 100]);
        data.extend_from_slice(b"cdefg");
        let compressed = compress(&data);
        // ~1 bit per symbol plus the 130-byte header.
        assert!(compressed.len() < data.len() / 4);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn uniform_bytes_do_not_explode() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let compressed = compress(&data);
        // 8-bit codes + header: mild overhead only.
        assert!(compressed.len() <= data.len() + 200);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn truncated_payload_is_detected() {
        let data = b"hello hello hello hello hello";
        let mut compressed = compress(data);
        compressed.truncate(compressed.len() - 2);
        assert!(decompress(&compressed).is_err());
    }

    #[test]
    fn declared_length_beyond_the_bit_count_is_rejected_before_allocating() {
        let good = compress(b"hello hello hello hello hello");
        // 29 encodes as one varint byte; forge a 2^40-byte claim over the
        // same table and payload.
        let mut forged = Vec::new();
        varint::write_usize(&mut forged, 1 << 40);
        forged.extend_from_slice(&good[1..]);
        for result in [decompress(&forged), decompress_branchy(&forged)] {
            assert!(matches!(
                result,
                Err(CodecError::SizeLimitExceeded { declared, .. }) if declared == 1 << 40
            ));
        }
    }

    #[test]
    fn invalid_length_table_is_rejected() {
        // All symbols with 1-bit codes grossly violates the Kraft inequality.
        let lengths = [1u8; ALPHABET];
        assert!(HuffmanTable::from_lengths(lengths).is_err());
        let mut too_long = [0u8; ALPHABET];
        too_long[0] = MAX_CODE_LEN + 1;
        assert!(HuffmanTable::from_lengths(too_long).is_err());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut freqs = [0u64; ALPHABET];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = (i as u64 % 17) + 1;
        }
        let table = HuffmanTable::from_frequencies(&freqs);
        // Check prefix-freedom pairwise on a sample of symbols.
        for a in 0..ALPHABET {
            for b in (a + 1)..ALPHABET {
                let (la, lb) = (table.lengths[a], table.lengths[b]);
                if la == 0 || lb == 0 {
                    continue;
                }
                let (short, long, ls, ll) = if la <= lb {
                    (table.codes[a], table.codes[b], la, lb)
                } else {
                    (table.codes[b], table.codes[a], lb, la)
                };
                assert_ne!(
                    u32::from(short),
                    u32::from(long) >> (ll - ls),
                    "codes for {a} and {b} are not prefix-free"
                );
            }
        }
    }

    #[test]
    fn entropy_of_uniform_and_constant_inputs() {
        let constant = vec![7u8; 100];
        assert!(empirical_entropy(&constant).abs() < 1e-9);
        let uniform: Vec<u8> = (0..=255u8).collect();
        assert!((empirical_entropy(&uniform) - 8.0).abs() < 1e-9);
        assert_eq!(empirical_entropy(&[]), 0.0);
    }

    #[test]
    fn all_byte_values_roundtrip() {
        let mut data = Vec::new();
        for i in 0..=255u8 {
            data.extend(std::iter::repeat_n(i, (i as usize % 7) + 1));
        }
        let compressed = compress(&data);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    /// Symbol `i` repeated `fib(i)` times for the first `symbols` symbols of
    /// the alphabet (then shuffled): Fibonacci frequencies give the
    /// deepest Huffman tree there is, `symbols - 1` levels, so from 17
    /// symbols on the codes are length-limited at [`MAX_CODE_LEN`] and the
    /// first-level table escapes to the slow path.
    fn fibonacci_corpus(symbols: usize, seed: u64) -> Vec<u8> {
        let (mut a, mut b) = (1usize, 1usize);
        let mut data = Vec::new();
        for symbol in 0..symbols {
            data.extend(std::iter::repeat_n(symbol as u8, a));
            (a, b) = (b, a + b);
        }
        let mut lcg = seed;
        for i in (1..data.len()).rev() {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            data.swap(i, (lcg >> 33) as usize % (i + 1));
        }
        data
    }

    /// Corpora with very different code-length shapes: flat 8-bit codes,
    /// extreme skew (1-bit hot symbol + long tails), Fibonacci skew whose
    /// codes reach [`MAX_CODE_LEN`], and mixed text.
    fn differential_corpora() -> Vec<Vec<u8>> {
        let mut skewed = vec![b'a'; 20_000];
        for i in 0..ALPHABET {
            skewed.extend(std::iter::repeat_n(i as u8, i % 5 + 1));
        }
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let noisy: Vec<u8> = (0..8_192)
            .map(|_| {
                lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (lcg >> 33) as u8
            })
            .collect();
        vec![
            b"the quick brown fox jumps over the lazy dog".repeat(50),
            skewed,
            noisy,
            (0..=255u8).cycle().take(4_096).collect(),
            b"x".repeat(3_000),
            b"ab".repeat(1_500),
            fibonacci_corpus(12, 1),
            fibonacci_corpus(18, 2),
            fibonacci_corpus(24, 3),
        ]
    }

    #[test]
    fn fibonacci_corpora_reach_the_longest_code() {
        for (symbols, want) in [(12, 11), (18, MAX_CODE_LEN), (24, MAX_CODE_LEN)] {
            let data = fibonacci_corpus(symbols, 0);
            let compressed = compress(&data);
            let (_, parsed) = parse_stream(&compressed).unwrap();
            let (lengths, _) = parsed.unwrap();
            assert_eq!(lengths.iter().max(), Some(&want), "{symbols} symbols");
        }
    }

    #[test]
    fn table_driven_decoders_agree_with_branchy() {
        let mut decoder = Decoder::default();
        for data in differential_corpora() {
            let compressed = compress(&data);
            let branchy = decompress_branchy(&compressed).unwrap();
            assert_eq!(branchy, data);
            assert_eq!(decompress(&compressed).unwrap(), branchy);
            // A reused decoder, appending after what is already there.
            let mut out = b"prefix".to_vec();
            decoder.decompress_into(&compressed, &mut out).unwrap();
            assert_eq!(&out[6..], branchy.as_slice());
        }
    }

    #[test]
    fn pair_decode_equals_two_single_decodes() {
        let corpora = differential_corpora();
        let streams: Vec<Vec<u8>> = corpora.iter().map(|d| compress(d)).collect();
        let empty = compress(b"");
        let mut decoder = Decoder::default();
        for (a, data_a) in streams.iter().zip(&corpora) {
            for (b, data_b) in streams.iter().zip(&corpora).chain([(&empty, &Vec::new())]) {
                let (mut out_a, mut out_b) = (b"A".to_vec(), b"BB".to_vec());
                decoder
                    .decompress_pair_into([a, b], [&mut out_a, &mut out_b])
                    .unwrap();
                assert_eq!(&out_a[1..], data_a.as_slice());
                assert_eq!(&out_b[2..], data_b.as_slice());
            }
        }
    }

    #[test]
    fn table_and_branchy_decoders_reject_the_same_corrupt_streams() {
        // Truncations at every point of the payload, plus single bit flips:
        // the decoders must agree that each stream is bad (the exact error
        // message may differ, failing at all must not), the pair decoder
        // too, and a failed decode leaves both outputs as they were.
        let partner = compress(&fibonacci_corpus(14, 9));
        let mut decoder = Decoder::default();
        let mut check = |bad: &[u8], what: &str| {
            let branchy = decompress_branchy(bad);
            match (&branchy, decompress(bad)) {
                (Ok(x), Ok(y)) => assert_eq!(x, &y, "{what}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("decoders disagree on {what}: {a:?} vs {b:?}"),
            }
            for swap in [false, true] {
                let (mut first, mut second) = (b"1".to_vec(), b"2".to_vec());
                let inputs = if swap {
                    [&partner[..], bad]
                } else {
                    [bad, &partner[..]]
                };
                let paired = decoder.decompress_pair_into(inputs, [&mut first, &mut second]);
                assert_eq!(paired.is_err(), branchy.is_err(), "pair on {what}");
                if paired.is_err() {
                    assert_eq!(
                        (first.as_slice(), second.as_slice()),
                        (&b"1"[..], &b"2"[..])
                    );
                } else if let Ok(expected) = &branchy {
                    let got = if swap { &second[1..] } else { &first[1..] };
                    assert_eq!(got, expected.as_slice(), "pair on {what}");
                }
            }
        };
        let corpora = [
            b"hello hello hello hello hello hello hello".to_vec(),
            fibonacci_corpus(17, 4),
        ];
        for data in corpora {
            let good = compress(&data);
            for cut in (good.len().saturating_sub(40))..good.len() {
                check(&good[..cut], &format!("truncation at {cut}"));
            }
            for byte in 0..good.len() {
                for bit in [0u8, 4] {
                    let mut bad = good.clone();
                    bad[byte] ^= 1 << bit;
                    check(&bad, &format!("flip {byte}/{bit}"));
                }
            }
        }
    }
}
