//! FSST-style string compression: a trained static symbol table of up to 255
//! multi-byte symbols, applied greedily per string.
//!
//! Stands in for FSST (Boncz, Neumann, Leis, VLDB 2020) in the paper's
//! evaluation: "a state-of-the-art general-purpose lightweight compression
//! method which supports line-by-line compression" — i.e. random access to
//! individual records without block decompression. It is also the residual
//! encoder of the paper's `PBC_F` variant.
//!
//! ## Encoding
//!
//! Each output byte is either a symbol code (0..=254) that expands to a
//! 1–8 byte symbol, or the escape code 255 followed by one literal byte.
//! The symbol table is trained offline on sample strings with the iterative
//! "generate candidates from adjacent symbol pairs, keep the highest-gain
//! 255" procedure of the FSST paper.
//!
//! The encoder is greedy: at each position it emits the longest symbol the
//! input starts with (the lowest code among equals), else an escape. Like
//! the reference implementation it finds that symbol in O(1) from flat
//! tables built once per codec rather than by walking the symbol list:
//!
//! * each code's symbol is packed little-endian into a `u64`;
//! * symbols of two or more bytes sit in a 1 Ki-bucket table hashed on
//!   their first two bytes, each bucket longest first, as
//!   `(word, mask, len, code)` entries. The encoder loads the next eight
//!   input bytes as one word (zero-padded at the tail) and takes the first
//!   entry with `word & mask == entry.word` that fits the input left;
//! * a 256-entry table names the 1-byte symbol for each byte, the
//!   fallback before an escape.
//!
//! The decoder sizes its output from the code lengths first, so a corrupt
//! stream is refused before anything is written, then copies each symbol
//! with one fixed-size 8-byte store (a shorter copy only where the value
//! ends), advancing by the symbol's length.

use std::collections::HashMap;

use crate::error::{CodecError, Result};
use crate::traits::{Codec, TrainableCodec};

/// Escape code marking a literal byte.
pub const ESCAPE: u8 = 255;
/// Maximum number of non-escape symbols.
pub const MAX_SYMBOLS: usize = 255;
/// Maximum symbol length in bytes.
pub const MAX_SYMBOL_LEN: usize = 8;
/// Number of training iterations (the FSST paper uses 5).
const TRAIN_ITERATIONS: usize = 5;
/// Buckets of the two-byte hash table, as a power of two.
const BUCKET_BITS: u32 = 10;
const BUCKETS: usize = 1 << BUCKET_BITS;

/// A trained FSST symbol table plus the greedy encoder/decoder.
#[derive(Debug, Clone)]
pub struct FsstCodec {
    /// Symbol byte strings indexed by code.
    symbols: Vec<Vec<u8>>,
    /// The flat lookup tables built from `symbols` (boxed: ≈ 10 KB).
    table: Box<SymbolTable>,
}

/// The flat encode/decode tables of one symbol list; see the module docs.
#[derive(Debug, Clone)]
struct SymbolTable {
    /// Per code: the symbol packed little-endian, zero past its length.
    word: [u64; 256],
    /// Per code: the symbol's length; 0 for codes with no symbol.
    len: [u8; 256],
    /// Per byte: the lowest code whose symbol is that byte alone, else
    /// [`ESCAPE`].
    single: [u8; 256],
    /// Bucket `b` of the two-byte table is `long[start[b]..start[b + 1]]`.
    start: [u16; BUCKETS + 1],
    /// Symbols of 2+ bytes grouped by bucket, each group longest first and
    /// lowest code first among equal lengths.
    long: Vec<LongSymbol>,
}

/// One entry of the two-byte hash table.
#[derive(Debug, Clone, Copy)]
struct LongSymbol {
    word: u64,
    mask: u64,
    len: u8,
    code: u8,
}

impl SymbolTable {
    fn new(symbols: &[Vec<u8>]) -> Self {
        let mut table = SymbolTable {
            word: [0; 256],
            len: [0; 256],
            single: [ESCAPE; 256],
            start: [0; BUCKETS + 1],
            long: Vec::new(),
        };
        let mut long: Vec<(usize, LongSymbol)> = Vec::new();
        for (code, sym) in symbols.iter().enumerate() {
            let word = load_word(sym);
            table.word[code] = word;
            table.len[code] = sym.len() as u8;
            if sym.len() == 1 {
                if table.single[sym[0] as usize] == ESCAPE {
                    table.single[sym[0] as usize] = code as u8;
                }
            } else {
                let entry = LongSymbol {
                    word,
                    mask: u64::MAX >> (64 - 8 * sym.len()),
                    len: sym.len() as u8,
                    code: code as u8,
                };
                long.push((bucket_of(word), entry));
            }
        }
        // Codes ascend already, so a stable sort keeps the lowest code
        // first among equal lengths: the greedy encoder's tie-break.
        long.sort_by_key(|&(bucket, entry)| (bucket, std::cmp::Reverse(entry.len)));
        for &(bucket, _) in &long {
            table.start[bucket + 1] += 1;
        }
        for b in 0..BUCKETS {
            table.start[b + 1] += table.start[b];
        }
        table.long = long.into_iter().map(|(_, entry)| entry).collect();
        table
    }
}

/// Up to eight bytes of `bytes` packed little-endian, zero-padded.
#[inline]
fn load_word(bytes: &[u8]) -> u64 {
    match bytes.first_chunk::<8>() {
        Some(chunk) => u64::from_le_bytes(*chunk),
        None => {
            let mut padded = [0u8; 8];
            padded[..bytes.len()].copy_from_slice(bytes);
            u64::from_le_bytes(padded)
        }
    }
}

/// The two-byte hash bucket of a word: a multiplicative hash of its low
/// two bytes.
#[inline]
fn bucket_of(word: u64) -> usize {
    ((word as u32 & 0xffff).wrapping_mul(0x9e37_79b1) >> (32 - BUCKET_BITS)) as usize
}

impl Default for FsstCodec {
    fn default() -> Self {
        FsstCodec::from_symbols(Vec::new())
    }
}

impl FsstCodec {
    /// Build a codec from an explicit symbol list (used by deserialization
    /// and tests). Symbols beyond [`MAX_SYMBOLS`] or longer than
    /// [`MAX_SYMBOL_LEN`] bytes are ignored.
    pub fn from_symbols(symbols: Vec<Vec<u8>>) -> Self {
        let symbols: Vec<Vec<u8>> = symbols
            .into_iter()
            .filter(|s| !s.is_empty() && s.len() <= MAX_SYMBOL_LEN)
            .take(MAX_SYMBOLS)
            .collect();
        let table = Box::new(SymbolTable::new(&symbols));
        FsstCodec { symbols, table }
    }

    /// The trained symbols (exposed for inspection / persistence).
    pub fn symbols(&self) -> &[Vec<u8>] {
        &self.symbols
    }

    /// Encode one string with the trained table (no header, random access).
    pub fn encode(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len());
        self.encode_into(input, &mut out);
        out
    }

    /// Append the encoding of `input` to `out` (what [`FsstCodec::encode`]
    /// returns).
    pub fn encode_into(&self, input: &[u8], out: &mut Vec<u8>) {
        let mut pos = 0;
        while pos < input.len() {
            let rest = &input[pos..];
            match self.longest_symbol_at(rest) {
                Some((code, len)) => {
                    out.push(code);
                    pos += len;
                }
                None => {
                    out.extend_from_slice(&[ESCAPE, rest[0]]);
                    pos += 1;
                }
            }
        }
    }

    /// Decode a string produced by [`FsstCodec::encode`] with the same table.
    pub fn decode(&self, input: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.decode_into(input, &mut out).map(|()| out)
    }

    /// Append the decoding of `input` to `out`. On error `out` is left as
    /// it was: the stream is checked and sized before anything is written.
    pub fn decode_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let table = &*self.table;
        let mut decoded_len = 0usize;
        let mut pos = 0;
        while let Some(&code) = input.get(pos) {
            if code == ESCAPE {
                if pos + 1 == input.len() {
                    return Err(CodecError::UnexpectedEof {
                        context: "fsst escape byte",
                    });
                }
                decoded_len += 1;
                pos += 2;
            } else {
                let len = table.len[code as usize];
                if len == 0 {
                    return Err(CodecError::corrupt("fsst code not in symbol table"));
                }
                decoded_len += len as usize;
                pos += 1;
            }
        }
        let start = out.len();
        out.resize(start + decoded_len, 0);
        let dst = &mut out[start..];
        let (mut pos, mut at) = (0, 0);
        while let Some(&code) = input.get(pos) {
            if code == ESCAPE {
                dst[at] = input[pos + 1];
                at += 1;
                pos += 2;
            } else {
                let word = table.word[code as usize].to_le_bytes();
                let len = table.len[code as usize] as usize;
                match dst.get_mut(at..at + 8) {
                    Some(slot) => slot.copy_from_slice(&word),
                    None => dst[at..at + len].copy_from_slice(&word[..len]),
                }
                at += len;
                pos += 1;
            }
        }
        Ok(())
    }

    /// The longest symbol `rest` starts with (lowest code among equals), as
    /// its code and length; `None` when only an escape will do.
    #[inline]
    fn longest_symbol_at(&self, rest: &[u8]) -> Option<(u8, usize)> {
        let table = &*self.table;
        if rest.len() >= 2 {
            let word = load_word(rest);
            let bucket = bucket_of(word);
            let entries =
                &table.long[table.start[bucket] as usize..table.start[bucket + 1] as usize];
            for entry in entries {
                if word & entry.mask == entry.word && entry.len as usize <= rest.len() {
                    return Some((entry.code, entry.len as usize));
                }
            }
        }
        let code = table.single[rest[0] as usize];
        (code != ESCAPE).then_some((code, 1))
    }

    /// Serialize the symbol table (count, then length-prefixed symbols).
    pub fn serialize_table(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.symbols.len() as u8);
        for sym in &self.symbols {
            out.push(sym.len() as u8);
            out.extend_from_slice(sym);
        }
        out
    }

    /// Reconstruct a codec from [`FsstCodec::serialize_table`] output.
    /// Returns the codec and the number of bytes consumed.
    pub fn deserialize_table(input: &[u8]) -> Result<(Self, usize)> {
        let count = *input.first().ok_or(CodecError::UnexpectedEof {
            context: "fsst table count",
        })? as usize;
        let mut pos = 1;
        let mut symbols = Vec::with_capacity(count);
        for _ in 0..count {
            let len = *input.get(pos).ok_or(CodecError::UnexpectedEof {
                context: "fsst symbol length",
            })? as usize;
            pos += 1;
            if len == 0 || len > MAX_SYMBOL_LEN || pos + len > input.len() {
                return Err(CodecError::corrupt("invalid fsst symbol length"));
            }
            symbols.push(input[pos..pos + len].to_vec());
            pos += len;
        }
        Ok((FsstCodec::from_symbols(symbols), pos))
    }
}

impl TrainableCodec for FsstCodec {
    /// Train a symbol table with the iterative FSST construction: encode the
    /// sample with the current table, count single symbols and adjacent
    /// symbol pairs, then keep the 255 candidates with the highest gain
    /// (`frequency × encoded-length-saved`).
    fn train(samples: &[&[u8]]) -> Self {
        let mut codec = FsstCodec::from_symbols(Vec::new());
        if samples.is_empty() {
            return codec;
        }
        // Bound training cost on huge samples.
        let budget: usize = 1 << 20;
        let mut used = 0usize;
        let sample_slice: Vec<&[u8]> = samples
            .iter()
            .take_while(|s| {
                let keep = used < budget;
                used += s.len();
                keep
            })
            .copied()
            .collect();

        for _ in 0..TRAIN_ITERATIONS {
            // pbc-allow(determinism): gains drain into a fully tie-broken sort (gain, then symbol bytes); iteration order never reaches the output
            let mut gains: HashMap<Vec<u8>, u64> = HashMap::new();
            for &sample in &sample_slice {
                // Walk the sample as the current table would encode it and
                // collect counts for symbols and concatenations of adjacent
                // symbols (the candidate set of the next iteration).
                let mut pos = 0;
                let mut prev: Option<(usize, usize)> = None; // (start, len)
                while pos < sample.len() {
                    let len = match codec.longest_symbol_at(&sample[pos..]) {
                        Some((_, l)) => l,
                        None => 1,
                    };
                    let cur = (pos, len);
                    *gains.entry(sample[pos..pos + len].to_vec()).or_insert(0) += len as u64;
                    if let Some((ps, pl)) = prev {
                        let combined_len = pl + len;
                        if combined_len <= MAX_SYMBOL_LEN {
                            *gains
                                .entry(sample[ps..ps + combined_len].to_vec())
                                .or_insert(0) += combined_len as u64;
                        }
                    }
                    prev = Some(cur);
                    pos += len;
                }
            }
            // Gain of a 1-byte symbol is marginal (it saves the escape byte),
            // so halve it to prefer longer symbols, like the reference
            // implementation's gain = freq * len heuristic does implicitly.
            let mut candidates: Vec<(Vec<u8>, u64)> = gains
                .into_iter()
                .map(|(sym, g)| {
                    let adjusted = if sym.len() == 1 { g / 2 } else { g };
                    (sym, adjusted)
                })
                .filter(|&(_, g)| g > 0)
                .collect();
            candidates.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            candidates.truncate(MAX_SYMBOLS);
            codec = FsstCodec::from_symbols(candidates.into_iter().map(|(s, _)| s).collect());
        }
        codec
    }
}

impl Codec for FsstCodec {
    fn name(&self) -> &str {
        "FSST-like"
    }

    /// Compress without embedding the symbol table (the table is part of the
    /// trained codec, as in the paper's line-by-line setting).
    fn compress(&self, input: &[u8]) -> Vec<u8> {
        self.encode(input)
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.decode(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url_samples() -> Vec<Vec<u8>> {
        (0..500)
            .map(|i| {
                format!(
                    "https://www.example.com/products/category-{}/item_{:05}?session=abcdef{:04}&ref=homepage",
                    i % 12,
                    i,
                    i * 3 % 10000
                )
                .into_bytes()
            })
            .collect()
    }

    #[test]
    fn untrained_codec_escapes_everything_and_roundtrips() {
        let codec = FsstCodec::default();
        let data = b"plain text";
        let enc = codec.encode(data);
        assert_eq!(enc.len(), data.len() * 2);
        assert_eq!(codec.decode(&enc).unwrap(), data);
    }

    #[test]
    fn trained_codec_compresses_structured_strings() {
        let samples = url_samples();
        let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
        let codec = FsstCodec::train(&refs);
        assert!(!codec.symbols().is_empty());
        let record = &samples[123];
        let enc = codec.encode(record);
        assert!(
            enc.len() * 2 < record.len(),
            "urls should compress at least 2x: {} of {}",
            enc.len(),
            record.len()
        );
        assert_eq!(codec.decode(&enc).unwrap(), *record);
    }

    #[test]
    fn unseen_bytes_still_roundtrip_via_escape() {
        let samples = url_samples();
        let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
        let codec = FsstCodec::train(&refs);
        let data = "完全に異なる内容 \u{1F600} byte soup \x00\x01\x02".as_bytes();
        let enc = codec.encode(data);
        assert_eq!(codec.decode(&enc).unwrap(), data);
    }

    #[test]
    fn symbols_respect_length_and_count_limits() {
        let samples = url_samples();
        let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
        let codec = FsstCodec::train(&refs);
        assert!(codec.symbols().len() <= MAX_SYMBOLS);
        assert!(codec
            .symbols()
            .iter()
            .all(|s| s.len() <= MAX_SYMBOL_LEN && !s.is_empty()));
    }

    #[test]
    fn table_serialization_roundtrips() {
        let samples = url_samples();
        let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
        let codec = FsstCodec::train(&refs);
        let table = codec.serialize_table();
        let (restored, consumed) = FsstCodec::deserialize_table(&table).unwrap();
        assert_eq!(consumed, table.len());
        assert_eq!(restored.symbols(), codec.symbols());
        let record = b"https://www.example.com/products/category-3/item_00042";
        assert_eq!(restored.decode(&codec.encode(record)).unwrap(), record);
    }

    #[test]
    fn corrupt_code_stream_is_rejected() {
        // A code pointing past the symbol table must error, not panic.
        let codec = FsstCodec::from_symbols(vec![b"ab".to_vec()]);
        assert!(codec.decode(&[200]).is_err());
        // Escape with no following byte.
        assert!(codec.decode(&[ESCAPE]).is_err());
    }

    #[test]
    fn longest_symbol_wins_and_the_lowest_code_breaks_ties() {
        let codec = FsstCodec::from_symbols(vec![
            b"a".to_vec(),
            b"ab".to_vec(),
            b"abc".to_vec(),
            b"ab".to_vec(),   // duplicate: code 1 keeps winning
            b"a".to_vec(),    // duplicate 1-byte symbol: code 0 keeps winning
            b"\0\0".to_vec(), // symbols may hold zero bytes ...
            b"x\0".to_vec(),  // ... that the zero-padded tail must not fake
            b"12345678".to_vec(),
        ]);
        assert_eq!(codec.encode(b"abcab"), [2, 1]);
        assert_eq!(codec.encode(b"aab"), [0, 1]);
        assert_eq!(codec.encode(b"\0\0\0"), [5, ESCAPE, 0]);
        assert_eq!(codec.encode(b"x"), [ESCAPE, b'x']);
        assert_eq!(codec.encode(b"x\0"), [6]);
        // An 8-byte symbol, then a 7-byte tail it cannot cover.
        let mut expected = vec![7];
        for &b in b"1234567" {
            expected.extend_from_slice(&[ESCAPE, b]);
        }
        assert_eq!(codec.encode(b"123456781234567"), expected);
        for input in [&b"abcab"[..], b"\0\0\0x", b"12345678abc\0"] {
            assert_eq!(codec.decode(&codec.encode(input)).unwrap(), input);
        }
    }

    #[test]
    fn decode_into_appends_and_leaves_the_buffer_alone_on_error() {
        let codec = FsstCodec::from_symbols(vec![b"abcdefgh".to_vec(), b"xy".to_vec()]);
        let mut out = b"kept".to_vec();
        codec
            .decode_into(&[0, 1, 0, ESCAPE, b'!'], &mut out)
            .unwrap();
        assert_eq!(out, b"keptabcdefghxyabcdefgh!");
        for corrupt in [&[0, 1, 7][..], &[0, 0, ESCAPE]] {
            let mut out = b"kept".to_vec();
            assert!(codec.decode_into(corrupt, &mut out).is_err());
            assert_eq!(out, b"kept");
        }
    }

    #[test]
    fn empty_input_encodes_to_empty() {
        let codec = FsstCodec::default();
        assert!(codec.encode(b"").is_empty());
        assert_eq!(codec.decode(b"").unwrap(), b"");
    }

    #[test]
    fn training_on_empty_sample_is_safe() {
        let codec = FsstCodec::train(&[]);
        assert!(codec.symbols().is_empty());
        let codec = FsstCodec::train(&[b"".as_slice()]);
        let enc = codec.encode(b"abc");
        assert_eq!(codec.decode(&enc).unwrap(), b"abc");
    }
}
