//! Hash-chain LZ77 match finder shared by the LZ-family codecs.
//!
//! All four baseline codecs ([`crate::lz4like`], [`crate::snappylike`],
//! [`crate::zstdlike`], [`crate::lzmalike`]) parse the input into a sequence
//! of literal runs and back-references using this finder; they differ only in
//! the window size / search effort they request and in how the token stream
//! is serialized afterwards.

/// Minimum match length considered worth emitting as a back-reference.
pub const MIN_MATCH: usize = 4;

/// A single back-reference discovered by the match finder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Distance back from the current position (1 ≤ offset ≤ window).
    pub offset: usize,
    /// Length of the match in bytes (≥ [`MIN_MATCH`]).
    pub len: usize,
}

/// One element of the LZ77 parse: a run of literals followed by an optional
/// match. The final token of a stream has `match_: None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Byte range of the literal run in the original input.
    pub literal_start: usize,
    /// Length of the literal run (may be 0).
    pub literal_len: usize,
    /// The back-reference following the literals, if any.
    pub match_: Option<Match>,
}

/// Tunable parameters for the greedy hash-chain parse.
#[derive(Debug, Clone, Copy)]
pub struct MatchFinderConfig {
    /// Maximum back-reference distance.
    pub window: usize,
    /// Maximum hash-chain entries examined per position (search effort).
    pub max_chain: usize,
    /// Hash table size as a power of two.
    pub hash_bits: u32,
    /// Maximum match length to report.
    pub max_match: usize,
    /// Use one-step-lazy matching (try position+1 before committing).
    pub lazy: bool,
}

impl MatchFinderConfig {
    /// Fast profile: small effort, suitable for LZ4/Snappy-class codecs.
    pub fn fast() -> Self {
        MatchFinderConfig {
            window: 64 * 1024,
            max_chain: 16,
            hash_bits: 15,
            max_match: 1 << 16,
            lazy: false,
        }
    }

    /// Balanced profile used by the Zstd-like codec's default level.
    pub fn balanced() -> Self {
        MatchFinderConfig {
            window: 1 << 20,
            max_chain: 64,
            hash_bits: 17,
            max_match: 1 << 20,
            lazy: true,
        }
    }

    /// High-effort profile used by the LZMA-like codec and high Zstd levels.
    pub fn thorough() -> Self {
        MatchFinderConfig {
            window: 1 << 22,
            max_chain: 256,
            hash_bits: 18,
            max_match: 1 << 22,
            lazy: true,
        }
    }
}

/// Hash-chain LZ77 match finder over a (dictionary + input) buffer.
pub struct MatchFinder<'a> {
    data: &'a [u8],
    /// Offset where the actual input starts (everything before it is the
    /// shared dictionary and is never emitted as literals).
    input_start: usize,
    config: MatchFinderConfig,
    head: Vec<u32>,
    prev: Vec<u32>,
}

const NIL: u32 = u32::MAX;

impl<'a> MatchFinder<'a> {
    /// Create a finder over `data`; positions before `input_start` form the
    /// preset dictionary window.
    pub fn new(data: &'a [u8], input_start: usize, config: MatchFinderConfig) -> Self {
        let hash_size = 1usize << config.hash_bits;
        MatchFinder {
            data,
            input_start,
            config,
            head: vec![NIL; hash_size],
            prev: vec![NIL; data.len()],
        }
    }

    #[inline]
    fn hash(&self, pos: usize) -> usize {
        // 4-byte multiplicative hash (Fibonacci hashing).
        let b = &self.data[pos..pos + MIN_MATCH];
        let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        ((v.wrapping_mul(2654435761)) >> (32 - self.config.hash_bits)) as usize
    }

    #[inline]
    fn insert(&mut self, pos: usize) {
        if pos + MIN_MATCH > self.data.len() {
            return;
        }
        let h = self.hash(pos);
        self.prev[pos] = self.head[h];
        self.head[h] = pos as u32;
    }

    /// Find the longest match for `pos`, if any, respecting the window and
    /// chain limits.
    fn find_match(&self, pos: usize) -> Option<Match> {
        if pos + MIN_MATCH > self.data.len() {
            return None;
        }
        let h = self.hash(pos);
        let mut candidate = self.head[h];
        let mut best: Option<Match> = None;
        let max_len = self.config.max_match.min(self.data.len() - pos);
        let min_pos = pos.saturating_sub(self.config.window);
        let mut chain = 0;
        while candidate != NIL && chain < self.config.max_chain {
            let cand = candidate as usize;
            if cand < min_pos {
                break;
            }
            debug_assert!(cand < pos);
            // Quick reject: compare the byte just past the current best.
            let best_len = best.map_or(MIN_MATCH - 1, |m| m.len);
            if best_len < max_len && self.data[cand + best_len] == self.data[pos + best_len] {
                let len = common_prefix(&self.data[cand..], &self.data[pos..], max_len);
                if len >= MIN_MATCH && len > best_len {
                    best = Some(Match {
                        offset: pos - cand,
                        len,
                    });
                    if len >= max_len {
                        break;
                    }
                }
            }
            candidate = self.prev[cand];
            chain += 1;
        }
        best
    }

    /// Run the greedy (optionally lazy) parse over the input region and
    /// return the token sequence.
    pub fn parse(&mut self) -> Vec<Token> {
        let n = self.data.len();
        // Index the dictionary region so matches can point into it.
        let mut p = 0;
        while p < self.input_start {
            self.insert(p);
            p += 1;
        }

        let mut tokens = Vec::new();
        let mut pos = self.input_start;
        let mut literal_start = self.input_start;
        while pos < n {
            let found = self.find_match(pos);
            let found = match (found, self.config.lazy) {
                (Some(m), true) if pos + 1 < n => {
                    // One-step lazy matching: if the next position has a
                    // strictly longer match, emit this byte as a literal.
                    let next = self.find_match(pos + 1);
                    match next {
                        Some(nm) if nm.len > m.len + 1 => {
                            self.insert(pos);
                            pos += 1;
                            // Skip straight to evaluating pos+1 in the next
                            // loop iteration; the current byte stays literal.
                            continue;
                        }
                        _ => Some(m),
                    }
                }
                (m, _) => m,
            };
            match found {
                Some(m) => {
                    tokens.push(Token {
                        literal_start,
                        literal_len: pos - literal_start,
                        match_: Some(m),
                    });
                    // Index the positions covered by the match (bounded so
                    // pathological inputs stay fast).
                    let end = pos + m.len;
                    let index_end = end.min(pos + 64);
                    while pos < index_end {
                        self.insert(pos);
                        pos += 1;
                    }
                    pos = end;
                    literal_start = pos;
                }
                None => {
                    self.insert(pos);
                    pos += 1;
                }
            }
        }
        tokens.push(Token {
            literal_start,
            literal_len: n - literal_start,
            match_: None,
        });
        tokens
    }
}

/// Length of the common prefix of `a` and `b`, capped at `max`.
#[inline]
pub fn common_prefix(a: &[u8], b: &[u8], max: usize) -> usize {
    let limit = max.min(a.len()).min(b.len());
    let mut i = 0;
    // Compare 8 bytes at a time.
    while i + 8 <= limit {
        // pbc-allow(panic): the loop bound guarantees an exact 8-byte subslice
        let wa = u64::from_le_bytes(a[i..i + 8].try_into().expect("8 bytes"));
        // pbc-allow(panic): the loop bound guarantees an exact 8-byte subslice
        let wb = u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        let x = wa ^ wb;
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < limit && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Replay a token stream parsed from `data` with its input at
/// `input_start` (see [`MatchFinder::new`]) and return the input region it
/// encodes. Replay starts from the dictionary prefix `data[..input_start]`,
/// so matches may reach back into it.
pub fn reconstruct(tokens: &[Token], data: &[u8], input_start: usize) -> Vec<u8> {
    let mut out = data[..input_start].to_vec();
    for t in tokens {
        out.extend_from_slice(&data[t.literal_start..t.literal_start + t.literal_len]);
        if let Some(m) = t.match_ {
            let start = out.len() - m.offset;
            for i in 0..m.len {
                let b = out[start + i];
                out.push(b);
            }
        }
    }
    out.split_off(input_start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_with(config: MatchFinderConfig, data: &[u8]) {
        let mut finder = MatchFinder::new(data, 0, config);
        let tokens = finder.parse();
        // Validate token invariants.
        for t in &tokens {
            if let Some(m) = t.match_ {
                assert!(m.len >= MIN_MATCH);
                assert!(m.offset >= 1);
            }
        }
        assert_eq!(reconstruct(&tokens, data, 0), data);
    }

    #[test]
    fn parse_reconstructs_repetitive_input() {
        let data = b"abcabcabcabcabcabcabcabcabcabc".to_vec();
        roundtrip_with(MatchFinderConfig::fast(), &data);
        roundtrip_with(MatchFinderConfig::balanced(), &data);
    }

    #[test]
    fn parse_reconstructs_text_with_shared_templates() {
        let mut data = Vec::new();
        for i in 0..200 {
            data.extend_from_slice(
                format!("{{\"symbol\": \"IBM\", \"side\": \"B\", \"quantity\": {i}, \"price\": 50.25}}\n")
                    .as_bytes(),
            );
        }
        roundtrip_with(MatchFinderConfig::fast(), &data);
        roundtrip_with(MatchFinderConfig::balanced(), &data);
        roundtrip_with(MatchFinderConfig::thorough(), &data);
    }

    #[test]
    fn parse_handles_incompressible_input() {
        // Pseudo-random bytes: almost everything should stay literal.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..2000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        roundtrip_with(MatchFinderConfig::balanced(), &data);
    }

    #[test]
    fn parse_handles_tiny_inputs() {
        roundtrip_with(MatchFinderConfig::fast(), b"");
        roundtrip_with(MatchFinderConfig::fast(), b"a");
        roundtrip_with(MatchFinderConfig::fast(), b"abc");
        roundtrip_with(MatchFinderConfig::fast(), b"abcd");
    }

    #[test]
    fn matches_find_repeats_beyond_literal_run() {
        let data = b"0123456789_0123456789_0123456789_".to_vec();
        let mut finder = MatchFinder::new(&data, 0, MatchFinderConfig::fast());
        let tokens = finder.parse();
        let has_match = tokens.iter().any(|t| t.match_.is_some());
        assert!(
            has_match,
            "repeated decimal runs must produce back-references"
        );
    }

    #[test]
    fn dictionary_region_is_searchable_but_not_emitted() {
        let dict = b"shared-dictionary-content ";
        let record = b"shared-dictionary-content plus new tail";
        let mut data = dict.to_vec();
        let input_start = data.len();
        data.extend_from_slice(record);
        let mut finder = MatchFinder::new(&data, input_start, MatchFinderConfig::fast());
        let tokens = finder.parse();
        // The first token should reference into the dictionary region.
        let first_match = tokens.iter().find_map(|t| t.match_);
        assert!(
            first_match.is_some(),
            "record prefix matches the dictionary"
        );
        assert_eq!(reconstruct(&tokens, &data, input_start), record);
    }

    #[test]
    fn common_prefix_counts_exactly() {
        assert_eq!(common_prefix(b"abcdef", b"abcxef", 100), 3);
        assert_eq!(common_prefix(b"abcdef", b"abcdef", 100), 6);
        assert_eq!(common_prefix(b"abcdef", b"abcdef", 4), 4);
        assert_eq!(common_prefix(b"", b"abc", 10), 0);
        assert_eq!(
            common_prefix(b"aaaaaaaaaaaaaaaaaaaab", b"aaaaaaaaaaaaaaaaaaaac", 100),
            20
        );
    }

    #[test]
    fn long_runs_produce_long_matches() {
        let data = vec![b'z'; 10_000];
        let mut finder = MatchFinder::new(&data, 0, MatchFinderConfig::balanced());
        let tokens = finder.parse();
        assert!(
            tokens.len() < 50,
            "a constant run should parse into few tokens"
        );
        assert_eq!(reconstruct(&tokens, &data, 0), data);
    }
}
