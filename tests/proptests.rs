//! Property-based tests over the core data structures and codecs.

use std::sync::{Arc, OnceLock};

use proptest::collection::vec;
use proptest::prelude::*;

use pbc::archive::codec::serialized_len;
use pbc::archive::format::{decode_trailer, Header, TRAILER_LEN};
use pbc::archive::{
    build_codec, ArchiveError, BlockCodec, CodecSpec, Entry, RecordCodec, SegmentConfig,
    SegmentReader, SegmentWriter, ZstdDict,
};
use pbc::codecs::crc::crc32;
use pbc::codecs::lz77::{self, MatchFinder, MatchFinderConfig, MIN_MATCH};
use pbc::codecs::traits::{Codec, TrainableCodec};
use pbc::codecs::{fsst, huffman, varint, FsstCodec, Lz4Like, LzmaLike, SnappyLike, ZstdLike};
use pbc::core::matching::{match_record, match_structure, reassemble};
use pbc::core::multimatch::MultiMatcher;
use pbc::core::{
    FieldEncoder, Pattern, PatternDictionary, PbcBlockCompressor, PbcCompressor, PbcConfig, Segment,
};
use pbc::datagen::Dataset;
use pbc::json::{parse, to_string, JsonValue, Number};
use pbc::tier::{Manifest, ManifestEntry, TierError, LEVEL_L0, LEVEL_L1};
use pbc::wal::{ReplayOp, Wal, WalConfig, WalError, WalObs};

mod support;
use support::temp_dir;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- varint / primitives ----------------

    #[test]
    fn varint_roundtrips_any_u64(value: u64) {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, value);
        prop_assert_eq!(buf.len(), varint::encoded_len(value));
        let (decoded, pos) = varint::read_u64(&buf, 0).unwrap();
        prop_assert_eq!(decoded, value);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_roundtrips_any_i64(value: i64) {
        prop_assert_eq!(varint::zigzag_decode(varint::zigzag_encode(value)), value);
    }

    // ---------------- general-purpose codecs ----------------

    #[test]
    fn lz_family_roundtrips_arbitrary_bytes(data in vec(any::<u8>(), 0..4096)) {
        let lz4 = Lz4Like::new();
        prop_assert_eq!(lz4.decompress(&lz4.compress(&data)).unwrap(), data.clone());
        let snappy = SnappyLike::new();
        prop_assert_eq!(snappy.decompress(&snappy.compress(&data)).unwrap(), data.clone());
        let zstd = ZstdLike::new(3);
        prop_assert_eq!(zstd.decompress(&zstd.compress(&data)).unwrap(), data.clone());
    }

    #[test]
    fn lzma_and_huffman_roundtrip_arbitrary_bytes(data in vec(any::<u8>(), 0..2048)) {
        let lzma = LzmaLike::new(3);
        prop_assert_eq!(lzma.decompress(&lzma.compress(&data)).unwrap(), data.clone());
        prop_assert_eq!(huffman::decompress(&huffman::compress(&data)).unwrap(), data);
    }

    /// The match finder under every profile, over an arbitrary dictionary
    /// and an input that repeats itself and pieces of the dictionary (a
    /// small alphabet, one dictionary slice spliced in): every match is at
    /// least `MIN_MATCH` long and reaches back no further than the window
    /// or the buffer start, literal runs tile the input, only the last
    /// token lacks a match, and replaying the tokens gives the input back.
    #[test]
    fn lz77_parse_replays_arbitrary_input_over_any_dictionary(
        dictionary in vec(any::<u8>(), 0..512),
        input in vec(any::<u8>(), 0..2048),
        alphabet in 1u16..257,
        from in any::<usize>(),
        len in any::<usize>(),
        at in any::<usize>(),
    ) {
        let mut input: Vec<u8> = input.iter().map(|&b| (b as u16 % alphabet) as u8).collect();
        if !dictionary.is_empty() {
            let from = from % dictionary.len();
            let piece = &dictionary[from..from + len % (dictionary.len() - from + 1)];
            let at = at % (input.len() + 1);
            input.splice(at..at, piece.iter().copied());
        }
        let data = [dictionary.as_slice(), &input].concat();
        let input_start = dictionary.len();
        for config in [
            MatchFinderConfig::fast(),
            MatchFinderConfig::balanced(),
            MatchFinderConfig::thorough(),
        ] {
            let tokens = MatchFinder::new(&data, input_start, config).parse();
            let mut pos = input_start;
            for (i, token) in tokens.iter().enumerate() {
                prop_assert_eq!(token.literal_start, pos);
                pos += token.literal_len;
                match token.match_ {
                    Some(m) => {
                        prop_assert!(i + 1 < tokens.len(), "the last token carries a match");
                        prop_assert!(m.len >= MIN_MATCH);
                        prop_assert!(m.offset >= 1 && m.offset <= config.window.min(pos));
                        pos += m.len;
                    }
                    None => prop_assert_eq!(i + 1, tokens.len(), "a match-less token mid-stream"),
                }
            }
            prop_assert_eq!(pos, data.len());
            prop_assert_eq!(lz77::reconstruct(&tokens, &data, input_start), input.clone());
        }
    }

    #[test]
    fn repetitive_structured_input_always_shrinks(
        template_id in 0usize..3,
        values in vec(0u32..1_000_000, 32..128),
    ) {
        // Structured, repetitive input in the style of machine-generated
        // records must never expand under the Zstd-like codec.
        let templates = ["user={} action=login ok", "GET /api/item/{} 200", "sensor {} reading nominal"];
        let data: Vec<u8> = values
            .iter()
            .map(|v| templates[template_id].replace("{}", &v.to_string()))
            .collect::<Vec<_>>()
            .join("\n")
            .into_bytes();
        let zstd = ZstdLike::new(3);
        let compressed = zstd.compress(&data);
        prop_assert!(compressed.len() < data.len());
        prop_assert_eq!(zstd.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn fsst_roundtrips_any_strings_with_any_training(
        training in vec(vec(any::<u8>(), 0..64), 1..24),
        record in vec(any::<u8>(), 0..256),
    ) {
        let refs: Vec<&[u8]> = training.iter().map(|t| t.as_slice()).collect();
        let codec = FsstCodec::train(&refs);
        prop_assert_eq!(codec.decode(&codec.encode(&record)).unwrap(), record);
    }

    // ---------------- field encoders ----------------

    #[test]
    fn varchar_encoder_roundtrips_any_short_value(value in vec(any::<u8>(), 0..512)) {
        let enc = FieldEncoder::Varchar;
        prop_assert!(enc.accepts(&value));
        let mut buf = Vec::new();
        enc.encode(&value, &mut buf).unwrap();
        prop_assert_eq!(buf.len(), enc.encoded_len(&value));
        let mut out = Vec::new();
        let pos = enc.decode(&buf, 0, &mut out).unwrap();
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(out, value);
    }

    #[test]
    fn int_encoder_roundtrips_fixed_width_digits(digits in 1usize..15, raw: u64) {
        // Bound the value so it fits the requested digit width.
        let value = raw % 10u64.pow(digits as u32);
        let formatted = format!("{:0width$}", value, width = digits);
        let enc = FieldEncoder::int_for_digits(digits as u8);
        prop_assert!(enc.accepts(formatted.as_bytes()));
        let mut buf = Vec::new();
        enc.encode(formatted.as_bytes(), &mut buf).unwrap();
        let mut out = Vec::new();
        enc.decode(&buf, 0, &mut out).unwrap();
        prop_assert_eq!(out, formatted.into_bytes());
    }

    // ---------------- patterns and matching ----------------

    #[test]
    fn matching_and_reassembly_are_inverse(
        prefix in "[a-z]{1,8}",
        middle in "[a-z]{1,8}",
        v1 in "[0-9]{1,6}",
        v2 in "[A-Za-z0-9_./-]{0,12}",
    ) {
        let pattern = Pattern::parse(&format!("{prefix}=*<VARINT> {middle}=*"));
        let record = format!("{prefix}={} {middle}={}", v1.trim_start_matches('0').to_string().max("0".to_string()), v2);
        let record_bytes = record.as_bytes();
        if let Some(m) = match_record(&pattern, record_bytes) {
            let values: Vec<Vec<u8>> = m.field_values(record_bytes).iter().map(|v| v.to_vec()).collect();
            prop_assert_eq!(reassemble(&pattern, &values), record_bytes.to_vec());
        }
    }

    // ---------------- the PBC compressor ----------------

    #[test]
    fn pbc_roundtrips_arbitrary_records_even_as_outliers(
        records in vec(vec(any::<u8>(), 0..200), 1..40),
    ) {
        // Train on whatever shows up; every record must round-trip, matched
        // or not.
        let sample: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let pbc = PbcCompressor::train(&sample, &PbcConfig::small());
        for record in &records {
            let compressed = pbc.compress(record);
            prop_assert_eq!(&pbc.decompress(&compressed).unwrap(), record);
        }
    }

    #[test]
    fn pbc_never_loses_templated_records(
        ids in vec(0u64..100_000_000, 20..80),
        flag in any::<bool>(),
    ) {
        let records: Vec<Vec<u8>> = ids
            .iter()
            .map(|id| format!("evt|id={id}|flag={flag}|status=done").into_bytes())
            .collect();
        let sample: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let pbc = PbcCompressor::train(&sample, &PbcConfig::small());
        for record in &records {
            prop_assert_eq!(&pbc.decompress(&pbc.compress(record)).unwrap(), record);
        }
    }

    // ---------------- JSON substrate ----------------

    #[test]
    fn json_writer_output_always_reparses(doc in arb_json(3)) {
        let text = to_string(&doc);
        let reparsed = parse(&text).unwrap();
        prop_assert_eq!(reparsed, doc);
    }

    // (The name predates the removal of the MessagePack-like codec; tier-1
    // test ids stay stable.)
    #[test]
    fn ion_and_msgpack_roundtrip_generated_documents(doc in arb_json(3)) {
        let ion = pbc::json::IonLikeCodec::new();
        prop_assert_eq!(ion.decode(&ion.encode(&doc)).unwrap(), doc);
    }
}

// ---------------- record-codec kernels ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codec_kernel_fsst_encoder_matches_the_reference(
        // A four-byte alphabet with 0x00 in it: duplicate symbols, shared
        // prefixes and zero bytes are all common.
        symbols in vec(vec(0u8..4, 1..9), 0..256),
        input in vec(0u8..5, 0..48),
    ) {
        let codec = FsstCodec::from_symbols(symbols);
        let encoded = codec.encode(&input);
        prop_assert_eq!(&encoded, &reference_fsst_encode(codec.symbols(), &input));
        prop_assert_eq!(codec.decode(&encoded).unwrap(), input);
    }

    #[test]
    fn codec_kernel_decoders_survive_arbitrary_bytes(
        pick in any::<usize>(),
        flips in vec((any::<usize>(), any::<u8>()), 0..4),
        cut in any::<usize>(),
        junk in vec(any::<u8>(), 0..12),
        prefix in vec(any::<u8>(), 0..8),
    ) {
        // A real compressed record, damaged: bytes flipped, cut short and
        // extended with junk — or, when `pick` says so, nothing but junk.
        let kernels = trained_kernels();
        let codecs = [
            RecordCodec::Pbc(Arc::clone(&kernels.pbc)),
            RecordCodec::Pbc(Arc::clone(&kernels.pbc_f)),
            kernels.zstd.clone(),
        ];
        for (codec, compressed) in codecs.iter().zip(&kernels.compressed) {
            let mut data = if pick.is_multiple_of(5) {
                Vec::new()
            } else {
                compressed[pick % compressed.len()].clone()
            };
            for &(at, bits) in &flips {
                if !data.is_empty() {
                    let at = at % data.len();
                    data[at] ^= bits;
                }
            }
            data.truncate(cut % (data.len() + 1));
            data.extend_from_slice(&junk);
            let mut out = prefix.clone();
            match codec.decode_into(&data, &mut out) {
                Ok(()) => prop_assert!(out.starts_with(&prefix)),
                Err(_) => prop_assert_eq!(&out, &prefix),
            }
            let fsst = kernels.pbc_f.residual_fsst().unwrap();
            let mut out = prefix.clone();
            match fsst.decode_into(&data, &mut out) {
                Ok(()) => prop_assert!(out.starts_with(&prefix)),
                Err(_) => prop_assert_eq!(&out, &prefix),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `PbcBlockCompressor::decompress_block` over whatever the backend
    /// decompresses to: a record count, then frames of a length — the
    /// payload's own, a small one, or one within 256 of `u64::MAX` that
    /// overflows `pos + len` — and a payload that is a real compressed
    /// record or junk; or junk alone. It returns the claimed records or a
    /// typed error, never a panic or an out-of-bounds slice.
    #[test]
    fn pbc_block_decoder_survives_arbitrary_intermediate_bytes(
        count in 0u64..8,
        frames in vec((any::<usize>(), 0u64..256, vec(any::<u8>(), 0..24)), 0..6),
        junk in vec(any::<u8>(), 0..64),
        only_junk in any::<bool>(),
    ) {
        let kernels = trained_kernels();
        let mut intermediate = Vec::new();
        if !only_junk {
            varint::write_u64(&mut intermediate, count);
            for &(pick, small, ref junk_payload) in &frames {
                let payload = if (pick / 3).is_multiple_of(2) {
                    &kernels.compressed[0][pick % kernels.compressed[0].len()]
                } else {
                    junk_payload
                };
                let len = match pick % 3 {
                    0 => payload.len() as u64,
                    1 => small,
                    _ => u64::MAX - small,
                };
                varint::write_u64(&mut intermediate, len);
                intermediate.extend_from_slice(payload);
            }
        }
        intermediate.extend_from_slice(&junk);
        let block = ZstdLike::new(3).compress(&intermediate);
        if let Ok(records) = pbc_block().decompress_block(&block) {
            prop_assert_eq!(records.len() as u64, count);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The LZ-family and JSON binary decoders, each fed one of its own real
    /// outputs damaged — its leading length varint replaced by any `u64`,
    /// bytes flipped, cut short, extended with junk — return their value
    /// or a typed error: never a panic, and never an allocation sized by a
    /// damaged header alone.
    #[test]
    fn damaged_lz_and_json_streams_decode_or_fail_typed(
        pick in any::<usize>(),
        replace_header in any::<bool>(),
        declared in any::<u64>(),
        flips in vec((any::<usize>(), any::<u8>()), 0..4),
        cut in any::<usize>(),
        junk in vec(any::<u8>(), 0..12),
    ) {
        let damage = |real: &[u8]| {
            let mut data = real.to_vec();
            if let (true, Ok((_, body))) = (replace_header, varint::read_u64(real, 0)) {
                data.clear();
                varint::write_u64(&mut data, declared);
                data.extend_from_slice(&real[body..]);
            }
            for &(at, bits) in &flips {
                if !data.is_empty() {
                    let at = at % data.len();
                    data[at] ^= bits;
                }
            }
            data.truncate(cut % (data.len() + 1));
            data.extend_from_slice(&junk);
            data
        };
        let corpus = damage_corpus();
        let lz: [&dyn Codec; 3] = [&Lz4Like::new(), &SnappyLike::new(), &LzmaLike::default()];
        for (codec, real) in lz.into_iter().zip(&corpus.lz) {
            let data = damage(real);
            match codec.decompress(&data) {
                Ok(decoded) if data == *real => prop_assert_eq!(&decoded, &corpus.text),
                Ok(_) | Err(_) => {}
            }
        }
        let at = pick % corpus.docs.len();
        let (binpack, ion) = (&corpus.binpack, pbc::json::IonLikeCodec::new());
        for (real, decoded) in [
            (&corpus.binpacked[at], binpack.decode(&damage(&corpus.binpacked[at]))),
            (&corpus.ion[at], ion.decode(&damage(&corpus.ion[at]))),
        ] {
            if damage(real) == *real {
                prop_assert_eq!(decoded.unwrap(), corpus.docs[at].clone());
            }
        }
    }
}

/// Real outputs for [`damaged_lz_and_json_streams_decode_or_fail_typed`]:
/// one `hdfs` text under each LZ codec, and `github` documents under
/// BinPack and IonLike.
struct DamageCorpus {
    text: Vec<u8>,
    /// `text` compressed by `Lz4Like`, `SnappyLike` and `LzmaLike`.
    lz: [Vec<u8>; 3],
    docs: Vec<JsonValue>,
    binpack: pbc::json::BinPackCodec,
    binpacked: Vec<Vec<u8>>,
    ion: Vec<Vec<u8>>,
}

fn damage_corpus() -> &'static DamageCorpus {
    static CORPUS: OnceLock<DamageCorpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let text = Dataset::Hdfs.generate(200, 2023).concat();
        let lz = [
            Lz4Like::new().compress(&text),
            SnappyLike::new().compress(&text),
            LzmaLike::default().compress(&text),
        ];
        let docs: Vec<JsonValue> = Dataset::Github
            .generate(32, 2023)
            .iter()
            .map(|record| parse(std::str::from_utf8(record).unwrap()).unwrap())
            .collect();
        let binpack = pbc::json::BinPackCodec::train(&docs.iter().collect::<Vec<_>>());
        let binpacked = docs.iter().map(|doc| binpack.encode(doc)).collect();
        let ion = pbc::json::IonLikeCodec::new();
        let ion = docs.iter().map(|doc| ion.encode(doc)).collect();
        DamageCorpus {
            text,
            lz,
            docs,
            binpack,
            binpacked,
            ion,
        }
    })
}

/// `PBC_Z` over the `PBC` dictionary of [`trained_kernels`], so the real
/// records in [`TrainedKernels::compressed`] decode.
fn pbc_block() -> &'static PbcBlockCompressor {
    static BLOCK: OnceLock<PbcBlockCompressor> = OnceLock::new();
    BLOCK.get_or_init(|| {
        let pbc = PbcCompressor::from_dictionary(
            trained_kernels().pbc.dictionary().clone(),
            &PbcConfig::small(),
        );
        PbcBlockCompressor::with_backend(pbc, Box::new(ZstdLike::new(3)), "PBC_Z")
    })
}

/// The greedy FSST encoder as first written: symbols bucketed by first
/// byte, each bucket scanned longest first (lowest code first on ties).
fn reference_fsst_encode(symbols: &[Vec<u8>], input: &[u8]) -> Vec<u8> {
    let mut buckets = vec![Vec::new(); 256];
    for (code, symbol) in symbols.iter().enumerate() {
        buckets[symbol[0] as usize].push(code);
    }
    for bucket in &mut buckets {
        bucket.sort_by_key(|&code| std::cmp::Reverse(symbols[code].len()));
    }
    let (mut out, mut pos) = (Vec::new(), 0);
    while let Some(&first) = input.get(pos) {
        let hit = buckets[first as usize]
            .iter()
            .find(|&&c| input[pos..].starts_with(&symbols[c]));
        match hit {
            Some(&code) => out.push(code as u8),
            None => out.extend_from_slice(&[fsst::ESCAPE, first]),
        }
        pos += hit.map_or(1, |&code| symbols[code].len());
    }
    out
}

/// `PBC`, `PBC_F` and per-record `Zstd(dict)` trained once on `kv2`
/// records, with every record compressed by each (the first of them a PBC
/// outlier).
struct TrainedKernels {
    pbc: Arc<PbcCompressor>,
    pbc_f: Arc<PbcCompressor>,
    zstd: RecordCodec,
    compressed: [Vec<Vec<u8>>; 3],
}

fn trained_kernels() -> &'static TrainedKernels {
    static KERNELS: OnceLock<TrainedKernels> = OnceLock::new();
    KERNELS.get_or_init(|| {
        let mut records = vec![b"no pattern has this shape \x00\xff".to_vec()];
        records.extend(Dataset::Kv2.generate(300, 7));
        let refs: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let pbc_f = PbcCompressor::train_fsst(&refs, &PbcConfig::small());
        let pbc = PbcCompressor::from_dictionary(pbc_f.dictionary().clone(), &PbcConfig::small());
        let zstd = RecordCodec::ZstdDict(ZstdDict::train(&refs, 3));
        let [pbc_records, pbc_f_records] =
            [&pbc, &pbc_f].map(|codec| records.iter().map(|r| codec.compress(r)).collect());
        let zstd_records = records
            .iter()
            .map(|r| zstd.encode(r).into_owned())
            .collect();
        TrainedKernels {
            pbc: Arc::new(pbc),
            pbc_f: Arc::new(pbc_f),
            zstd,
            compressed: [pbc_records, pbc_f_records, zstd_records],
        }
    })
}

// ---------------- the glob matcher and the multi-pattern matcher ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The jumping matcher finds exactly the spans of the byte-stepping
    /// one, with and without encoder constraints, on patterns with
    /// adjacent, leading and trailing fields and empty literals, over an
    /// alphabet small enough that literal first bytes repeat in the record.
    #[test]
    fn matcher_jumps_find_the_byte_stepping_spans(
        segments in vec(arb_matcher_segment(4), 0..7),
        fills in vec(vec(matcher_byte(), 0..5), 8..9),
        edit in arb_record_edit(),
        noise in vec(matcher_byte(), 0..24),
    ) {
        let pattern = raw_pattern(&segments);
        let instance = fill_pattern(&segments, &fills);
        for record in [edited(&instance, edit), instance, noise] {
            let expected = byte_stepping_spans(&pattern, &record);
            prop_assert_eq!(
                match_structure(&pattern, &record).map(|m| m.field_spans),
                expected.clone()
            );
            let accepted = expected.filter(|spans| {
                pattern
                    .field_encoders()
                    .iter()
                    .zip(spans)
                    .all(|(enc, &(s, e))| enc.accepts(&record[s..e]))
            });
            prop_assert_eq!(match_record(&pattern, &record).map(|m| m.field_spans), accepted);
        }
    }

    /// `best_match` (and `best_match_into` with buffers reused across
    /// records) picks what trying every pattern picks: the longest literal
    /// content wins, then an anchored pattern over a floating one, then the
    /// lower id. Literals of at most one byte make ties common.
    #[test]
    fn matcher_best_match_agrees_with_brute_force(
        patterns in vec(vec(arb_matcher_segment(2), 1..6), 1..8),
        fills in vec(vec(matcher_byte(), 0..5), 8..9),
        picks in vec((any::<usize>(), arb_record_edit()), 1..6),
    ) {
        let dictionary =
            PatternDictionary::from_patterns(patterns.iter().map(|s| raw_pattern(s)).collect());
        let matcher = MultiMatcher::new(&dictionary);
        let (mut best, mut scratch) = (vec![(7, 7)], vec![(9, 9); 3]);
        for (pick, edit) in picks {
            let instance = fill_pattern(&patterns[pick % patterns.len()], &fills);
            for record in [edited(&instance, edit), instance] {
                let expected = brute_force_best_match(&dictionary, &record);
                prop_assert_eq!(
                    matcher.best_match(&record).map(|(id, m)| (id, m.field_spans)),
                    expected.clone()
                );
                let id = matcher.best_match_into(&record, &mut best, &mut scratch);
                prop_assert_eq!(id.map(|id| (id, best.clone())), expected);
            }
        }
    }
}

/// Record bytes for the matcher cases: `a` and `\xe1` share their low
/// seven bits, so the matcher's folded byte screen meets both.
fn matcher_byte() -> impl Strategy<Value = u8> {
    (0usize..4).prop_map(|i| [b'a', b'b', b'1', 0xe1][i])
}

/// A literal shorter than `max_literal` (empty ones included) or a field.
fn arb_matcher_segment(max_literal: usize) -> impl Strategy<Value = Segment> {
    // Literals and `VARCHAR` fields listed twice: drawn twice as often.
    prop_oneof![
        vec(matcher_byte(), 0..max_literal).prop_map(Segment::Literal),
        vec(matcher_byte(), 0..max_literal).prop_map(Segment::Literal),
        Just(Segment::Field(FieldEncoder::Varchar)),
        Just(Segment::Field(FieldEncoder::Varchar)),
        (1u16..3).prop_map(|n| Segment::Field(FieldEncoder::Char { n })),
        (1u8..3).prop_map(|digits| Segment::Field(FieldEncoder::int_for_digits(digits))),
        Just(Segment::Field(FieldEncoder::Varint)),
    ]
}

/// Where to edit a record, how (insert, delete, replace or keep), and
/// the byte to write.
fn arb_record_edit() -> impl Strategy<Value = (usize, u8, u8)> {
    (any::<usize>(), 0u8..4, matcher_byte())
}

/// A pattern with exactly these segments: unlike `Pattern::new`, it keeps
/// adjacent fields and empty literals, as a deserialized dictionary may.
fn raw_pattern(segments: &[Segment]) -> Pattern {
    let mut bytes = Vec::new();
    varint::write_usize(&mut bytes, segments.len());
    for segment in segments {
        match segment {
            Segment::Literal(lit) => {
                bytes.push(0);
                varint::write_usize(&mut bytes, lit.len());
                bytes.extend_from_slice(lit);
            }
            Segment::Field(enc) => {
                bytes.push(1);
                enc.serialize(&mut bytes);
            }
        }
    }
    Pattern::deserialize(&bytes, 0).unwrap().0
}

/// The pattern's literals with its fields filled from `fills` in turn.
fn fill_pattern(segments: &[Segment], fills: &[Vec<u8>]) -> Vec<u8> {
    let mut fill = fills.iter().cycle();
    let mut record = Vec::new();
    for segment in segments {
        match segment {
            Segment::Literal(lit) => record.extend_from_slice(lit),
            Segment::Field(_) => record.extend_from_slice(fill.next().unwrap()),
        }
    }
    record
}

fn edited(record: &[u8], (at, kind, byte): (usize, u8, u8)) -> Vec<u8> {
    let mut record = record.to_vec();
    let at = at % (record.len() + 1);
    match kind {
        0 => record.insert(at, byte),
        1 if at < record.len() => drop(record.remove(at)),
        2 if at < record.len() => record[at] = byte,
        _ => {}
    }
    record
}

/// The glob matcher as first written, kept as the oracle: on a mismatch
/// the latest field grows by one byte and everything after it is retried.
fn byte_stepping_spans(pattern: &Pattern, record: &[u8]) -> Option<Vec<(usize, usize)>> {
    let segs = pattern.segments();
    let mut spans = vec![(0, 0); pattern.field_count()];
    let (mut si, mut field, mut pos) = (0usize, 0usize, 0usize);
    let mut last_star: Option<(usize, usize)> = None;
    let mut star_end = 0usize;
    loop {
        if si < segs.len() {
            match &segs[si] {
                Segment::Literal(lit) => {
                    if record[pos..].starts_with(lit) {
                        pos += lit.len();
                        si += 1;
                        continue;
                    }
                }
                Segment::Field(_) => {
                    spans[field] = (pos, pos);
                    last_star = Some((si, field));
                    star_end = pos;
                    si += 1;
                    field += 1;
                    continue;
                }
            }
        } else if pos == record.len() {
            return Some(spans);
        }
        let (star_si, star_field) = last_star?;
        star_end += 1;
        if star_end > record.len() {
            return None;
        }
        spans[star_field].1 = star_end;
        pos = star_end;
        si = star_si + 1;
        field = star_field + 1;
    }
}

/// Every pattern tried in id order; a later match replaces the best only
/// when it ranks strictly higher by (literal bytes, anchored).
fn brute_force_best_match(
    dictionary: &PatternDictionary,
    record: &[u8],
) -> Option<(u32, Vec<(usize, usize)>)> {
    let mut best = None;
    let mut top = (0, false);
    for (id, pattern) in dictionary.iter() {
        let Some(m) = match_record(pattern, record) else {
            continue;
        };
        let anchored =
            matches!(pattern.segments().first(), Some(Segment::Literal(l)) if !l.is_empty());
        let rank = (pattern.literal_len(), anchored);
        if best.is_none() || rank > top {
            top = rank;
            best = Some((id, m.field_spans));
        }
    }
    best
}

// ---------------- Zstd(dict) block decode kernel ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn zstd_decode_kernel_agrees_with_the_reference_on_damaged_blocks(
        pick in any::<usize>(),
        raw_block in 0usize..3,
        flips in vec((any::<usize>(), any::<u8>()), 0..3),
        cut in any::<usize>(),
        junk in vec(any::<u8>(), 0..12),
        prefix in vec(any::<u8>(), 0..8),
    ) {
        // A real `Zstd(dict)` block — as written, or rebuilt with its
        // literal (1) or sequence (2) stream in a raw-flag block — damaged:
        // bytes flipped, cut short when `cut` is even, extended with junk;
        // or, when `pick` says so, nothing but junk.
        let blocks = zstd_blocks();
        let mut data = if pick.is_multiple_of(5) {
            Vec::new()
        } else {
            let block = &blocks.compressed[pick % blocks.compressed.len()];
            if raw_block == 0 { block.clone() } else { with_raw_stream(block, raw_block - 1) }
        };
        for &(at, bits) in &flips {
            if !data.is_empty() {
                let at = at % data.len();
                data[at] ^= bits;
            }
        }
        if cut.is_multiple_of(2) {
            data.truncate(cut / 2 % (data.len() + 1));
        }
        data.extend_from_slice(&junk);
        let max_len = 64 * 1024;
        let expected = reference_zstd_decode(&data, &blocks.dictionary, max_len);
        let mut out = prefix.clone();
        let got = blocks.codec.decompress_with_dict_into(&data, &blocks.dictionary, max_len, &mut out);
        match (got, expected) {
            (Ok(()), Some(expected)) => {
                prop_assert_eq!(&out[..prefix.len()], prefix.as_slice());
                prop_assert_eq!(&out[prefix.len()..], expected.as_slice());
            }
            (Err(_), None) => prop_assert_eq!(&out, &prefix),
            (got, expected) => prop_assert!(
                false,
                "kernel {:?}, reference {}",
                got,
                if expected.is_some() { "Ok" } else { "Err" }
            ),
        }
    }
}

/// `kv2` in 8 KiB `Zstd(dict)` blocks: the codec, its dictionary, and
/// every block compressed.
struct ZstdBlocks {
    codec: ZstdLike,
    dictionary: Vec<u8>,
    compressed: Vec<Vec<u8>>,
}

fn zstd_blocks() -> &'static ZstdBlocks {
    static BLOCKS: OnceLock<ZstdBlocks> = OnceLock::new();
    BLOCKS.get_or_init(|| {
        let entries: Vec<Entry> = Dataset::Kv2
            .generate(600, 11)
            .into_iter()
            .enumerate()
            .map(|(i, value)| (format!("key:{i:06}").into_bytes(), value))
            .collect();
        let blocks: Vec<&[Entry]> = entries.chunks(80).collect();
        let codec = build_codec(&CodecSpec::Zstd { level: 3 }, blocks[0]);
        let compressed = blocks.iter().map(|b| codec.compress_block(b)).collect();
        let BlockCodec::Zstd(ZstdDict { codec, dictionary }) = codec else {
            unreachable!("a Zstd spec builds a Zstd codec")
        };
        ZstdBlocks {
            codec,
            dictionary: dictionary.to_vec(),
            compressed,
        }
    })
}

/// `block` rebuilt with its literal (`which == 0`) or sequence stream
/// stored in a raw-flag block and the other Huffman-coded.
fn with_raw_stream(block: &[u8], which: usize) -> Vec<u8> {
    let (raw_len, tokens, streams, _) = reference_streams(block).expect("a well-formed block");
    let mut out = Vec::new();
    varint::write_usize(&mut out, raw_len);
    varint::write_usize(&mut out, tokens);
    for (i, stream) in streams.iter().enumerate() {
        let payload = if i == which {
            stream.clone()
        } else {
            huffman::compress(stream)
        };
        out.push(u8::from(i != which));
        varint::write_usize(&mut out, payload.len());
        out.extend_from_slice(&payload);
    }
    out
}

/// The framing of a `ZstdLike` stream, read plainly: declared length,
/// token count, and the literal and sequence streams, one at a time.
fn reference_streams(input: &[u8]) -> Option<(usize, usize, [Vec<u8>; 2], usize)> {
    let (raw_len, pos) = varint::read_usize(input, 0).ok()?;
    if raw_len == 0 {
        return Some((0, 0, [Vec::new(), Vec::new()], pos));
    }
    let (tokens, mut pos) = varint::read_usize(input, pos).ok()?;
    let mut streams = [Vec::new(), Vec::new()];
    for stream in &mut streams {
        let flag = *input.get(pos)?;
        let (len, start) = varint::read_usize(input, pos + 1).ok()?;
        pos = start.checked_add(len)?;
        let payload = input.get(start..pos)?;
        match flag {
            0 => stream.extend_from_slice(payload),
            1 => huffman::Decoder::default()
                .decompress_into(payload, stream)
                .ok()?,
            _ => return None,
        }
    }
    Some((raw_len, tokens, streams, pos))
}

/// The `Zstd(dict)` decoder as first written: streams decoded one at a
/// time, sequences parsed with every check, literals appended with
/// `extend_from_slice` and matches copied a byte at a time through the
/// dictionary-then-output window. `None` on any error.
fn reference_zstd_decode(input: &[u8], dict: &[u8], max_len: usize) -> Option<Vec<u8>> {
    let (raw_len, _) = varint::read_usize(input, 0).ok()?;
    if raw_len > max_len {
        return None;
    }
    let (raw_len, tokens, [literals, sequences], _) = reference_streams(input)?;
    let (mut pos, mut lit_total, mut total, mut parsed) = (0, 0usize, 0usize, Vec::new());
    let read = |pos: &mut usize| -> Option<usize> {
        let (value, next) = varint::read_usize(&sequences, *pos).ok()?;
        *pos = next;
        u32::try_from(value).ok().map(|v| v as usize)
    };
    for i in 0..tokens {
        let (lit_len, offset) = (read(&mut pos)?, read(&mut pos)?);
        let match_len = match offset {
            0 if i + 1 != tokens => return None,
            0 => 0,
            _ => u32::try_from(read(&mut pos)? + MIN_MATCH).ok()? as usize,
        };
        lit_total = lit_total.saturating_add(lit_len);
        total = total.saturating_add(lit_len + match_len);
        parsed.push((lit_len, offset, match_len));
    }
    if lit_total > literals.len() || total != raw_len {
        return None;
    }
    let (mut out, mut lit_pos) = (Vec::new(), 0);
    for (lit_len, offset, match_len) in parsed {
        out.extend_from_slice(&literals[lit_pos..lit_pos + lit_len]);
        lit_pos += lit_len;
        for _ in 0..match_len {
            let at = (dict.len() + out.len()).checked_sub(offset)?;
            out.push(if at < dict.len() {
                dict[at]
            } else {
                out[at - dict.len()]
            });
        }
    }
    Some(out)
}

// ---------------- archive segments ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn segments_roundtrip_arbitrary_records_under_every_codec(
        records in vec(vec(any::<u8>(), 0..160), 1..60),
        codec_pick in 0usize..6,
        block_bytes in 64usize..2048,
    ) {
        let codec = segment_codecs()[codec_pick].clone();
        let (path, _guard) = segment_path();
        let config = SegmentConfig {
            target_block_bytes: block_bytes,
            ..SegmentConfig::with_codec(codec)
        };
        let mut writer = SegmentWriter::create(&path, config).unwrap();
        for record in &records {
            writer.append_record(record).unwrap();
        }
        let summary = writer.finish().unwrap();
        prop_assert_eq!(summary.record_count, records.len() as u64);

        let reader = SegmentReader::open(&path).unwrap();
        prop_assert_eq!(reader.record_count(), records.len() as u64);
        // Every record readable by ordinal, byte-identical.
        for (i, record) in records.iter().enumerate() {
            prop_assert_eq!(&reader.get_record(i as u64).unwrap(), record);
        }
        // And the scan reproduces the exact append order.
        let scanned: Vec<Vec<u8>> =
            reader.scan().map(|e| e.unwrap().1).collect();
        prop_assert_eq!(scanned, records);
    }

    #[test]
    fn sorted_keyed_segments_serve_key_lookups(
        suffixes in vec(0u32..1_000_000, 1..80),
        codec_pick in 0usize..6,
    ) {
        let mut keys: Vec<Vec<u8>> = suffixes
            .iter()
            .map(|s| format!("key:{s:07}").into_bytes())
            .collect();
        keys.sort();
        keys.dedup();
        let codec = segment_codecs()[codec_pick].clone();
        let (path, _guard) = segment_path();
        let config = SegmentConfig {
            target_block_bytes: 256, // force several blocks
            ..SegmentConfig::with_codec(codec)
        };
        let mut writer = SegmentWriter::create(&path, config).unwrap();
        for key in &keys {
            let mut value = b"v=".to_vec();
            value.extend_from_slice(key);
            writer.append(key, &value).unwrap();
        }
        writer.finish().unwrap();

        let reader = SegmentReader::open(&path).unwrap();
        for key in keys.iter().step_by(7) {
            let mut expected = b"v=".to_vec();
            expected.extend_from_slice(key);
            prop_assert_eq!(reader.get(key).unwrap(), Some(expected));
        }
        prop_assert_eq!(reader.get(b"key:~~~~").unwrap(), None);
    }

    #[test]
    fn corrupting_any_single_byte_never_panics_the_reader(
        records in vec(vec(any::<u8>(), 1..80), 4..24),
        damage in any::<u8>(),
        position_seed in any::<u64>(),
    ) {
        let (path, _guard) = segment_path();
        let mut writer = SegmentWriter::create(
            &path,
            SegmentConfig {
                target_block_bytes: 128,
                ..SegmentConfig::with_codec(CodecSpec::Raw)
            },
        )
        .unwrap();
        for record in &records {
            writer.append_record(record).unwrap();
        }
        writer.finish().unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let position = (position_seed % bytes.len() as u64) as usize;
        bytes[position] ^= damage.max(1); // always change something
        std::fs::write(&path, &bytes).unwrap();

        // Open may fail (typed) or succeed; reads must never panic and any
        // error must be a typed ArchiveError.
        if let Ok(reader) = SegmentReader::open(&path) {
            for i in 0..reader.record_count() {
                match reader.get_record(i) {
                    Ok(_) => {}
                    Err(e) => { let _: ArchiveError = e; }
                }
            }
        }
    }
}

// ---------------- flat decoded blocks ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_codec_decodes_a_block_to_exactly_its_entries(
        entries in arb_block(),
        probe in arb_block_key(),
    ) {
        let raw_len = serialized_len(&entries);
        for spec in segment_codecs() {
            let codec = build_codec(&spec, &entries);
            let block = codec.compress_block(&entries);
            let decoded = codec.decompress_block(&block, entries.len(), raw_len).unwrap();
            prop_assert_eq!(decoded.len(), entries.len());
            prop_assert_eq!(decoded.to_entries(), entries.clone(), "{}", codec.name());
            // The sorted-key lookup agrees with a linear last-wins scan, for
            // every key in the block and for one that may be absent.
            for key in entries.iter().map(|(k, _)| k).chain([&probe]) {
                let linear = entries.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_slice());
                prop_assert_eq!(decoded.find_last(key), linear, "{}", codec.name());
            }
        }
    }

    #[test]
    fn damaged_blocks_decode_to_a_typed_error_or_a_block_never_a_panic(
        entries in arb_block(),
        cut_seed in any::<u64>(),
        flip_seed in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        let raw_len = serialized_len(&entries);
        for spec in segment_codecs() {
            let codec = build_codec(&spec, &entries);
            let block = codec.compress_block(&entries);
            if block.is_empty() {
                continue;
            }
            let mut truncated = block.clone();
            truncated.truncate((cut_seed % block.len() as u64) as usize);
            let mut flipped = block.clone();
            flipped[(flip_seed % block.len() as u64) as usize] ^= 1 << flip_bit;
            for damaged in [truncated, flipped] {
                // Damage may go unnoticed (a flipped value byte decodes
                // fine); what it may not do is panic or escape the type.
                match codec.decompress_block(&damaged, entries.len(), raw_len) {
                    Ok(decoded) => prop_assert_eq!(decoded.len(), entries.len()),
                    Err(e) => { let _: ArchiveError = e; }
                }
            }
        }
    }
}

// ---------------- segment header / footer ----------------

/// One real segment per codec of [`segment_codecs`]: `kv2` values under
/// ascending keys, in several blocks, with one flagged record.
fn real_segments() -> &'static [Vec<u8>] {
    static SEGMENTS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SEGMENTS.get_or_init(|| {
        let values = Dataset::Kv2.generate(120, 34);
        segment_codecs()
            .into_iter()
            .map(|codec| {
                let (path, _guard) = segment_path();
                let config = SegmentConfig {
                    target_block_bytes: 2048,
                    ..SegmentConfig::with_codec(codec)
                };
                let mut writer = SegmentWriter::create(&path, config).unwrap();
                for (i, value) in values.iter().enumerate() {
                    let key = format!("key:{i:05}");
                    if i == 7 {
                        writer.append_flagged(key.as_bytes(), &[]).unwrap();
                    } else {
                        writer.append(key.as_bytes(), value).unwrap();
                    }
                }
                writer.finish().unwrap();
                std::fs::read(&path).unwrap()
            })
            .collect()
    })
}

/// Pieces of trained artifacts: tag and count bytes, and varint lengths
/// from one byte to past `usize::MAX` on 64-bit targets.
const ARTIFACT_TOKENS: [&[u8]; 10] = [
    &[0],
    &[1],
    &[2],
    &[3],
    &[0x7f],
    &[0x80, 0x01],
    &[0x80, 0x80, 0x80, 0x80, 0x10],
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
    &[0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
    b"key:",
];

/// `bytes` with its header replaced by `header`, CRC resealed.
fn reseal_header(bytes: &[u8], header: &Header) -> Vec<u8> {
    let (_, used) = Header::decode(bytes).unwrap();
    let mut out = header.encode();
    out.extend_from_slice(&bytes[used..]);
    out
}

proptest! {
    // Cases are cheap (the segments are written once); 8192 is what it
    // takes to reach the pattern-literal overflow `Pattern::deserialize`
    // once panicked on.
    #![proptest_config(ProptestConfig::with_cases(8192))]

    /// `SegmentReader::open` and `read_block` over a real segment of every
    /// codec after what a bad disk, a torn copy or a hostile writer can
    /// do to it: one damaged byte, a cut, junk appended; headers that pass
    /// their CRC but carry random, damaged, token-spliced or mislabelled
    /// trained artifacts, so the junk reaches `BlockCodec::from_parts` and,
    /// with the footer intact, the block decoders; a footer index damaged
    /// under a resealed CRC; and a header resealed without the sorted-keys
    /// flag, which must not open. Each is a reader or a typed
    /// `ArchiveError`, each block a block or a typed error: never a panic,
    /// an allocation sized by an unchecked length, or an out-of-bounds
    /// slice.
    #[test]
    fn segment_header_and_footer_survive_arbitrary_bytes(
        codec_pick in 0usize..6,
        shape in 0u8..11,
        at in any::<usize>(),
        bits in any::<u8>(),
        junk in vec(any::<u8>(), 0..768),
    ) {
        let real = &real_segments()[codec_pick];
        let (header, _) = Header::decode(real).unwrap();
        let bytes = match shape {
            0 => {
                let mut bytes = real.clone();
                bytes[at % real.len()] ^= bits.max(1);
                bytes
            }
            1 => real[..at % real.len()].to_vec(),
            2 => [real.as_slice(), &junk].concat(),
            3 => {
                // Random artifacts of the real length: the footer still
                // locates every block, so the blocks decode under them.
                let artifacts = (0..header.artifacts.len())
                    .map(|i| junk.get(i % junk.len().max(1)).copied().unwrap_or(0) ^ i as u8)
                    .collect();
                reseal_header(real, &Header { artifacts, ..header.clone() })
            }
            4 => reseal_header(real, &Header { artifacts: junk, ..header.clone() }),
            5 => {
                // The real artifacts with one byte damaged: parsing gets
                // as deep as the damage.
                let mut artifacts = header.artifacts.clone();
                if !artifacts.is_empty() {
                    let i = at % artifacts.len();
                    artifacts[i] ^= bits.max(1);
                }
                reseal_header(real, &Header { artifacts, ..header.clone() })
            }
            6 => {
                // Artifact-shaped tokens: varint counts and lengths,
                // small, huge and overflowing, between tag bytes.
                let mut artifacts = Vec::new();
                for &b in &junk {
                    artifacts.extend_from_slice(ARTIFACT_TOKENS[b as usize % ARTIFACT_TOKENS.len()]);
                }
                reseal_header(real, &Header { artifacts, ..header.clone() })
            }
            7 => {
                // The real artifacts with one token spliced in over a
                // byte: a count or length field turned huge, mid-parse.
                let mut artifacts = header.artifacts.clone();
                let token = ARTIFACT_TOKENS[bits as usize % ARTIFACT_TOKENS.len()];
                let i = at % (artifacts.len() + 1);
                artifacts.splice(i..(i + 1).min(artifacts.len()), token.iter().copied());
                reseal_header(real, &Header { artifacts, ..header.clone() })
            }
            8 => {
                // Another codec's id over these artifacts, or an unknown one.
                let codec_id = bits % 7;
                reseal_header(real, &Header { codec_id, ..header.clone() })
            }
            9 => reseal_header(real, &Header { flags: 0, ..header.clone() }),
            _ => {
                // One footer byte damaged under a resealed index CRC:
                // record counts, lengths and offsets the reader must
                // check before it trusts them.
                let mut bytes = real.clone();
                let trailer = bytes.len() - TRAILER_LEN;
                let (index_offset, index_len, _) =
                    decode_trailer(bytes[trailer..].try_into().unwrap()).unwrap();
                let index = index_offset as usize..index_offset as usize + index_len as usize;
                bytes[index.start + at % index.len()] ^= bits.max(1);
                let crc = crc32(&bytes[index]);
                bytes[trailer + 12..trailer + 16].copy_from_slice(&crc.to_le_bytes());
                bytes
            }
        };
        let (path, _guard) = segment_path();
        std::fs::write(&path, &bytes).unwrap();
        if shape == 9 {
            prop_assert!(matches!(SegmentReader::open(&path), Err(ArchiveError::UnsortedKeys)));
        }
        if let Ok(reader) = SegmentReader::open(&path) {
            for block in 0..reader.block_count() {
                match reader.read_block(block) {
                    Ok(decoded) => prop_assert!(decoded.len() as u64 <= reader.record_count()),
                    Err(e) => { let _: ArchiveError = e; }
                }
            }
        }
    }
}

/// A block as the tier writes them: keys ascending (from a tiny alphabet,
/// so duplicates and the empty key are common), values empty or prefixed
/// with the tier's live/tombstone marker byte.
fn arb_block() -> impl Strategy<Value = Vec<Entry>> {
    let value = prop_oneof![
        Just(Vec::new()),
        Just(vec![1u8]), // the tier's bare tombstone marker
        vec(any::<u8>(), 0..48).prop_map(|mut body| {
            body.insert(0, 0); // the tier's live marker, then the value
            body
        }),
        "[a-z]{3}=[0-9]{1,6};status=ok;region=[a-c]{1,2}".prop_map(|text| {
            let mut stored = vec![0u8];
            stored.extend_from_slice(text.as_bytes());
            stored
        }),
    ];
    vec((arb_block_key(), value), 0..40).prop_map(|mut entries| {
        entries.sort_by(|a, b| a.0.cmp(&b.0)); // stable: duplicates keep their order
        entries
    })
}

fn arb_block_key() -> impl Strategy<Value = Vec<u8>> {
    vec(0u8..3, 0..3)
}

/// The six codecs a segment can commit to: the five `Auto` picks from,
/// and per-record `Zstd(dict)`, which only a pretrained codec writes.
fn segment_codecs() -> [CodecSpec; 6] {
    static ZSTD_RECORD: OnceLock<BlockCodec> = OnceLock::new();
    let zstd_record = ZSTD_RECORD.get_or_init(|| {
        let values = Dataset::Kv2.generate(200, 5);
        let refs: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
        BlockCodec::PerRecord(RecordCodec::ZstdDict(ZstdDict::train(&refs, 3)))
    });
    [
        CodecSpec::Raw,
        CodecSpec::Pbc(PbcConfig::small()),
        CodecSpec::PbcF(PbcConfig::small()),
        CodecSpec::Zstd { level: 3 },
        CodecSpec::Fsst,
        CodecSpec::Pretrained(zstd_record.clone()),
    ]
}

/// Unique temp path + cleanup guard for property cases.
fn segment_path() -> (std::path::PathBuf, SegmentGuard) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "pbc-proptest-{}-{}.seg",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    (path.clone(), SegmentGuard(path))
}

struct SegmentGuard(std::path::PathBuf);

impl Drop for SegmentGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Strategy producing arbitrary JSON documents of bounded depth, restricted
/// to finite floats (NaN/inf have no JSON representation) and string content
/// without raw control characters.
fn arb_json(depth: u32) -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<i64>().prop_map(|i| JsonValue::Number(Number::Int(i))),
        (-1.0e12f64..1.0e12).prop_map(|f| JsonValue::Number(Number::Float(f))),
        "[ -~]{0,24}".prop_map(JsonValue::String),
    ];
    leaf.prop_recursive(depth, 24, 6, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..6).prop_map(JsonValue::Array),
            vec(("[a-z_]{1,8}", inner), 0..6).prop_map(|members| {
                // Deduplicate keys: JSON objects with duplicate keys do not
                // round-trip structurally.
                let mut seen = std::collections::HashSet::new();
                JsonValue::Object(
                    members
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect(),
                )
            }),
        ]
    })
}

// ---------------- manifest ----------------

/// Manifest-shaped tokens: field values that parse, and ones that do not.
const MANIFEST_TOKENS: [&str; 12] = [
    "segment",
    "segment",
    "0",
    "1",
    "2",
    "7",
    "256",
    "900",
    "18446744073709551615",
    "99999999999999999999",
    "\u{e9}",
    "\n",
];

/// `body` under the CRC line a manifest ends with.
fn seal_manifest(mut body: String) -> Vec<u8> {
    if !body.ends_with('\n') {
        body.push('\n');
    }
    let crc = crc32(body.as_bytes());
    body.push_str(&format!("crc {crc:08x}\n"));
    body.into_bytes()
}

/// A store directory's manifest, written by the store's own encoder.
fn valid_manifest_bytes() -> Vec<u8> {
    let (dir, _guard) = temp_dir("manifest-seed");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = Manifest {
        generation: 12,
        segments: vec![
            ManifestEntry {
                id: 9,
                level: LEVEL_L0,
            },
            ManifestEntry {
                id: 4,
                level: LEVEL_L1,
            },
            ManifestEntry {
                id: 5,
                level: LEVEL_L1,
            },
        ],
    };
    manifest.store(&dir).unwrap();
    std::fs::read(Manifest::path_in(&dir)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Manifest::load` over whatever a crash, a bad disk or a hand edit
    /// can leave behind: random bytes, a valid manifest with one byte
    /// damaged, and manifest-shaped text sealed under a valid CRC (so the
    /// line parser behind the CRC check sees it). Each is a manifest or a typed
    /// error, never a panic. The format is line text with no length
    /// fields, so nothing is allocated past the file's own size.
    #[test]
    fn manifest_load_survives_arbitrary_bytes(
        shape in 0u8..4,
        junk in vec(any::<u8>(), 0..600),
        at in any::<usize>(),
        bits in any::<u8>(),
    ) {
        let (dir, _guard) = temp_dir("manifest-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let bytes = match shape {
            0 => junk,
            1 => {
                let mut bytes = valid_manifest_bytes();
                let at = at % bytes.len();
                bytes[at] ^= bits.max(1);
                bytes
            }
            2 => {
                // Lines of manifest-shaped tokens: each line fails, if it
                // does, at a different field.
                let mut body = String::from("pbc-tier-manifest v4\ngeneration 3\n");
                for &b in &junk {
                    body.push_str(MANIFEST_TOKENS[b as usize % MANIFEST_TOKENS.len()]);
                    if b >= 128 {
                        body.push(' ');
                    }
                }
                seal_manifest(body)
            }
            _ => {
                // A valid manifest with one field swapped: often still a
                // manifest, sometimes a typed error.
                let text = String::from_utf8(valid_manifest_bytes()).unwrap();
                let (body, _crc) = text.trim_end().rsplit_once('\n').unwrap();
                let mut fields: Vec<&str> = body.split(' ').collect();
                let i = at % fields.len();
                fields[i] = MANIFEST_TOKENS[bits as usize % MANIFEST_TOKENS.len()];
                seal_manifest(fields.join(" "))
            }
        };
        std::fs::write(Manifest::path_in(&dir), &bytes).unwrap();
        match Manifest::load(&dir) {
            Ok(Some(manifest)) => {
                // Whatever parsed names segments on a known level.
                for entry in &manifest.segments {
                    prop_assert!(entry.level == LEVEL_L0 || entry.level == LEVEL_L1);
                }
            }
            Ok(None) => prop_assert!(false, "a manifest file exists"),
            Err(TierError::ManifestCorrupt { .. } | TierError::UnsupportedVersion { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
        }
    }
}

/// One WAL record as the reference reader below sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WalRecord {
    Put {
        lsn: u64,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    Delete {
        lsn: u64,
        key: Vec<u8>,
    },
    Checkpoint {
        lsn: u64,
        mark: u64,
        generation: u64,
    },
}

impl WalRecord {
    fn lsn(&self) -> u64 {
        match self {
            WalRecord::Put { lsn, .. }
            | WalRecord::Delete { lsn, .. }
            | WalRecord::Checkpoint { lsn, .. } => *lsn,
        }
    }

    /// The record's payload as the WAL frames it (`lsn u64 | op u8 |
    /// body`, little-endian).
    fn payload(&self) -> Vec<u8> {
        let mut out = self.lsn().to_le_bytes().to_vec();
        match self {
            WalRecord::Put { key, value, .. } => {
                out.push(1);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key);
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
            WalRecord::Delete { key, .. } => {
                out.push(2);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key);
            }
            WalRecord::Checkpoint {
                mark, generation, ..
            } => {
                out.push(3);
                out.extend_from_slice(&mark.to_le_bytes());
                out.extend_from_slice(&generation.to_le_bytes());
            }
        }
        out
    }
}

/// `payload` under a frame header: `len u32 | crc32 u32`.
fn seal_wal_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// The reference reading of one WAL segment: the records of its longest
/// prefix of whole, CRC-valid, well-formed frames, and that prefix's
/// length in bytes.
fn wal_valid_prefix(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    fn u32_at(buf: &[u8], at: usize) -> Option<usize> {
        Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?) as usize)
    }
    fn u64_at(buf: &[u8], at: usize) -> Option<u64> {
        Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
    }
    fn record(payload: &[u8]) -> Option<WalRecord> {
        let lsn = u64_at(payload, 0)?;
        let body = payload.get(9..)?;
        let bytes = |from: usize, len: usize| body.get(from..from + len).map(<[u8]>::to_vec);
        let (record, used) = match payload[8] {
            1 => {
                let key_len = u32_at(body, 0)?;
                let value_len = u32_at(body, 4 + key_len)?;
                let key = bytes(4, key_len)?;
                let value = bytes(8 + key_len, value_len)?;
                (WalRecord::Put { lsn, key, value }, 8 + key_len + value_len)
            }
            2 => {
                let key_len = u32_at(body, 0)?;
                let key = bytes(4, key_len)?;
                (WalRecord::Delete { lsn, key }, 4 + key_len)
            }
            3 => {
                let (mark, generation) = (u64_at(body, 0)?, u64_at(body, 8)?);
                (
                    WalRecord::Checkpoint {
                        lsn,
                        mark,
                        generation,
                    },
                    16,
                )
            }
            _ => return None,
        };
        (used == body.len()).then_some(record)
    }
    let mut records = Vec::new();
    let mut at = 0;
    while let Some(len) = u32_at(bytes, at) {
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
            break;
        };
        if u32_at(bytes, at + 4) != Some(crc32(payload) as usize) {
            break;
        }
        let Some(record) = record(payload) else {
            break;
        };
        records.push(record);
        at += 8 + len;
    }
    (records, at)
}

/// Real frames for records derived from `seed`: puts, deletes and
/// checkpoint markers with ascending LSNs.
fn real_wal_frames(seed: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, chunk) in seed.chunks(6).enumerate() {
        let lsn = i as u64 + 1;
        let key = chunk[..chunk.len().min(3)].to_vec();
        let record = match chunk[0] % 4 {
            0 => WalRecord::Delete { lsn, key },
            1 => WalRecord::Checkpoint {
                lsn,
                mark: u64::from(chunk[chunk.len() - 1] % 16),
                generation: u64::from(chunk[0] % 5),
            },
            _ => WalRecord::Put {
                lsn,
                key,
                value: chunk.to_vec(),
            },
        };
        out.extend(seal_wal_frame(&record.payload()));
    }
    out
}

/// A payload of WAL-shaped fields driven by six bytes of `seed`: mostly
/// well-formed records, with the extremes of each field mixed in — LSNs
/// next to `u64::MAX`, unknown op bytes, length fields up to `u32::MAX`
/// that disagree with the bytes behind them, and a stray trailing byte.
fn wal_field_soup(seed: &[u8]) -> Vec<u8> {
    let at = |i: usize| seed.get(i).copied().unwrap_or(0);
    let wide = [0u64, 1, 2, 7, 1 << 40, u64::MAX - 1, u64::MAX];
    let lengths = [0u32, 1, 3, 8, 255, 1 << 20, 0x8000_0000, u32::MAX];
    let length_field = |actual: usize, choice: u8| -> [u8; 4] {
        let len = if choice < 240 {
            actual as u32
        } else {
            lengths[choice as usize % lengths.len()]
        };
        len.to_le_bytes()
    };
    let lsn = match at(0) {
        0xf8.. => u64::MAX,
        0xf0.. => u64::MAX - 1,
        b => u64::from(b % 8),
    };
    let key = &b"key-value"[..at(2) as usize % 10];
    let value = &b"key-value"[..at(4) as usize % 10];
    let mut out = lsn.to_le_bytes().to_vec();
    let op = match at(1) {
        0xf0.. => [0, 4, 0xff][at(1) as usize % 3],
        b => b % 3 + 1,
    };
    out.push(op);
    match op {
        1 | 2 => {
            out.extend_from_slice(&length_field(key.len(), at(3)));
            out.extend_from_slice(key);
            if op == 1 {
                out.extend_from_slice(&length_field(value.len(), at(5)));
                out.extend_from_slice(value);
            }
        }
        _ => {
            out.extend_from_slice(&wide[at(3) as usize % wide.len()].to_le_bytes());
            out.extend_from_slice(&u64::from(at(5) % 5).to_le_bytes());
        }
    }
    if at(2) >= 248 {
        out.push(at(4));
    }
    out
}

/// Write `segments` as shard 0's segment files in a fresh one-shard WAL
/// directory.
fn write_wal_segments(dir: &std::path::Path, segments: &[&[u8]]) -> Vec<std::path::PathBuf> {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("wal.meta"), b"1\n").unwrap();
    segments
        .iter()
        .enumerate()
        .map(|(seq, bytes)| {
            let path = dir.join(format!("wal-000-{seq:010}.log"));
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect()
}

/// Open the one-shard WAL in `dir`, collecting what it replays.
fn open_wal(
    dir: &std::path::Path,
    generation: u64,
) -> Result<(Vec<WalRecord>, pbc::wal::RecoveryReport), WalError> {
    let mut replayed = Vec::new();
    let config = WalConfig::new(dir).with_shards(1);
    let (_wal, report) = Wal::open(config, WalObs::default(), generation, |op| {
        replayed.push(match op {
            ReplayOp::Put { key, value } => WalRecord::Put {
                lsn: 0,
                key: key.to_vec(),
                value: value.to_vec(),
            },
            ReplayOp::Delete { key } => WalRecord::Delete {
                lsn: 0,
                key: key.to_vec(),
            },
        })
    })?;
    Ok((replayed, report))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Wal::open` over WAL segments holding whatever a crash or a bad
    /// disk can leave: random bytes, real frames cut short or with one
    /// bit flipped, and frames of payload-field soup sealed under valid
    /// CRCs (so the payload parser behind the CRC check sees extreme
    /// LSNs, unknown ops and lengths up to `u32::MAX`). Recovery must
    /// match a reference reader exactly: replay the valid frame prefix
    /// past the visible checkpoint mark and truncate the rest, or — when
    /// a bad frame sits before a newer non-empty segment, or the log has
    /// used up its LSNs — return `WalError::Corrupt`. Never a panic, and
    /// no allocation sized by a length field (a 4 GiB one would abort).
    #[test]
    fn wal_recovery_replays_exactly_the_valid_prefix_of_arbitrary_bytes(
        shape in 0u8..3,
        junk in vec(any::<u8>(), 0..600),
        at in any::<usize>(),
        bits in any::<u8>(),
        split in any::<usize>(),
        generation in 0u64..5,
    ) {
        let (dir, _guard) = temp_dir("wal-frame-fuzz");
        let bytes = match shape {
            0 => junk,
            1 => {
                let mut bytes = real_wal_frames(&junk);
                if !bytes.is_empty() {
                    let at = at % bytes.len();
                    if bits & 1 == 0 {
                        bytes.truncate(at);
                    } else {
                        bytes[at] ^= 1 << (bits >> 5);
                    }
                }
                bytes
            }
            _ => junk
                .chunks(6)
                .flat_map(|seed| seal_wal_frame(&wal_field_soup(seed)))
                .collect(),
        };
        // One segment, or the same bytes split over two.
        let segments: Vec<&[u8]> = if split.is_multiple_of(3) {
            vec![&bytes]
        } else {
            let (older, newer) = bytes.split_at(split % (bytes.len() + 1));
            vec![older, newer]
        };
        let paths = write_wal_segments(&dir, &segments);

        let prefixes: Vec<(Vec<WalRecord>, usize)> =
            segments.iter().map(|s| wal_valid_prefix(s)).collect();
        let newest = segments.iter().rposition(|s| !s.is_empty());
        let torn_before_newest = prefixes
            .iter()
            .zip(&segments)
            .enumerate()
            .any(|(i, ((_, valid), s))| *valid < s.len() && Some(i) != newest);
        let records: Vec<&WalRecord> = prefixes.iter().flat_map(|(r, _)| r).collect();
        let exhausted = records.iter().any(|r| r.lsn() == u64::MAX);
        let mark = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Checkpoint { mark, generation: g, .. } if *g <= generation => Some(*mark),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let (replay, skipped): (Vec<&WalRecord>, Vec<&WalRecord>) = records
            .iter()
            .filter(|r| !matches!(r, WalRecord::Checkpoint { .. }))
            .partition(|r| r.lsn() > mark);
        let expected: Vec<WalRecord> = replay
            .into_iter()
            .map(|r| match r.clone() {
                WalRecord::Put { key, value, .. } => WalRecord::Put { lsn: 0, key, value },
                WalRecord::Delete { key, .. } => WalRecord::Delete { lsn: 0, key },
                checkpoint => checkpoint,
            })
            .collect();

        match open_wal(&dir, generation) {
            Err(WalError::Corrupt { .. }) => {
                prop_assert!(torn_before_newest || exhausted, "recovery refused a recoverable log");
            }
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
            Ok((replayed, report)) => {
                prop_assert!(!torn_before_newest && !exhausted, "recovery accepted a corrupt log");
                prop_assert_eq!(&replayed, &expected);
                prop_assert_eq!(report.records_replayed, expected.len() as u64);
                prop_assert_eq!(report.records_skipped, skipped.len() as u64);
                let torn: usize = newest.map_or(0, |i| segments[i].len() - prefixes[i].1);
                prop_assert_eq!(report.truncated_bytes, torn as u64);
                // What is left on disk is exactly the valid prefix of each
                // segment; a segment left empty is removed.
                for (path, (_, valid)) in paths.iter().zip(&prefixes) {
                    let len = std::fs::metadata(path).map(|m| m.len() as usize).ok();
                    prop_assert_eq!(len, (*valid > 0).then_some(*valid));
                }
                // Recovery is idempotent: a second open replays the same
                // records and truncates nothing.
                let (again, report) = open_wal(&dir, generation).unwrap();
                prop_assert_eq!(&again, &expected);
                prop_assert_eq!(report.truncated_bytes, 0);
            }
        }
    }
}
