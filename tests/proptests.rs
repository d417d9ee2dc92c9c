//! Property-based tests over the core data structures and codecs.

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;

use pbc::archive::codec::serialized_len;
use pbc::archive::{
    build_codec, ArchiveError, CodecSpec, Entry, SegmentConfig, SegmentReader, SegmentWriter,
};
use pbc::codecs::traits::{Codec, TrainableCodec};
use pbc::codecs::{fsst, huffman, varint, FsstCodec, Lz4Like, LzmaLike, SnappyLike, ZstdLike};
use pbc::core::matching::{match_record, reassemble};
use pbc::core::{FieldEncoder, Pattern, PbcCompressor, PbcConfig};
use pbc::datagen::Dataset;
use pbc::json::{parse, to_string, JsonValue, Number};

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
        for (codec, compressed) in [&kernels.pbc, &kernels.pbc_f].into_iter().zip(&kernels.compressed) {
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
            match codec.decompress_into(&data, &mut out) {
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

/// `PBC` and `PBC_F` trained once on `kv2` records, with every record
/// compressed by each (the first of them outliers).
struct TrainedKernels {
    pbc: PbcCompressor,
    pbc_f: PbcCompressor,
    compressed: [Vec<Vec<u8>>; 2],
}

fn trained_kernels() -> &'static TrainedKernels {
    static KERNELS: OnceLock<TrainedKernels> = OnceLock::new();
    KERNELS.get_or_init(|| {
        let mut records = vec![b"no pattern has this shape \x00\xff".to_vec()];
        records.extend(Dataset::Kv2.generate(300, 7));
        let refs: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let pbc_f = PbcCompressor::train_fsst(&refs, &PbcConfig::small());
        let pbc = PbcCompressor::from_dictionary(pbc_f.dictionary().clone(), &PbcConfig::small());
        let compressed =
            [&pbc, &pbc_f].map(|codec| records.iter().map(|r| codec.compress(r)).collect());
        TrainedKernels {
            pbc,
            pbc_f,
            compressed,
        }
    })
}

// ---------------- archive segments ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn segments_roundtrip_arbitrary_records_under_every_codec(
        records in vec(vec(any::<u8>(), 0..160), 1..60),
        codec_pick in 0usize..5,
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
        codec_pick in 0usize..5,
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
        prop_assert!(reader.is_sorted());
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

/// The five codec choices a segment can commit to.
fn segment_codecs() -> [CodecSpec; 5] {
    [
        CodecSpec::Raw,
        CodecSpec::Pbc(PbcConfig::small()),
        CodecSpec::PbcF(PbcConfig::small()),
        CodecSpec::Zstd { level: 3 },
        CodecSpec::Fsst,
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
