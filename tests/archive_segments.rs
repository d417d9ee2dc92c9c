//! Acceptance tests for the `pbc-archive` segment store:
//!
//! * a segment written from ≥10k datagen records (logs + JSON corpora)
//!   reopens cold and serves 1k random `get_record(i)` lookups
//!   byte-identical to the originals, for multiple codec choices;
//! * the multi-threaded `SegmentWriter` produces byte-identical files to
//!   the single-threaded path;
//! * corrupted files (truncated footer, bit-flipped block, wrong magic)
//!   surface typed `ArchiveError`s instead of panicking.

use std::path::PathBuf;

use pbc::archive::{ArchiveError, CodecSpec, SegmentConfig, SegmentReader, SegmentWriter};
use pbc::core::PbcConfig;
use pbc::datagen::Dataset;

mod support;
use support::{temp_dir, TempDir};

/// ≥10k records mixing a log corpus and a JSON corpus, as the paper's
/// datasets do.
fn mixed_corpus() -> Vec<Vec<u8>> {
    let mut records = Dataset::Hdfs.generate(6_000, 0xa5a5);
    records.extend(Dataset::Github.generate(5_000, 0x5a5a));
    assert!(records.len() >= 10_000);
    records
}

fn write_records(path: &std::path::Path, records: &[Vec<u8>], codec: CodecSpec, workers: usize) {
    let mut writer =
        SegmentWriter::create(path, SegmentConfig::with_codec(codec).with_workers(workers))
            .expect("create segment");
    for record in records {
        writer.append_record(record).expect("append record");
    }
    writer.finish().expect("finish segment");
}

/// Deterministic probe sequence over `count` ordinals.
fn probes(count: u64, n: usize) -> impl Iterator<Item = u64> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    std::iter::repeat_with(move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        state % count
    })
    .take(n)
}

#[test]
fn ten_k_records_reopen_cold_and_serve_1k_random_lookups_for_three_codecs() {
    let records = mixed_corpus();
    for codec in [
        CodecSpec::Pbc(PbcConfig::small()),
        CodecSpec::Zstd { level: 3 },
        CodecSpec::Fsst,
    ] {
        let (path, _guard) = temp_dir("accept");
        write_records(&path, &records, codec.clone(), 1);

        // Reopen cold: a fresh reader re-hydrating everything from disk.
        let reader = SegmentReader::open(&path).expect("reopen segment");
        assert_eq!(reader.record_count(), records.len() as u64);
        for i in probes(reader.record_count(), 1_000) {
            assert_eq!(
                reader.get_record(i).expect("random lookup"),
                records[i as usize],
                "codec {codec:?}, record {i}"
            );
        }
    }
}

#[test]
fn four_worker_writer_is_byte_identical_to_single_threaded() {
    let records = mixed_corpus();
    let (path_single, _g1) = temp_dir("workers-1");
    let (path_multi, _g2) = temp_dir("workers-4");
    let codec = CodecSpec::Pbc(PbcConfig::small());
    write_records(&path_single, &records, codec.clone(), 1);
    write_records(&path_multi, &records, codec, 4);
    let single = std::fs::read(&path_single).unwrap();
    let multi = std::fs::read(&path_multi).unwrap();
    assert!(!single.is_empty());
    assert_eq!(single, multi, "worker count must not change the bytes");
}

#[test]
fn auto_codec_compresses_and_roundtrips_the_mixed_corpus() {
    // The corpus drifts mid-stream (HDFS logs, then Github JSON), so the
    // codec trial-selected on the first block is wrong for the tail; the
    // per-block raw fallback must still bound the segment below raw size.
    let records = mixed_corpus();
    let raw: usize = records.iter().map(|r| r.len()).sum();
    let (path, _guard) = temp_dir("auto");
    let mut writer = SegmentWriter::create(&path, SegmentConfig::default()).expect("create");
    for record in &records {
        writer.append_record(record).expect("append");
    }
    let summary = writer.finish().expect("finish");
    assert!(
        summary.compressed_bytes < raw as u64,
        "raw fallback must prevent expansion under drift, got {} of {raw}",
        summary.compressed_bytes
    );
    let reader = SegmentReader::open(&path).expect("reopen");
    for i in probes(reader.record_count(), 300) {
        assert_eq!(reader.get_record(i).unwrap(), records[i as usize]);
    }
}

#[test]
fn auto_codec_halves_a_homogeneous_corpus() {
    let records = Dataset::Kv2.generate(10_000, 0xbeef);
    let raw: usize = records.iter().map(|r| r.len()).sum();
    let (path, _guard) = temp_dir("auto-homog");
    let mut writer = SegmentWriter::create(&path, SegmentConfig::default()).expect("create");
    for record in &records {
        writer.append_record(record).expect("append");
    }
    let summary = writer.finish().expect("finish");
    assert!(
        summary.compressed_bytes < raw as u64 / 2,
        "auto codec should at least halve templated data, got {} of {raw} ({})",
        summary.compressed_bytes,
        summary.codec
    );
    let reader = SegmentReader::open(&path).expect("reopen");
    for i in probes(reader.record_count(), 300) {
        assert_eq!(reader.get_record(i).unwrap(), records[i as usize]);
    }
}

// ---------------- corruption handling ----------------

fn small_segment() -> (PathBuf, TempDir) {
    let (path, guard) = temp_dir("corrupt");
    let records = Dataset::Hdfs.generate(800, 0xc0de);
    write_records(&path, &records, CodecSpec::Zstd { level: 3 }, 1);
    (path, guard)
}

#[test]
fn truncated_footer_is_a_typed_error() {
    let (path, _guard) = small_segment();
    let bytes = std::fs::read(&path).unwrap();
    // Chop off half the trailer.
    std::fs::write(&path, &bytes[..bytes.len() - 12]).unwrap();
    match SegmentReader::open(&path) {
        Err(ArchiveError::BadMagic {
            location: "trailer",
            ..
        })
        | Err(ArchiveError::Truncated { .. }) => {}
        other => panic!("expected trailer corruption error, got {other:?}"),
    }

    // Chop into the index region: trailer parses but the index cannot.
    std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
    assert!(SegmentReader::open(&path).is_err());
}

#[test]
fn bit_flipped_block_fails_the_block_crc_on_read() {
    let (path, _guard) = small_segment();
    let mut bytes = std::fs::read(&path).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    let total = reader.record_count();
    drop(reader);

    // Flip one bit just before the index region — always inside the last
    // block's bytes (the trailer's first 8 bytes store the index offset).
    let trailer_start = bytes.len() - 24;
    let index_offset =
        u64::from_le_bytes(bytes[trailer_start..trailer_start + 8].try_into().unwrap()) as usize;
    bytes[index_offset - 10] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    // Open still succeeds (header and index CRCs are intact) ...
    let reader = SegmentReader::open(&path).unwrap();
    // ... but reading through the damaged block reports the CRC mismatch.
    let mut saw_crc_error = false;
    for i in 0..total {
        match reader.get_record(i) {
            Ok(_) => {}
            Err(ArchiveError::CrcMismatch { what: "block", .. }) => {
                saw_crc_error = true;
                break;
            }
            Err(other) => panic!("expected block CrcMismatch, got {other:?}"),
        }
    }
    assert!(saw_crc_error, "the flipped bit must be detected");
}

#[test]
fn wrong_magic_is_a_typed_error() {
    let (path, _guard) = small_segment();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0..8].copy_from_slice(b"NOTASEG!");
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        SegmentReader::open(&path),
        Err(ArchiveError::BadMagic {
            location: "header",
            ..
        })
    ));
}

#[test]
fn unknown_codec_id_and_header_bitflips_are_typed_errors() {
    let (path, _guard) = small_segment();
    let good = std::fs::read(&path).unwrap();

    // Corrupt the codec id byte: the header CRC catches it.
    let mut bad = good.clone();
    bad[10] = 200;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        SegmentReader::open(&path),
        Err(ArchiveError::CrcMismatch { what: "header", .. })
    ));

    // A flipped bit inside the embedded dictionary artifacts likewise.
    let mut bad = good.clone();
    bad[40] ^= 0x01;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        SegmentReader::open(&path),
        Err(ArchiveError::CrcMismatch { what: "header", .. })
    ));
}
