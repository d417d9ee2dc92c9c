//! # pbc-archive — persistent, random-access segment store
//!
//! The paper's production case study (Section 7.5) and its random-access
//! experiment (Figure 5) rely on per-record decompression inside a real
//! storage engine. This crate supplies the durable half of that story: a
//! self-describing on-disk **segment** format where records are grouped
//! into fixed-target-size blocks, each block independently compressed with
//! a per-segment codec choice (PBC / PBC_F / Zstd-like / FSST / raw —
//! trial-selected on the first block or forced via [`CodecSpec`]), with the
//! trained PBC pattern dictionary, FSST symbol table, and Zstd dictionary
//! embedded once in the segment header.
//!
//! A footer holds a block index (record counts, raw/compressed offsets,
//! per-block min/max key, CRCs) enabling `O(log n)` record lookup and — for
//! the per-record codecs — true per-record random access without
//! decompressing the rest of the block. [`SegmentWriter`] fans block
//! compression out across a `std::thread` worker pool (sequence-numbered
//! results reassembled in order), so ingest scales with cores while the
//! produced file stays byte-identical to the single-threaded one.
//!
//! See `format.rs` for the byte-level layout and versioning rules.
//!
//! ## Example
//!
//! ```
//! use pbc_archive::{CodecSpec, SegmentConfig, SegmentReader, SegmentWriter};
//!
//! let path = std::env::temp_dir().join(format!("pbc-archive-doc-{}.seg", std::process::id()));
//! let mut writer = SegmentWriter::create(&path, SegmentConfig::default()).unwrap();
//! for i in 0..500u32 {
//!     let record = format!("evt|id={i:08}|status=done");
//!     writer.append_record(record.as_bytes()).unwrap();
//! }
//! let summary = writer.finish().unwrap();
//! assert_eq!(summary.record_count, 500);
//!
//! let reader = SegmentReader::open(&path).unwrap();
//! assert_eq!(reader.get_record(123).unwrap(), b"evt|id=00000123|status=done");
//! std::fs::remove_file(&path).unwrap();
//! ```

#![warn(missing_docs)]
// `unsafe` is allowed in exactly one place: the audited `mmap` module
// (which opts back in with a module-level `allow`). `deny` rather than
// `forbid` because `forbid` cannot be overridden even by that one module.
#![deny(unsafe_code)]

pub mod block;
pub mod codec;
pub mod error;
pub mod format;
pub mod mmap;
pub mod obs;
pub mod positioned;
pub mod reader;
pub mod writer;

pub use block::DecodedBlock;
pub use codec::{build_codec, select_codec_over_blocks, BlockCodec, CodecSpec, Entry};
pub use error::{ArchiveError, Result};
pub use mmap::MappedFile;
pub use obs::{ReaderObs, WriterObs};
pub use reader::{RangeScan, ReadMode, Scan, SegmentReader};
pub use writer::{
    entry_size_estimate, spread_sample_indices, SegmentConfig, SegmentSummary, SegmentWriter,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique temp path per test file, cleaned up by the returned guard.
    pub(crate) fn temp_segment(tag: &str) -> (PathBuf, TempGuard) {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "pbc-archive-test-{}-{}-{}.seg",
            std::process::id(),
            tag,
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        (path.clone(), TempGuard(path))
    }

    pub(crate) struct TempGuard(PathBuf);

    impl Drop for TempGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn keyed_records(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("acct:{i:010}").into_bytes(),
                    format!(
                        "{{\"order_id\":\"ORD2023{:010}\",\"user_id\":{},\"status\":\"PAID\",\"cents\":{}}}",
                        (i as u64 * 1_234_567_891) % 10_000_000_000,
                        10_000_000 + (i * 9_700_417) % 89_999_999,
                        100 + (i * 7_103) % 5_000_000
                    )
                    .into_bytes(),
                )
            })
            .collect()
    }

    fn write_segment(
        path: &std::path::Path,
        records: &[(Vec<u8>, Vec<u8>)],
        config: SegmentConfig,
    ) -> SegmentSummary {
        let mut writer = SegmentWriter::create(path, config).unwrap();
        for (key, value) in records {
            writer.append(key, value).unwrap();
        }
        writer.finish().unwrap()
    }

    #[test]
    fn write_reopen_random_access_roundtrip() {
        let (path, _guard) = temp_segment("roundtrip");
        let records = keyed_records(2_000);
        let summary = write_segment(&path, &records, SegmentConfig::default());
        assert_eq!(summary.record_count, 2_000);
        assert!(summary.block_count > 1, "should span multiple blocks");
        assert!(summary.ratio() < 0.8, "templated data should compress");

        let reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.record_count(), 2_000);
        assert!(reader.is_sorted());
        for i in [0u64, 1, 999, 1_234, 1_999] {
            let (key, value) = reader.get_entry(i).unwrap();
            assert_eq!((key, value), records[i as usize]);
        }
        assert_eq!(
            reader.get(b"acct:0000001500").unwrap().as_deref(),
            Some(records[1_500].1.as_slice())
        );
        assert_eq!(reader.get(b"acct:zzz").unwrap(), None);
        assert!(matches!(
            reader.get_record(2_000),
            Err(ArchiveError::RecordOutOfRange {
                index: 2_000,
                count: 2_000
            })
        ));
    }

    #[test]
    fn flagged_counts_survive_the_footer_across_worker_counts() {
        let records = keyed_records(2_400);
        for workers in [1usize, 4] {
            let (path, _guard) = temp_segment("flagged");
            let mut writer =
                SegmentWriter::create(&path, SegmentConfig::default().with_workers(workers))
                    .unwrap();
            let mut flagged = 0u64;
            for (i, (key, value)) in records.iter().enumerate() {
                if i % 7 == 0 {
                    writer.append_flagged(key, value).unwrap();
                    flagged += 1;
                } else {
                    writer.append(key, value).unwrap();
                }
            }
            let summary = writer.finish().unwrap();
            assert_eq!(summary.flagged_count, flagged);

            let reader = SegmentReader::open(&path).unwrap();
            assert_eq!(reader.flagged_count(), flagged, "workers={workers}");
            let per_block: u64 = (0..reader.block_count())
                .map(|b| reader.block_flagged_count(b))
                .sum();
            assert_eq!(per_block, flagged);
            // Flagging changes nothing about the stored records.
            assert_eq!(reader.get_entry(0).unwrap(), records[0]);
            assert_eq!(reader.min_key().unwrap(), records[0].0.as_slice());
            assert_eq!(
                reader.max_key().unwrap(),
                records.last().unwrap().0.as_slice()
            );
        }
    }

    #[test]
    fn scan_streams_every_entry_in_order() {
        let (path, _guard) = temp_segment("scan");
        let records = keyed_records(700);
        write_segment(&path, &records, SegmentConfig::default());
        let reader = SegmentReader::open(&path).unwrap();
        let scanned: Vec<Entry> = reader.scan().map(|e| e.unwrap()).collect();
        assert_eq!(scanned, records);
    }

    #[test]
    fn scan_range_matches_the_filtered_full_scan() {
        let (path, _guard) = temp_segment("scan-range");
        let records = keyed_records(2_500);
        let summary = write_segment(
            &path,
            &records,
            SegmentConfig {
                target_block_bytes: 4 * 1024, // many blocks: seeks are real
                ..SegmentConfig::default()
            },
        );
        assert!(summary.block_count > 8, "range seeks need several blocks");
        let reader = SegmentReader::open(&path).unwrap();
        for (start, end) in [
            (
                b"acct:0000000100".to_vec(),
                Some(b"acct:0000000200".to_vec()),
            ),
            (
                b"acct:0000001999".to_vec(),
                Some(b"acct:0000002003".to_vec()),
            ),
            (b"acct:0000002400".to_vec(), None), // unbounded tail
            (b"acct:zzz".to_vec(), None),        // past every key
            (
                b"acct:0000000500".to_vec(),
                Some(b"acct:0000000400".to_vec()),
            ), // inverted
        ] {
            let got: Vec<Entry> = reader
                .scan_range(&start, end.as_deref())
                .unwrap()
                .map(|e| e.unwrap())
                .collect();
            let want: Vec<Entry> = records
                .iter()
                .filter(|(k, _)| *k >= start && end.as_ref().is_none_or(|e| k <= e))
                .cloned()
                .collect();
            assert_eq!(got, want, "range {start:?}..={end:?}");
        }
        // The shared bounds helper agrees with the point-lookup helper.
        let key = b"acct:0000001500";
        assert_eq!(
            reader.candidate_blocks_for_key(key).unwrap(),
            reader.candidate_blocks_for_range(key, Some(key)).unwrap()
        );
    }

    #[test]
    fn every_forced_codec_roundtrips_on_disk() {
        use pbc_core::PbcConfig;
        let records = keyed_records(600);
        for spec in [
            CodecSpec::Raw,
            CodecSpec::Pbc(PbcConfig::small()),
            CodecSpec::PbcF(PbcConfig::small()),
            CodecSpec::Zstd { level: 3 },
            CodecSpec::Fsst,
        ] {
            let (path, _guard) = temp_segment("forced");
            write_segment(&path, &records, SegmentConfig::with_codec(spec.clone()));
            let reader = SegmentReader::open(&path).unwrap();
            for i in (0..records.len()).step_by(97) {
                assert_eq!(
                    reader.get_record(i as u64).unwrap(),
                    records[i].1,
                    "codec {spec:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_writer_produces_byte_identical_segments() {
        let records = keyed_records(3_000);
        let (path_single, _g1) = temp_segment("single");
        let (path_parallel, _g2) = temp_segment("parallel");
        write_segment(&path_single, &records, SegmentConfig::default());
        write_segment(
            &path_parallel,
            &records,
            SegmentConfig::default().with_workers(4),
        );
        let single = std::fs::read(&path_single).unwrap();
        let parallel = std::fs::read(&path_parallel).unwrap();
        assert_eq!(single, parallel, "worker count must not change the file");
    }

    #[test]
    fn unsorted_appends_clear_the_sorted_flag_even_after_header_write() {
        let (path, _guard) = temp_segment("unsorted");
        let mut writer = SegmentWriter::create(
            &path,
            SegmentConfig {
                target_block_bytes: 512,
                ..SegmentConfig::default()
            },
        )
        .unwrap();
        // Plenty of sorted records first, so the header (with the sorted
        // flag) is already on disk...
        for i in 0..200u32 {
            writer
                .append(format!("k{i:06}").as_bytes(), b"value")
                .unwrap();
        }
        // ...then one key out of order.
        writer.append(b"a-first", b"late").unwrap();
        writer.finish().unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        assert!(!reader.is_sorted());
        assert!(matches!(
            reader.get(b"k000001"),
            Err(ArchiveError::UnsortedKeys)
        ));
        // Ordinal access still works.
        assert_eq!(reader.get_record(200).unwrap(), b"late");
    }

    #[test]
    fn crafted_trailer_offsets_error_instead_of_overflowing() {
        let (path, _guard) = temp_segment("crafted-trailer");
        let records = keyed_records(50);
        write_segment(&path, &records, SegmentConfig::default());
        let mut bytes = std::fs::read(&path).unwrap();
        // index_offset near u64::MAX with a small index_len: the additions
        // in open() must stay checked, not panic in debug builds.
        let trailer_start = bytes.len() - format::TRAILER_LEN;
        let crafted = format::encode_trailer(u64::MAX - 20, 4, 0);
        bytes[trailer_start..].copy_from_slice(&crafted);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(ArchiveError::Truncated {
                context: "block index"
            })
        ));
    }

    #[test]
    fn auto_selection_samples_past_an_unrepresentative_first_block() {
        // First blocks: pseudo-random noise. Tail: highly templated records.
        // First-block-only selection would commit to what the noise
        // suggests (Raw) and store the whole templated tail uncompressed;
        // window sampling must spot the tail and pick a real codec.
        let (path, _guard) = temp_segment("drift");
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut records: Vec<(Vec<u8>, Vec<u8>)> = (0..60usize)
            .map(|i| {
                let value: Vec<u8> = (0..80)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        (state >> 33) as u8
                    })
                    .collect();
                (format!("k:{i:06}").into_bytes(), value)
            })
            .collect();
        for i in 60..2_000usize {
            records.push((
                format!("k:{i:06}").into_bytes(),
                format!(
                    "evt|uid={}|dev=ios-17|region=eu-{}|ts={}",
                    10_000_000 + (i * 9_700_417) % 89_999_999,
                    i % 8,
                    1_686_000_000 + i * 7
                )
                .into_bytes(),
            ));
        }
        let summary = write_segment(
            &path,
            &records,
            SegmentConfig {
                target_block_bytes: 4 * 1024,
                ..SegmentConfig::default()
            },
        );
        assert!(summary.block_count > 16, "must outgrow the sampling window");
        assert_ne!(summary.codec, "Raw", "sampling must see past the noise");
        assert!(
            summary.ratio() < 0.7,
            "templated tail should compress, got {}",
            summary.ratio()
        );
        // And the mixed segment still roundtrips exactly.
        let reader = SegmentReader::open(&path).unwrap();
        for i in (0..records.len()).step_by(111) {
            assert_eq!(reader.get_entry(i as u64).unwrap(), records[i]);
        }
    }

    #[test]
    fn empty_segment_roundtrips() {
        let (path, _guard) = temp_segment("empty");
        let writer = SegmentWriter::create(&path, SegmentConfig::default()).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.record_count, 0);
        assert_eq!(summary.codec, "Raw");
        let reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.record_count(), 0);
        assert_eq!(reader.scan().count(), 0);
    }

    #[test]
    fn keyless_records_roundtrip_by_ordinal() {
        let (path, _guard) = temp_segment("keyless");
        let mut writer = SegmentWriter::create(&path, SegmentConfig::default()).unwrap();
        let records: Vec<Vec<u8>> = (0..1_000)
            .map(|i| format!("GET /api/v1/users/{}/profile HTTP/1.1", 10_000 + i * 17).into_bytes())
            .collect();
        for record in &records {
            writer.append_record(record).unwrap();
        }
        writer.finish().unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        for i in (0..records.len()).step_by(53) {
            assert_eq!(reader.get_record(i as u64).unwrap(), records[i]);
        }
    }
}
