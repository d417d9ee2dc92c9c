//! Durable segments: write a corpus to disk, reopen it cold, and serve
//! random per-record reads — the storage-engine side of the paper's
//! random-access story (Figure 5 / Section 7.5), now persistent.
//!
//! ```text
//! cargo run --release --example archive_segments
//! ```

use std::time::Instant;

use pbc::archive::{CodecSpec, SegmentConfig, SegmentReader, SegmentWriter};
use pbc::datagen::Dataset;

fn main() {
    let records = Dataset::Kv2.generate(20_000, 0x5eed);
    let raw_bytes: usize = records.iter().map(|r| r.len()).sum();
    let path = std::env::temp_dir().join(format!("pbc-example-{}.seg", std::process::id()));

    // Write: records are grouped into ~64 KiB blocks; the codec is
    // trial-selected over up to 4 sample blocks spread across the first 16,
    // and every block is compressed as it closes.
    let config = SegmentConfig::with_codec(CodecSpec::Auto);
    let started = Instant::now();
    let mut writer = SegmentWriter::create(&path, config).expect("create segment");
    for record in &records {
        writer.append_record(record).expect("append");
    }
    let summary = writer.finish().expect("finish");
    let write_secs = started.elapsed().as_secs_f64();
    println!(
        "wrote {} records ({:.1} MB raw) in {:.2}s -> {} blocks, codec {}, ratio {:.3}",
        summary.record_count,
        raw_bytes as f64 / 1e6,
        write_secs,
        summary.block_count,
        summary.codec,
        summary.ratio(),
    );

    // Reopen cold: the header re-hydrates the trained dictionaries, the
    // footer index enables O(log n) record addressing.
    let reader = SegmentReader::open(&path).expect("reopen segment");
    println!(
        "reopened: {} records in {} blocks, codec {}, per-record access: {}",
        reader.record_count(),
        reader.block_count(),
        reader.codec_name(),
        reader.is_per_record(),
    );

    // Random reads, verified against the in-memory originals.
    let lookups = 2_000usize;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let started = Instant::now();
    for _ in 0..lookups {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let i = state % reader.record_count();
        let value = reader.get_record(i).expect("random read");
        assert_eq!(
            value, records[i as usize],
            "record {i} must read back identical"
        );
    }
    let secs = started.elapsed().as_secs_f64();
    println!(
        "{lookups} random reads verified byte-identical in {:.3}s ({:.0} lookups/s)",
        secs,
        lookups as f64 / secs
    );

    std::fs::remove_file(&path).expect("cleanup");
}
