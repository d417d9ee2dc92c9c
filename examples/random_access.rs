//! Random-access scenario (the paper's Figure 5) on the archive's block
//! codecs: a block-compressed value forces whole-block decompression per
//! lookup, while per-record PBC_F decodes one record whatever the block
//! size. Each lookup is the `BlockCodec::entry_at` call a segment reader
//! makes once it has fetched the block, and is checked against the record
//! it should return.
//!
//! Run with: `cargo run --release --example random_access`

use std::sync::Arc;
use std::time::Instant;

use pbc::archive::codec::serialized_len;
use pbc::archive::{BlockCodec, Entry};
use pbc::codecs::ZstdLike;
use pbc::core::{PbcCompressor, PbcConfig};
use pbc::datagen::Dataset;

/// Compress `records` in blocks of `block_size`, look every index in
/// `lookups` up, and return (ratio, lookups per second).
fn measure(
    codec: &BlockCodec,
    records: &[Vec<u8>],
    block_size: usize,
    lookups: &[usize],
) -> (f64, f64) {
    // (compressed block, record count, serialized length)
    let blocks: Vec<(Vec<u8>, usize, usize)> = records
        .chunks(block_size)
        .map(|chunk| {
            let entries: Vec<Entry> = chunk.iter().map(|r| (Vec::new(), r.clone())).collect();
            let block = codec.compress_block(&entries);
            (block, entries.len(), serialized_len(&entries))
        })
        .collect();
    let start = Instant::now();
    for &i in lookups {
        let (block, count, raw_len) = &blocks[i / block_size];
        let (_, value) = codec
            .entry_at(block, i % block_size, *count, *raw_len)
            .expect("a block this function compressed decodes");
        assert_eq!(value, records[i]);
    }
    let secs = start.elapsed().as_secs_f64();
    let compressed: usize = blocks.iter().map(|(block, ..)| block.len()).sum();
    let raw: usize = records.iter().map(Vec::len).sum();
    (compressed as f64 / raw as f64, lookups.len() as f64 / secs)
}

fn main() {
    let records = Dataset::Kv2.generate(8_000, 3);
    let sample: Vec<&[u8]> = records
        .iter()
        .step_by(30)
        .take(260)
        .map(|r| r.as_slice())
        .collect();
    let lookups: Vec<usize> = (0..500).map(|i| (i * 7919 + 11) % records.len()).collect();

    println!(
        "{:<26} {:>10} {:>14}",
        "storage layout", "ratio", "lookups/sec"
    );

    // Block-compressed Zstd: the ratio improves with the block size and
    // lookups get slower (each one decompresses a whole block). Per-record
    // PBC_F: the ratio does not depend on the block size, and a lookup
    // walks frame headers and decodes one record.
    let codecs = [
        (
            "Zstd",
            BlockCodec::Zstd {
                codec: ZstdLike::new(1),
                dictionary: Arc::default(),
            },
        ),
        (
            "PBC_F",
            BlockCodec::Pbc {
                compressor: Arc::new(PbcCompressor::train_fsst(&sample, &PbcConfig::default())),
                fsst: true,
            },
        ),
    ];
    for (name, codec) in &codecs {
        for block_size in [1usize, 16, 256, 4096] {
            let (ratio, per_sec) = measure(codec, &records, block_size, &lookups);
            println!(
                "{:<26} {:>10.3} {:>14.0}",
                format!("{name} blocks of {block_size}"),
                ratio,
                per_sec
            );
        }
    }
}
