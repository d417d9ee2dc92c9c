//! Codec kernels: allocation counts and byte identity.
//!
//! `PbcCompressor::decompress_into` writes each literal and field straight
//! into the caller's buffer, so decoding into a buffer with room for the
//! record allocates nothing, matched record or outlier. `compress`
//! allocates once, its output: the span buffers the matcher fills live
//! with the thread's encode buffer.
//! Every byte the kernels produce is pinned by hash — `PBC`, `PBC_F` and
//! whole-record FSST over the four corpora the benchmark runs, at its
//! training config — so a faster kernel cannot silently move one.
//!
//! The same goes for the `Zstd(dict)` block codec every cold segment of the
//! store is written with: each 8 KiB block's compressed bytes are pinned by
//! hash, and with the thread's decode scratch warm a `decompress_block`
//! allocates twice — the payload buffer and its offsets table.
//!
//! This file holds exactly one test: the counting allocator is a
//! process-global, and a second concurrently-running test would pollute
//! the count.

use std::sync::atomic::Ordering;

use pbc::archive::codec::serialized_len;
use pbc::archive::{build_codec, CodecSpec, Entry};
use pbc::core::{PbcCompressor, PbcConfig};
use pbc::datagen::Dataset;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{CountingAllocator, ALLOCATIONS};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// FNV-1a-64 of `bytes`, length first, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let len = (bytes.len() as u64).to_le_bytes();
    len.iter().chain(bytes).fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Allocations `f` makes on this thread (nothing else runs in this file).
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// `Zstd(dict)` over `records` keyed by ordinal, in 8 KiB blocks (a block
/// is cut once its serialized entries reach 8 KiB), the codec trained on
/// the first block: every compressed block's bytes hashed, every block
/// round-tripped, and the allocations of each warm `decompress_block`
/// bounded.
fn zstd_blocks_hash(records: &[Vec<u8>]) -> u64 {
    let mut blocks: Vec<Vec<Entry>> = vec![Vec::new()];
    for (i, record) in records.iter().enumerate() {
        let block = blocks.last_mut().expect("one open block");
        block.push((format!("key:{i:08}").into_bytes(), record.clone()));
        if serialized_len(block) >= 8 * 1024 {
            blocks.push(Vec::new());
        }
    }
    blocks.retain(|block| !block.is_empty());
    let codec = build_codec(&CodecSpec::Zstd { level: 3 }, &blocks[0]);
    assert_eq!(codec.name(), "Zstd(dict)");
    let compressed: Vec<Vec<u8>> = blocks.iter().map(|b| codec.compress_block(b)).collect();
    // A first pass grows the thread's decode scratch to its high-water mark.
    for (block, bytes) in blocks.iter().zip(&compressed) {
        codec
            .decompress_block(bytes, block.len(), serialized_len(block))
            .unwrap();
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (block, bytes) in blocks.iter().zip(&compressed) {
        hash = fnv1a(hash, bytes);
        let (decoded, made) =
            allocations(|| codec.decompress_block(bytes, block.len(), serialized_len(block)));
        assert!(
            made <= 2,
            "Zstd(dict) decompress_block made {made} allocations"
        );
        assert_eq!(&decoded.unwrap().to_entries(), block);
    }
    hash
}

#[test]
fn record_kernels_allocate_as_pinned_and_keep_every_byte() {
    // The benchmark's training config (`bench_pbc_config`).
    let config = PbcConfig {
        max_sample_records: 128,
        max_sample_bytes: 24 * 1024,
        target_clusters: 16,
        ..PbcConfig::default()
    };
    let (mut matched, mut outliers) = (0usize, 0usize);
    for (dataset, pinned, zstd_pinned) in [
        (
            Dataset::Kv2,
            0x3994_3851_0dc5_306fu64,
            0xb2c0_97c4_6f98_5b8cu64,
        ),
        (Dataset::Hdfs, 0x9929_b4e8_77ea_b744, 0x20d2_06ab_32ac_fd13),
        (
            Dataset::Github,
            0x15af_58c5_3f9d_1148,
            0xf9e5_948a_efff_0b69,
        ),
        (Dataset::Urls, 0xfca8_0420_7132_943b, 0x7295_f61a_804d_2d75),
    ] {
        let mut records = dataset.generate(4000, 2023);
        let zstd_hash = zstd_blocks_hash(&records);
        assert_eq!(
            zstd_hash,
            zstd_pinned,
            "{}: Zstd(dict) block bytes moved (hash {zstd_hash:#018x})",
            dataset.name()
        );
        let refs: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let pbc_f = PbcCompressor::train_fsst(&refs, &config);
        let pbc = PbcCompressor::from_dictionary(pbc_f.dictionary().clone(), &config);
        let fsst = pbc_f.residual_fsst().expect("PBC_F has an FSST table");
        // One record no pattern fits, so every corpus has an outlier.
        records.push(b"{no pattern has this shape} \x00\xff".to_vec());
        // A first pass grows the thread's encode buffer to its high-water
        // mark; after that a compress allocates only what it returns.
        for record in &records {
            pbc.compress(record);
            pbc_f.compress(record);
        }

        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut out = Vec::with_capacity(records.iter().map(Vec::len).max().unwrap_or(0));
        for record in &records {
            for codec in [&pbc, &pbc_f] {
                let (compressed, made) = allocations(|| codec.compress(record));
                assert!(
                    made <= 1,
                    "{} {}: compress made {made} allocations",
                    dataset.name(),
                    codec.variant_name()
                );
                hash = fnv1a(hash, &compressed);
                if compressed[0] == 0 {
                    outliers += 1;
                } else {
                    matched += 1;
                }

                out.clear();
                let (decoded, made) = allocations(|| codec.decompress_into(&compressed, &mut out));
                decoded.unwrap();
                assert_eq!(
                    made,
                    0,
                    "{} {}: decompress_into allocated",
                    dataset.name(),
                    codec.variant_name()
                );
                assert_eq!(&out, record);
            }
            hash = fnv1a(hash, &fsst.encode(record));
        }
        assert_eq!(
            hash,
            pinned,
            "{}: kernel output moved (hash {hash:#018x})",
            dataset.name()
        );
    }
    assert!(
        matched > 0 && outliers > 0,
        "{matched} matched, {outliers} outliers"
    );
}
