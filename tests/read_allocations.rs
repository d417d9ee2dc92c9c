//! Allocation bound for an uncached cold point read (ISSUE 15).
//!
//! A block decodes into one flat `DecodedBlock` — a byte buffer and an
//! offsets table — with the codec's scratch reused per thread, so a cache
//! miss costs a handful of allocations however many records the block
//! holds. Decoding into a `Vec` of owned key/value pairs cost two per
//! record (~85 for an 8 KiB block), and freeing them across threads on
//! eviction is what kept cold reads from scaling past one client.
//!
//! This file holds exactly one test: the counting allocator is a
//! process-global, and a second concurrently-running test would pollute
//! the count.

use std::sync::atomic::Ordering;

use pbc::archive::{CodecSpec, SegmentConfig, SegmentReader};
use pbc::tier::{TierConfig, TieredStore};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{CountingAllocator, ALLOCATIONS};

mod support;
use support::temp_dir;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn key(i: usize) -> Vec<u8> {
    format!("user:{i:08}").into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    format!(
        "sess|{:016x}|uid={}|dev=android-13|ip=10.0.{}.{}|exp={}|pad={}",
        (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        10_000_000 + (i * 9_700_417) % 89_999_999,
        i % 256,
        (i * 7) % 256,
        1_686_000_000 + (i * 86_413) % 9_999_999,
        "x".repeat(60 + i % 40),
    )
    .into_bytes()
}

#[test]
fn an_uncached_get_on_a_zstd_segment_allocates_a_handful_of_times() {
    const KEYS: usize = 4_000;
    const MAX_ALLOCATIONS_PER_MISS: usize = 12;
    let (dir, _guard) = temp_dir("read-allocations");
    // No maintenance thread, no WAL: this thread is the only one allocating.
    let config = TierConfig::new(&dir)
        .with_cache_capacity(64 * 1024)
        .with_reuse_spill_codec(false)
        .with_segment_config(SegmentConfig {
            target_block_bytes: 8 * 1024,
            ..SegmentConfig::with_codec(CodecSpec::Zstd { level: 3 })
        });
    let store = TieredStore::open(config).unwrap();
    for i in 0..KEYS {
        store.set(&key(i), &value(i)).unwrap();
    }
    store.flush_all().unwrap();
    assert_eq!(store.hot_len(), 0);
    let mut records_per_block = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "seg") {
            let reader = SegmentReader::open(&path).unwrap();
            assert_eq!(reader.codec_name(), "Zstd(dict)");
            records_per_block = reader.record_count() as usize / reader.block_count();
        }
    }
    assert!(
        records_per_block >= 30,
        "want blocks of dozens of records, got {records_per_block}"
    );

    // One miss first, so lazily-grown state (the thread's decode scratch,
    // the cache's maps) is not charged to the reads being counted.
    assert_eq!(store.get(&key(KEYS - 1)).unwrap(), Some(value(KEYS - 1)));

    // Probes three blocks apart: each lands in a block no earlier probe
    // touched, and the cache holds only a few blocks anyway.
    let mut worst = 0usize;
    let mut probes = 0u64;
    for i in (0..KEYS - records_per_block).step_by(3 * records_per_block) {
        let (probe, expected) = (key(i), value(i));
        let misses_before = store.stats().cold_cache_misses;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let got = store.get(&probe).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(got, Some(expected));
        assert_eq!(
            store.stats().cold_cache_misses,
            misses_before + 1,
            "probe {i} was meant to miss the block cache"
        );
        worst = worst.max(allocations);
        probes += 1;
    }
    assert!(probes >= 20, "only {probes} probes ran");
    assert!(
        worst <= MAX_ALLOCATIONS_PER_MISS,
        "an uncached get made {worst} allocations (limit {MAX_ALLOCATIONS_PER_MISS}) \
         on blocks of ~{records_per_block} records"
    );
}
