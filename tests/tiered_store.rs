//! Acceptance test for the tiered storage engine (ISSUE 2).
//!
//! Ingest ≥50k mixed-corpus records with a watermark low enough to force
//! ≥3 spilled segments, overwrite 10% of the keys, delete 5%, compact,
//! then verify: 5k random gets (hot, cold-cached, cold-uncached) are
//! byte-identical to a reference map, memory stays under the watermark,
//! and the manifest reopens cold after a simulated crash (temp file left
//! behind) with zero lost acknowledged writes.

use std::collections::BTreeMap;

use pbc::archive::SegmentConfig;
use pbc::tier::{TierConfig, TieredStore};

mod support;
use support::temp_dir;

/// Mixed machine-generated corpus: KV-session, JSON-order, and access-log
/// shaped records, interleaved.
fn mixed_value(i: usize) -> Vec<u8> {
    match i % 3 {
        0 => format!(
            "sess|{:016x}|uid={}|dev=android-13|ip=10.0.{}.{}|exp={}",
            (i as u64).wrapping_mul(0x9e3779b97f4a7c15),
            10_000_000 + (i * 9_700_417) % 89_999_999,
            i % 256,
            (i * 7) % 256,
            1_686_000_000 + (i * 86_413) % 9_999_999
        ),
        1 => format!(
            "{{\"order_id\":\"ORD2023{:010}\",\"user_id\":{},\"status\":\"PAID\",\"cents\":{}}}",
            (i as u64 * 1_234_567_891) % 10_000_000_000,
            10_000_000 + (i * 9_700_417) % 89_999_999,
            100 + (i * 7_103) % 5_000_000
        ),
        _ => format!(
            "10.2.{}.{} - - [12/Jun/2023:10:{:02}:{:02}] \"GET /api/v1/items/{} HTTP/1.1\" 200 {}",
            i % 256,
            (i * 13) % 256,
            (i / 60) % 60,
            i % 60,
            10_000 + i * 17,
            512 + (i * 331) % 20_000
        ),
    }
    .into_bytes()
}

fn key(i: usize) -> Vec<u8> {
    format!("rec:{i:08}").into_bytes()
}

/// Deterministic LCG for probe sequences.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1);
    *state >> 33
}

#[test]
fn tiered_store_acceptance() {
    const RECORDS: usize = 50_000;
    const WATERMARK: u64 = 512 * 1024;
    let (dir, _guard) = temp_dir("tier");
    let config = TierConfig::new(&dir)
        .with_watermark(WATERMARK)
        .with_cache_capacity(1024 * 1024)
        .with_segment_config(SegmentConfig::default());
    let store = TieredStore::open(config.clone()).unwrap();
    let mut reference: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    // --- Ingest ≥50k mixed records; the watermark bound must hold after
    // every write ("under watermark + one shard": spilling drives usage
    // back to or below the watermark itself before set returns). ---
    for i in 0..RECORDS {
        let value = mixed_value(i);
        store.set(&key(i), &value).unwrap();
        reference.insert(key(i), value);
        assert!(
            store.memory_usage_bytes() <= WATERMARK,
            "memory {} exceeded the watermark after write {i}",
            store.memory_usage_bytes()
        );
    }
    assert!(
        store.segment_count() >= 3,
        "watermark must have forced >= 3 spill segments, got {}",
        store.segment_count()
    );

    // --- Overwrite 10% of keys, delete 5%. ---
    for i in (0..RECORDS).step_by(10) {
        let value = format!("overwritten|{i}|rev=2").into_bytes();
        store.set(&key(i), &value).unwrap();
        reference.insert(key(i), value);
    }
    for i in (0..RECORDS).step_by(20) {
        let existed = store.delete(&key(i)).unwrap();
        assert_eq!(existed, reference.remove(&key(i)).is_some(), "delete {i}");
    }

    // --- Compact. Every spill committed a manifest generation; the full
    // compact commits one more, and the per-segment stats recorded at
    // spill time make the dead entries observable beforehand. ---
    let segments_before = store.segment_count();
    assert!(segments_before >= 3);
    let stats_before = store.stats();
    assert!(stats_before.cold_records > 0, "spill stats recorded");
    let generation_before = store.generation();
    assert!(generation_before > 0);
    let summary = store.compact().unwrap();
    assert_eq!(summary.merged_segments, segments_before);
    assert_eq!(store.segment_count(), 1);
    assert_eq!(store.generation(), generation_before + 1, "one commit");
    let stats_after = store.stats();
    assert_eq!(
        stats_after.cold_tombstones, 0,
        "a full compact drops every tombstone"
    );
    assert_eq!(stats_after.cold_dead_ratio(), 0.0);

    // --- 5k random gets: hot (fresh overwrites), cold-uncached (first
    // touch after compaction emptied nothing from hot but the cache lost
    // the old segments), cold-cached (repeat probes). ---
    let mut state = 0xfeed_beef_cafe_f00du64;
    for probe in 0..5_000 {
        let i = (lcg(&mut state) as usize) % RECORDS;
        assert_eq!(
            store.get(&key(i)).unwrap(),
            reference.get(&key(i)).cloned(),
            "probe {probe} key {i}"
        );
    }
    let stats = store.stats();
    assert!(stats.hot_hits > 0, "some probes must hit hot");
    assert!(stats.cold_gets > 0, "some probes must go cold");
    assert!(
        stats.cold_cache_hits > 0,
        "repeat probes must hit the cache"
    );
    assert!(
        stats.cold_cache_misses > 0,
        "first touches must miss the cache"
    );
    assert_eq!(
        stats.cold_cache_hits + stats.cold_cache_misses,
        stats.cold_gets
    );
    assert!(store.memory_usage_bytes() <= WATERMARK);

    // --- Crash simulation: make everything durable, then "crash" leaving
    // manifest debris and a half-written segment behind. ---
    store.flush_all().unwrap();
    // The flush spilled the hot tombstones left by the deletes above; the
    // per-segment stats recorded at spill time make them observable.
    assert!(
        store.stats().cold_tombstones > 0,
        "spilled deletes counted as cold tombstones"
    );
    drop(store);
    std::fs::write(dir.join("MANIFEST.tmp"), b"interrupted manifest swap").unwrap();
    std::fs::write(dir.join("seg-099999.seg"), b"torn segment write").unwrap();

    let reopened = TieredStore::open(config).unwrap();
    assert!(!dir.join("MANIFEST.tmp").exists(), "debris swept on reopen");
    assert!(
        !dir.join("seg-099999.seg").exists(),
        "orphan swept on reopen"
    );
    assert_eq!(reopened.hot_len(), 0, "reopen starts cold");
    assert!(
        reopened.generation() > 0,
        "reopen resumes the committed generation"
    );
    let reopened_stats = reopened.segment_stats();
    assert!(!reopened_stats.is_empty());
    assert!(
        reopened_stats.iter().all(|s| s.records > 0),
        "per-segment stats reload from the manifest"
    );

    // Zero lost acknowledged writes: every reference entry (and every
    // deletion) is still observable, byte-identical.
    let mut state = 0x0123_4567_89ab_cdefu64;
    for probe in 0..5_000 {
        let i = (lcg(&mut state) as usize) % RECORDS;
        assert_eq!(
            reopened.get(&key(i)).unwrap(),
            reference.get(&key(i)).cloned(),
            "post-crash probe {probe} key {i}"
        );
    }
}
