//! Range-scan semantics: ordered, duplicate-free, tombstone-aware, and
//! snapshot-consistent under concurrent compaction.
//!
//! The property test runs randomized set/delete/spill/scan sequences
//! against a `BTreeMap` model **with the background maintenance thread
//! compacting concurrently** (tiny watermark and planner thresholds, a
//! 1 ms tick): every scan must return exactly the model's range, or its
//! first `limit` rows for a limited scan — same keys, same values, same
//! order, so no duplicates, no resurrected deletes, no missed keys — no
//! matter how many jobs committed mid-scan.
//! The unit tests pin a scan *before* a compaction commit and assert it
//! still reads the retired (unlinked) segments, and that writes after
//! iterator creation are invisible.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use pbc::tier::{PlannerConfig, TierConfig, TieredStore};

mod support;
use support::temp_dir;

fn key(k: usize) -> Vec<u8> {
    format!("key:{k:04}").into_bytes()
}

fn collect_scan(store: &TieredStore, lo: &[u8], hi: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    store
        .range_scan(lo..=hi)
        .expect("create scan")
        .map(|row| row.expect("scan row"))
        .collect()
}

fn model_range(
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    lo: &[u8],
    hi: &[u8],
) -> Vec<(Vec<u8>, Vec<u8>)> {
    model
        .range::<[u8], _>((std::ops::Bound::Included(lo), std::ops::Bound::Included(hi)))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn range_scans_match_btreemap_model_under_concurrent_compaction(
        ops in vec((0u8..10, 0usize..64, 0usize..64, 0u32..100_000), 30..140)
    ) {
        let (dir, _guard) = temp_dir("model");
        let store = TieredStore::open(
            TierConfig::new(&dir)
                .with_watermark(2 * 1024) // organic spills mid-sequence
                .with_cache_capacity(8 * 1024)
                .with_planner(PlannerConfig {
                    max_segments: 2,     // jobs trigger quickly
                    max_dead_ratio: 0.2, // on deletes too
                    max_job_segments: 3,
                    target_partition_bytes: 2 * 1024, // many small L1 partitions
                })
                .with_background_compaction(true) // the concurrency under test
                .with_maintenance_tick(Duration::from_millis(1)),
        )
        .unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for (op, a, b, v) in ops {
            let k = key(a);
            match op {
                // Weight sets highest so state accumulates across tiers.
                0..=3 => {
                    let value =
                        format!("value|{a:04}|{v:08}|padding-so-spills-actually-happen")
                            .into_bytes();
                    store.set(&k, &value).unwrap();
                    model.insert(k, value);
                }
                4 | 5 => {
                    let existed = store.delete(&k).unwrap();
                    prop_assert_eq!(existed, model.remove(&k).is_some(), "delete {:?}", a);
                }
                6 => store.spill_coldest(1 + a % 3).unwrap(),
                _ => {
                    let (lo, hi) = (key(a.min(b)), key(a.max(b)));
                    // A third of the scans unlimited, the rest cut short
                    // (0 included), so the hot cut often stops mid-range.
                    let limit = if v % 3 == 0 { usize::MAX } else { (v % 16) as usize };
                    let got: Vec<(Vec<u8>, Vec<u8>)> = store
                        .range_scan_limited(lo.as_slice()..=hi.as_slice(), limit)
                        .expect("create scan")
                        .map(|row| row.expect("scan row"))
                        .collect();
                    let want: Vec<_> = model_range(&model, &lo, &hi).into_iter().take(limit).collect();
                    // Exact equality: same keys in the same (ascending)
                    // order with the same values — no duplicates, no
                    // deleted keys, nothing missed — while background
                    // jobs retire segments underneath the iterator.
                    prop_assert_eq!(got, want, "scan [{:?}, {:?}] limit {}", a.min(b), a.max(b), limit);
                }
            }
        }

        // Final full-range sweep, then again after forcing everything
        // cold and compacting mid-drain of a live iterator.
        let all = collect_scan(&store, &key(0), &key(63));
        let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(&all, &want);
        store.flush_all().unwrap();
        let mut pinned = store.range_scan(key(0)..=key(63)).unwrap();
        let first = pinned.next();
        store.compact().unwrap();
        let mut drained: Vec<(Vec<u8>, Vec<u8>)> =
            first.into_iter().map(|r| r.unwrap()).collect();
        drained.extend(pinned.map(|r| r.unwrap()));
        prop_assert_eq!(&drained, &want, "scan pinned across compact()");
    }
}

/// A scan pinned before a compaction commit keeps reading the retired
/// segments: the `Arc` snapshot holds their readers (and, on unix, their
/// unlinked files) alive, and its generation stays the one it pinned.
#[test]
fn scan_pinned_before_a_job_commit_still_reads_retired_segments() {
    let (dir, _guard) = temp_dir("pinned");
    let store = TieredStore::open(
        TierConfig::new(&dir)
            .with_watermark(u64::MAX)
            .with_cache_capacity(0), // every block comes off disk
    )
    .unwrap();
    let mut expected: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for i in 0..600usize {
        let v = format!("v1|{i:05}|first-generation-payload").into_bytes();
        store.set(&key(i % 1000), &v).unwrap();
        expected.insert(key(i % 1000), v);
    }
    store.flush_all().unwrap();
    // Overwrites and deletes land in a second, overlapping segment.
    for i in (0..600usize).step_by(5) {
        let v = format!("v2|{i:05}").into_bytes();
        store.set(&key(i), &v).unwrap();
        expected.insert(key(i), v);
    }
    for i in (0..600usize).step_by(17) {
        store.delete(&key(i)).unwrap();
        expected.remove(&key(i));
    }
    store.flush_all().unwrap();
    assert!(store.segment_count() >= 2, "overlapping cold segments");

    // Pin the scan, then retire every input it is reading.
    let mut scan = store.range_scan(key(0)..).unwrap();
    let pinned_generation = scan.generation();
    assert_eq!(pinned_generation, store.stats().generation);
    let head = scan.next().expect("non-empty").expect("row");
    let summary = store.compact().unwrap();
    assert!(summary.merged_segments >= 2, "the scan's inputs retired");
    assert!(
        store.stats().generation > pinned_generation,
        "the commit moved the store forward"
    );
    // The retired files are gone from the directory...
    let live_files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".seg"))
        .collect();
    assert_eq!(
        live_files.len(),
        store.segment_count(),
        "retired inputs unlinked; only the compaction outputs remain"
    );
    // ...but the pinned scan still drains them, completely and in order.
    let mut rows = vec![head];
    rows.extend(scan.map(|r| r.unwrap()));
    let want: Vec<_> = expected
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(rows, want, "pinned scan reads the retired segment set");

    // Scan-path gauges moved: footers were consulted and blocks decoded.
    let stats = store.stats();
    assert!(stats.range_scans >= 1);
    assert!(stats.scan_segments_opened >= 2);
    assert!(stats.scan_blocks_decoded >= 1);
    assert!(stats.scan_bytes_decoded > 0);

    // A wide range amortizes the block decodes a narrow one pays for a
    // few rows: decoded bytes per row must not grow with the range (no
    // cache here, so every block a scan touches is decoded).
    let bytes_decoded_per_row = |lo: usize, hi: usize| {
        let before = store.stats().scan_bytes_decoded;
        let rows = collect_scan(&store, &key(lo), &key(hi)).len();
        assert_eq!(rows, model_range(&expected, &key(lo), &key(hi)).len());
        (store.stats().scan_bytes_decoded - before) as f64 / rows as f64
    };
    let (narrow, wide) = (
        bytes_decoded_per_row(300, 307),
        bytes_decoded_per_row(0, 599),
    );
    assert!(
        narrow > 0.0 && wide <= narrow,
        "wide {wide} vs narrow {narrow}"
    );
}

/// Writes issued after `range_scan` returns are never visible to that
/// iterator — the snapshot is taken at creation.
#[test]
fn writes_after_iterator_creation_are_invisible() {
    let (dir, _guard) = temp_dir("isolation");
    let store = TieredStore::open(TierConfig::new(&dir)).unwrap();
    for i in 0..100usize {
        store.set(&key(i), b"original").unwrap();
    }
    let scan = store.range_scan(key(0)..=key(199)).unwrap();
    // New key, overwrite, and delete — all after creation.
    store.set(&key(150), b"late-insert").unwrap();
    store.set(&key(10), b"late-overwrite").unwrap();
    store.delete(&key(20)).unwrap();
    let rows: Vec<(Vec<u8>, Vec<u8>)> = scan.map(|r| r.unwrap()).collect();
    assert_eq!(rows.len(), 100, "late insert invisible");
    assert!(
        rows.iter().all(|(_, v)| v == b"original"),
        "late overwrite invisible"
    );
    assert!(
        rows.iter().any(|(k, _)| k == &key(20)),
        "late delete invisible"
    );
    // A fresh scan sees the new state.
    let fresh: BTreeMap<Vec<u8>, Vec<u8>> = store
        .range_scan(key(0)..=key(199))
        .unwrap()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(fresh.len(), 100, "one inserted, one deleted");
    assert_eq!(fresh.get(&key(150)).unwrap(), b"late-insert");
    assert_eq!(fresh.get(&key(10)).unwrap(), b"late-overwrite");
    assert!(!fresh.contains_key(&key(20)));
}

/// Bound-shape coverage: exclusive, half-open, unbounded, inverted, and
/// empty ranges all behave like the `BTreeMap` equivalents.
#[test]
fn every_bound_shape_matches_the_model() {
    let (dir, _guard) = temp_dir("bounds");
    let store = TieredStore::open(
        TierConfig::new(&dir).with_watermark(4 * 1024), // mixed hot/cold
    )
    .unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for i in 0..300usize {
        let v = format!("bounds|{i:04}|padded-for-spilling").into_bytes();
        store.set(&key(i), &v).unwrap();
        model.insert(key(i), v);
    }
    let collect =
        |scan: pbc::tier::RangeScan<'_>| -> Vec<Vec<u8>> { scan.map(|r| r.unwrap().0).collect() };
    // Exclusive end.
    let got = collect(store.range_scan(key(10)..key(20)).unwrap());
    let want: Vec<_> = model
        .range(key(10)..key(20))
        .map(|(k, _)| k.clone())
        .collect();
    assert_eq!(got, want);
    // Unbounded both sides (full scan).
    let got = collect(store.range_scan::<Vec<u8>, _>(..).unwrap());
    assert_eq!(got.len(), model.len());
    // Excluded start via (Bound, Bound).
    let got = collect(
        store
            .range_scan((
                std::ops::Bound::Excluded(key(10)),
                std::ops::Bound::Included(key(12)),
            ))
            .unwrap(),
    );
    assert_eq!(got, vec![key(11), key(12)]);
    // Empty and inverted ranges yield nothing (and don't panic).
    assert_eq!(store.range_scan(key(10)..key(10)).unwrap().count(), 0);
    assert_eq!(store.range_scan(key(20)..=key(10)).unwrap().count(), 0);
    // Range past every key.
    assert_eq!(store.range_scan(key(900)..).unwrap().count(), 0);
}
