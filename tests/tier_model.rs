//! Property test: randomized set/get/delete/spill/compact sequences on a
//! [`TieredStore`] are observationally identical to a `BTreeMap` model.
//!
//! Spills and compactions — full merges and planner-selected *leveled*
//! jobs alike — are pure reorganizations: they move data between tiers and
//! rewrite segments but must never change what any get returns. The
//! watermark is set tiny so organic spills trigger mid-sequence on top of
//! the explicit spill/compact ops, the planner thresholds are set low so
//! leveled jobs (L0→L1 promotions and L1 consolidations) actually run
//! between the interleaved writes and deletes, and the L1 partition size
//! is set tiny so the leveled read path exercises real multi-partition
//! binary searches. After every compaction-shaped op, L1 must be sorted
//! and pairwise non-overlapping and hold no tombstones; the manifest
//! generation must only ever move forward. The hot tier runs both
//! uncompressed and under a trained `PBC_F` value codec (the paper's
//! in-memory case), so spill writes, point reads and the scan's lazily
//! decoded hot rows all go through the codec too.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use pbc::archive::{RecordCodec, SegmentReader};
use pbc::core::{PbcCompressor, PbcConfig};
use pbc::tier::{PlannerConfig, TierConfig, TieredStore};

mod support;
use support::temp_dir;

/// The leveling invariant: L1 sorted, pairwise non-overlapping, and
/// tombstone-free (every leveled job drops tombstones on the way down).
/// And the one range scans rely on: every live segment, L0 or L1, holds
/// each key once, in strictly ascending order.
fn assert_l1_invariant(store: &TieredStore) {
    let (l0, l1) = store.leveled_stats();
    for stats in l0.iter().chain(&l1) {
        let path = store.config().dir.join(format!("seg-{:06}.seg", stats.id));
        let reader = SegmentReader::open(&path).unwrap();
        let keys: Vec<Vec<u8>> = reader.scan().map(|entry| entry.unwrap().0).collect();
        assert!(
            keys.windows(2).all(|pair| pair[0] < pair[1]),
            "segment {} repeats a key or is out of order",
            stats.id
        );
    }
    for pair in l1.windows(2) {
        assert!(
            pair[0].max_key < pair[1].min_key,
            "L1 partitions {} and {} overlap or are out of order",
            pair[0].id,
            pair[1].id
        );
    }
    assert!(
        l1.iter().all(|p| p.tombstones == 0),
        "L1 never stores tombstones"
    );
}

fn value(k: usize, v: u32) -> Vec<u8> {
    format!("value|{k:03}|{v:08}|padding-to-make-spills-happen").into_bytes()
}

/// `PBC_F` trained once on a few hundred of the test's own values.
fn pbc_f_codec() -> RecordCodec {
    static CODEC: std::sync::OnceLock<RecordCodec> = std::sync::OnceLock::new();
    CODEC
        .get_or_init(|| {
            let samples: Vec<Vec<u8>> = (0..300usize)
                .map(|i| value(i % 48, (i as u32).wrapping_mul(2_654_435_761) % 100_000))
                .collect();
            let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
            RecordCodec::Pbc(Arc::new(PbcCompressor::train_fsst(
                &refs,
                &PbcConfig::small(),
            )))
        })
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiered_store_matches_btreemap_model(
        ops in vec((0u8..9, 0usize..48, 0u32..100_000), 20..160),
        compressed_hot in any::<bool>(),
    ) {
        let (dir, _guard) = temp_dir("tier-model");
        let hot_codec = if compressed_hot { pbc_f_codec() } else { RecordCodec::Raw };
        let store = TieredStore::open(
            TierConfig::new(&dir)
                .with_hot_codec(hot_codec)
                .with_watermark(2 * 1024) // tiny: organic spills mid-sequence
                .with_cache_capacity(8 * 1024)
                .with_planner(PlannerConfig {
                    max_segments: 2,     // leveled jobs trigger quickly...
                    max_dead_ratio: 0.2, // ...on deletes too
                    max_job_segments: 3, // but stay bounded (k <= 3)
                    target_partition_bytes: 2 * 1024, // many small L1 partitions
                }),
        )
        .unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut last_generation = store.generation();

        for (op, k, v) in ops {
            let key = format!("key:{k:03}").into_bytes();
            match op {
                // Weight sets highest so state actually accumulates.
                0..=2 => {
                    let value = value(k, v);
                    store.set(&key, &value).unwrap();
                    model.insert(key.clone(), value);
                }
                3 | 4 => {
                    let got = store.get(&key).unwrap();
                    prop_assert_eq!(&got, &model.get(&key).cloned(), "get {:?}", key);
                }
                5 => {
                    let existed = store.delete(&key).unwrap();
                    prop_assert_eq!(
                        existed,
                        model.remove(&key).is_some(),
                        "delete {:?}",
                        key
                    );
                }
                6 => store.spill_coldest(1 + k % 3).unwrap(),
                7 => {
                    // Planner-selected leveled jobs: promote bounded L0
                    // runs into L1, leave the rest untouched.
                    store.run_pending_compactions().unwrap();
                    assert_l1_invariant(&store);
                }
                _ => {
                    store.compact().unwrap();
                    assert_l1_invariant(&store);
                }
            }
            // The just-touched key must agree after every op.
            prop_assert_eq!(&store.get(&key).unwrap(), &model.get(&key).cloned());
            let generation = store.generation();
            prop_assert!(
                generation >= last_generation,
                "generation moved backwards: {} -> {}",
                last_generation,
                generation
            );
            last_generation = generation;
        }

        // One ordered pass over every tier (hot rows decode lazily through
        // the hot codec) is the model, row for row.
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = store
            .range_scan::<&[u8], _>(..)
            .unwrap()
            .map(|row| row.unwrap())
            .collect();
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected, "full scan vs model");

        // Final sweep: the full keyspace (present and absent keys alike)
        // is observationally identical, through leveled jobs and a full
        // compact.
        store.flush_all().unwrap();
        store.run_pending_compactions().unwrap();
        assert_l1_invariant(&store);
        for k in 0..48usize {
            let key = format!("key:{k:03}").into_bytes();
            prop_assert_eq!(
                &store.get(&key).unwrap(),
                &model.get(&key).cloned(),
                "after leveled compactions, key {}",
                k
            );
        }
        store.compact().unwrap();
        assert_l1_invariant(&store);
        prop_assert_eq!(store.l0_segment_count(), 0, "full compact drains L0");
        for k in 0..48usize {
            let key = format!("key:{k:03}").into_bytes();
            prop_assert_eq!(
                &store.get(&key).unwrap(),
                &model.get(&key).cloned(),
                "final sweep key {}",
                k
            );
        }
    }
}

/// ROADMAP defect 0(a): a get overlapping a delete must never fall through
/// to an older spilled version of the key.
///
/// `key` has version 0 in a cold segment. One writer loops
/// `set(key, n)` / `delete(key)`; readers loop `get(key)`. A reader that
/// saw set `floor` complete before its get began may observe `None` (a
/// delete landed) or any version `>= floor` — never an older one, and in
/// particular never the spilled version 0 once set 1 has completed.
///
/// The second input adds a thread that calls `flush_all` in a loop, so
/// spills copy, write and evict the key while the sets and deletes race
/// them: a spill may evict only a slot no write has replaced since its
/// copy, or a get (or a delete's probe) falls through to an older version.
#[test]
fn a_get_racing_a_delete_never_sees_an_older_spilled_version() {
    race_gets_and_deletes(200, false);
    race_gets_and_deletes(100, true);
}

fn race_gets_and_deletes(iterations: u64, flushing: bool) {
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    const ROUNDS_PER_ITERATION: u64 = 500;
    const READERS: usize = 2;
    let version = |n: u64| format!("version:{n:012}").into_bytes();
    let key = b"contended-key";

    for iteration in 0..iterations {
        let (dir, _guard) = temp_dir("tier-model");
        // Default watermark: nothing spills on its own during the race.
        let store = TieredStore::open(TierConfig::new(&dir)).unwrap();
        store.set(key, &version(0)).unwrap();
        store.flush_all().unwrap();
        assert_eq!(store.hot_len(), 0, "version 0 lives only in a segment");

        let last_completed_set = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let threads = READERS + usize::from(flushing);
        let start = Barrier::new(threads + 1);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    start.wait();
                    while !done.load(Ordering::Acquire) {
                        let floor = last_completed_set.load(Ordering::Acquire);
                        if let Some(value) = store.get(key).unwrap() {
                            assert!(
                                value >= version(floor),
                                "iteration {iteration}: read {:?} after set {floor} completed",
                                String::from_utf8_lossy(&value),
                            );
                        }
                    }
                });
            }
            if flushing {
                scope.spawn(|| {
                    start.wait();
                    while !done.load(Ordering::Acquire) {
                        store.flush_all().unwrap();
                    }
                });
            }
            start.wait();
            // Judged after `done` is set, so a failure cannot strand the
            // other threads.
            let every_delete_found_its_value = (1..=ROUNDS_PER_ITERATION).all(|n| {
                store.set(key, &version(n)).unwrap();
                last_completed_set.store(n, Ordering::Release);
                store.delete(key).unwrap()
            });
            done.store(true, Ordering::Release);
            assert!(
                every_delete_found_its_value,
                "iteration {iteration}: a delete missed its value"
            );
        });
        assert_eq!(store.get(key).unwrap(), None, "the last op was a delete");
    }
}
