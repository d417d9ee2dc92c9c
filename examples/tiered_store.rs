//! Tiered hot/cold storage walkthrough: watermark-driven spilling,
//! read-through gets, overwrite/delete shadowing, incremental (planned)
//! and full compaction, and crash recovery via the generation-stamped
//! manifest.
//!
//! Run with: `cargo run --release --example tiered_store`

use pbc::archive::SegmentConfig;
use pbc::tier::{PlannerConfig, TierConfig, TieredStore};

fn main() {
    let dir = std::env::temp_dir().join(format!("pbc-example-tier-{}", std::process::id()));
    let config = TierConfig::new(&dir)
        .with_watermark(256 * 1024) // tiny on purpose: watch it spill
        .with_cache_capacity(512 * 1024)
        .with_segment_config(SegmentConfig::default())
        .with_planner(PlannerConfig {
            max_segments: 4,            // consolidate L1 once more than 4 partitions are live
            max_dead_ratio: 0.25,       // promote once tombstones pass a quarter of cold records
            max_job_segments: 3,        // ... or 3 L0 segments wait (at most 3 per job)
            ..PlannerConfig::default()  // default L1 partition split size
        });
    let store = TieredStore::open(config.clone()).expect("open tiered store");

    // 1. Ingest more session records than the watermark allows in RAM.
    let n = 20_000usize;
    for i in 0..n {
        let value = format!(
            "sess|uid={}|dev=android-13|ip=10.0.{}.{}|exp={}",
            10_000_000 + (i * 9_700_417) % 89_999_999,
            i % 256,
            (i * 7) % 256,
            1_686_000_000 + (i * 86_413) % 9_999_999
        );
        store
            .set(format!("user:{i:06}").as_bytes(), value.as_bytes())
            .expect("set");
    }
    let stats = store.stats();
    println!(
        "ingested {n} records: {} spills -> {} segments, hot tier {} keys / {} bytes (watermark {})",
        stats.spills,
        store.segment_count(),
        store.hot_len(),
        store.memory_usage_bytes(),
        config.memory_watermark_bytes,
    );

    // 2. Reads fall through hot -> cache -> segments transparently.
    let cold_key = b"user:000002"; // long since spilled
    let value = store.get(cold_key).expect("get").expect("cold key present");
    println!(
        "cold get user:000002 -> {:?}...",
        String::from_utf8_lossy(&value[..28])
    );
    store.get(cold_key).expect("get again");
    println!(
        "block cache: {} hits / {} misses / {} evictions, {} bytes cached",
        store.cache().hits(),
        store.cache().misses(),
        store.cache().evictions(),
        store.cache().cached_bytes(),
    );

    // 3. Overwrites and deletes shadow spilled state.
    store.set(b"user:000002", b"rewritten!").expect("set");
    store.delete(b"user:000003").expect("delete");
    assert_eq!(
        store.get(b"user:000002").expect("get").as_deref(),
        Some(&b"rewritten!"[..])
    );
    assert_eq!(store.get(b"user:000003").expect("get"), None);
    println!("overwrite and tombstone shadow the spilled versions");

    // 4a. Leveled compaction: once L0 holds as many bytes as the L1
    // partitions its key range intersects (or a full batch of segments),
    // the planner promotes bounded L0 runs into sorted, non-overlapping
    // L1 partitions, pulling in exactly the partitions each run's key
    // range intersects — never the whole store.
    // (A background thread does the same when opened with
    // `.with_background_compaction(true)`; one job runs at a time.)
    store.flush_all().expect("flush");
    let before = store.segment_count();
    let jobs = store
        .run_pending_compactions()
        .expect("planned compaction jobs");
    println!(
        "planner ran {jobs} bounded job(s): {before} -> {} segments ({} L0 + {} L1, generation {})",
        store.segment_count(),
        store.l0_segment_count(),
        store.l1_partition_count(),
        store.generation(),
    );

    // 4b. Full compaction folds everything into fresh L1 partitions,
    // dropping every dead version — the offline reorganization path.
    let summary = store.compact().expect("compact");
    println!(
        "full compact of {} segment(s) into {} partition(s): {} live entries, {} shadowed + {} tombstones dropped",
        summary.merged_segments,
        summary.output_partitions,
        summary.live_entries,
        summary.shadowed_dropped,
        summary.tombstones_dropped,
    );

    // 5. Durable state survives a reopen (the manifest names the segments).
    drop(store);
    let reopened = TieredStore::open(config).expect("reopen");
    assert_eq!(
        reopened.get(b"user:000002").expect("get").as_deref(),
        Some(&b"rewritten!"[..])
    );
    assert_eq!(reopened.get(b"user:000003").expect("get"), None);
    println!(
        "reopened cold: {} segment(s), user:000002 and the delete both intact",
        reopened.segment_count()
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
