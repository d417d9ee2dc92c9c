//! Acceptance tests for the observability layer (ISSUE 6): the
//! cache-accounting invariant under concurrent readers and background
//! compaction, exact histogram sample accounting across threads, the
//! structured trace ring, the background-error ring, and both export
//! formats.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pbc::obs::Event;
use pbc::tier::{PlannerConfig, TierConfig, TierStats, TieredStore};

mod support;
use support::temp_dir;

fn key(i: usize) -> Vec<u8> {
    format!("obs:{i:07}").into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    format!(
        "val|{i}|pad={:032x}",
        (i as u64).wrapping_mul(0x9e3779b97f4a7c15)
    )
    .into_bytes()
}

/// Deterministic LCG for per-thread probe sequences.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1);
    *state >> 33
}

/// Spin until two consecutive stats snapshots agree — nothing is mid-update.
fn quiesce(store: &TieredStore) -> TierStats {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let before = store.stats();
        std::thread::sleep(Duration::from_millis(20));
        let after = store.stats();
        if before == after {
            return after;
        }
        assert!(Instant::now() < deadline, "store never quiesced");
    }
}

/// ISSUE 6 satellite: `cold_cache_hits + cold_cache_misses == cold_gets`
/// must hold with readers racing background compaction commits, and the
/// typed [`TierStats`] view must agree with the registry it is a view of.
#[test]
fn cold_cache_accounting_holds_under_concurrent_readers_and_compaction() {
    const RECORDS: usize = 6_000;
    const BATCHES: usize = 8;
    const READERS: usize = 4;
    const GETS_PER_READER: usize = 3_000;

    let (dir, _guard) = temp_dir("invariant");
    let store = Arc::new(
        TieredStore::open(
            TierConfig::new(&dir)
                .with_watermark(u64::MAX)
                .with_cache_capacity(64 * 1024) // small: force real misses too
                .with_planner(PlannerConfig {
                    max_segments: 2,
                    max_dead_ratio: 0.2,
                    max_job_segments: 3,
                    target_partition_bytes: 128 * 1024,
                })
                .with_background_compaction(true)
                .with_maintenance_tick(Duration::from_millis(1)),
        )
        .expect("open store"),
    );

    // Seed a whole L0 backlog before letting the compactor loose.
    store.pause_compaction();
    let per_batch = RECORDS.div_ceil(BATCHES);
    for batch in 0..BATCHES {
        for i in (batch * per_batch)..((batch + 1) * per_batch).min(RECORDS) {
            store.set(&key(i), &value(i)).expect("set");
        }
        store.flush_all().expect("flush batch");
    }
    let backlog = store.l0_segment_count();
    assert!(backlog >= BATCHES, "backlog must be seeded");
    store.resume_compaction();

    // Readers hammer cold keys (plus guaranteed misses) while jobs commit.
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut state = 0x5851_f42d_4c95_7f2du64 ^ (r as u64);
                for _ in 0..GETS_PER_READER {
                    let roll = lcg(&mut state) as usize;
                    if roll.is_multiple_of(10) {
                        // A key past the universe: footer indexes answer
                        // most of these without any block probe.
                        let miss = RECORDS + roll % RECORDS;
                        assert!(store.get(&key(miss)).expect("get miss").is_none());
                    } else {
                        let hit = roll % RECORDS;
                        assert_eq!(
                            store.get(&key(hit)).expect("get"),
                            Some(value(hit)),
                            "live key must read its latest value mid-compaction"
                        );
                    }
                }
            })
        })
        .collect();
    for reader in readers {
        reader.join().expect("reader thread");
    }

    // Let the backlog drain so the run actually overlapped commits.
    let deadline = Instant::now() + Duration::from_secs(60);
    while store.stats().compactions == 0 {
        assert!(Instant::now() < deadline, "no compaction ever committed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = quiesce(&store);

    // The invariant itself.
    assert!(
        stats.cold_gets > 0,
        "readers must have reached the cold tier"
    );
    assert_eq!(
        stats.cold_cache_hits + stats.cold_cache_misses,
        stats.cold_gets,
        "every block-probing cold get is exactly one of hit/miss"
    );
    // Both classes occurred, so the equality is not vacuous.
    assert!(stats.cold_cache_hits > 0 && stats.cold_cache_misses > 0);

    // The typed stats view and the registry agree metric-for-metric.
    let snap = store.metrics().snapshot();
    assert_eq!(snap.counters["pbc_tier_cold_gets_total"], stats.cold_gets);
    assert_eq!(
        snap.counters["pbc_tier_cold_cache_hits_total"],
        stats.cold_cache_hits
    );
    assert_eq!(
        snap.counters["pbc_tier_cold_cache_misses_total"],
        stats.cold_cache_misses
    );
    assert_eq!(
        snap.counters["pbc_tier_compactions_total"],
        stats.compactions
    );
    assert_eq!(snap.gauges["pbc_tier_generation"], stats.generation);
    assert_eq!(snap.gauges["pbc_tier_l0_segments"], stats.l0_segments);
    assert_eq!(snap.gauges["pbc_tier_l1_partitions"], stats.l1_partitions);

    // hit_rate is derived from the same counters, so it must agree too.
    let rate = store.cache().hit_rate();
    assert!((0.0..=1.0).contains(&rate));
    let lookups = store.cache().hits() + store.cache().misses();
    assert!(lookups > 0);
    assert!((rate - store.cache().hits() as f64 / lookups as f64).abs() < 1e-12);
}

/// ISSUE 6 satellite: latency-histogram totals must equal the number of
/// operations issued, exactly, with recording racing across threads.
#[test]
fn latency_histograms_count_every_operation_across_threads() {
    const THREADS: usize = 8;
    const OPS: usize = 2_000;

    let (dir, _guard) = temp_dir("histograms");
    let store = Arc::new(
        TieredStore::open(TierConfig::new(&dir).with_watermark(u64::MAX)).expect("open store"),
    );

    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    let id = t * OPS + i;
                    store.set(&key(id), &value(id)).expect("set");
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer thread");
    }
    store.flush_all().expect("flush");

    let readers: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    let id = (t * OPS + i * 7) % (THREADS * OPS);
                    store.get(&key(id)).expect("get").expect("live key");
                }
                for _ in 0..4 {
                    let mut rows = 0usize;
                    for row in store.range_scan(key(0)..key(64)).expect("scan") {
                        row.expect("row");
                        rows += 1;
                    }
                    assert_eq!(rows, 64);
                }
            })
        })
        .collect();
    for reader in readers {
        reader.join().expect("reader thread");
    }

    let snap = store.metrics().snapshot();
    let total = (THREADS * OPS) as u64;
    let put = &snap.histograms["pbc_tier_put_latency_ns"];
    let get = &snap.histograms["pbc_tier_get_latency_ns"];
    let scan = &snap.histograms["pbc_tier_scan_latency_ns"];
    assert_eq!(put.count, total, "one put sample per set");
    assert_eq!(get.count, total, "one get sample per get");
    assert_eq!(scan.count, (THREADS * 4) as u64, "one scan sample per scan");
    for h in [put, get, scan] {
        // Bucket totals must re-add to the sample count (no lost updates).
        assert_eq!(h.buckets().iter().map(|&(_, n)| n).sum::<u64>(), h.count);
        assert!(h.p50() <= h.p99() && h.p99() <= h.max);
    }
    assert_eq!(
        snap.counters["pbc_tier_range_scans_total"],
        (THREADS * 4) as u64
    );
}

/// The trace ring records the spill/compaction/scan lifecycle in order,
/// stays bounded, and the snapshot renders in both export formats.
#[test]
fn trace_ring_captures_lifecycle_and_exports_render() {
    let (dir, _guard) = temp_dir("trace");
    let store = TieredStore::open(
        TierConfig::new(&dir)
            .with_watermark(u64::MAX)
            .with_trace_capacity(128),
    )
    .expect("open store");

    for i in 0..500 {
        store.set(&key(i), &value(i)).expect("set");
    }
    store.flush_all().expect("flush");
    store.compact().expect("compact");
    let mut rows = 0usize;
    for row in store.range_scan(key(100)..key(200)).expect("scan") {
        row.expect("row");
        rows += 1;
    }
    assert_eq!(rows, 100);

    let events = store.trace_events();
    let timestamps: Vec<u64> = events.iter().map(|e| e.micros).collect();
    assert!(
        timestamps.windows(2).all(|w| w[0] <= w[1]),
        "monotonic ring"
    );
    let count_of = |pred: &dyn Fn(&Event) -> bool| events.iter().filter(|e| pred(&e.event)).count();
    assert_eq!(count_of(&|e| matches!(e, Event::SpillStarted { .. })), 1);
    assert_eq!(
        count_of(&|e| matches!(
            e,
            Event::SpillFinished {
                records: 500,
                tombstones: 0,
                ..
            }
        )),
        1
    );
    assert_eq!(
        count_of(&|e| matches!(e, Event::CompactionPlanned { .. })),
        1
    );
    assert_eq!(
        count_of(&|e| matches!(
            e,
            Event::CompactionCommitted {
                live_entries: 500,
                ..
            }
        )),
        1
    );
    // One generation bump for the spill commit, one for the compaction.
    assert_eq!(
        count_of(&|e| matches!(e, Event::ManifestGeneration { .. })),
        2
    );
    assert_eq!(
        count_of(&|e| matches!(e, Event::ScanOpened { segments: 1 })),
        1
    );
    assert_eq!(
        count_of(&|e| matches!(e, Event::ScanClosed { rows: 100, .. })),
        1
    );

    // Both export formats render every metric family.
    let snap = store.metrics().snapshot();
    let text = snap.to_prometheus();
    for family in [
        "# TYPE pbc_tier_spills_total counter",
        "# TYPE pbc_tier_l1_partitions gauge",
        "# TYPE pbc_tier_get_latency_ns histogram",
        "pbc_tier_put_latency_ns_count 500",
    ] {
        assert!(text.contains(family), "prometheus text missing {family:?}");
    }
    let json = snap.to_json();
    assert!(json.contains("\"pbc_tier_spills_total\":1"));
    assert!(json.contains("\"pbc_tier_put_latency_ns\""));

    // A tiny ring keeps only the newest events.
    drop(store);
    let (dir2, _guard2) = temp_dir("trace-bounded");
    let bounded = TieredStore::open(
        TierConfig::new(&dir2)
            .with_watermark(u64::MAX)
            .with_trace_capacity(2),
    )
    .expect("open bounded store");
    for i in 0..100 {
        bounded.set(&key(i), &value(i)).expect("set");
    }
    bounded.flush_all().expect("flush");
    let events = bounded.trace_events();
    // Spill emits Started, ManifestGeneration, Finished: only the last
    // two fit.
    assert_eq!(events.len(), 2);
    assert!(matches!(
        events[0].event,
        Event::ManifestGeneration { generation: 1 }
    ));
    assert!(matches!(events[1].event, Event::SpillFinished { .. }));
}

/// With metrics disabled the store still works, `TierStats` gauges stay
/// exact, and exports are empty — the documented no-op contract.
#[test]
fn disabled_metrics_keep_the_store_and_gauges_working() {
    let (dir, _guard) = temp_dir("disabled");
    let store = TieredStore::open(
        TierConfig::new(&dir)
            .with_watermark(u64::MAX)
            .with_metrics(false)
            .with_trace_capacity(0),
    )
    .expect("open store");
    for i in 0..200 {
        store.set(&key(i), &value(i)).expect("set");
    }
    store.flush_all().expect("flush");
    assert_eq!(store.get(&key(3)).expect("get"), Some(value(3)));

    let stats = store.stats();
    // Counters read zero (no registry behind them) ...
    assert_eq!(stats.spills, 0);
    assert_eq!(stats.cold_gets, 0);
    // ... but gauges are derived from the live tier, not the registry.
    assert_eq!(stats.cold_records, 200);
    assert_eq!(stats.l0_segments, 1);
    assert_eq!(stats.generation, 1);
    assert!(!store.metrics().is_enabled());
    assert!(store.metrics().snapshot().counters.is_empty());
    assert!(store.trace_events().is_empty());
    assert_eq!(store.cache().hit_rate(), 0.0);
}

/// ISSUE 6 satellite: a failing background job must land in the bounded
/// error ring with its job description and the actual error string — not
/// just bump a counter.
#[test]
fn background_error_ring_retains_job_and_message() {
    let (dir, _guard) = temp_dir("bg-errors");
    let store = TieredStore::open(
        TierConfig::new(&dir)
            .with_watermark(u64::MAX)
            .with_error_log_capacity(8)
            .with_planner(PlannerConfig {
                max_segments: 2,
                max_dead_ratio: 0.2,
                max_job_segments: 3,
                target_partition_bytes: 128 * 1024,
            })
            .with_background_compaction(true)
            .with_maintenance_tick(Duration::from_millis(1)),
    )
    .expect("open store");

    // Seed a backlog that triggers the planner, then squat on the next
    // few output segment names with directories so every merge attempt
    // fails to create its output file. (Permission tricks don't work
    // here — the test may run as root.)
    store.pause_compaction();
    for batch in 0..4 {
        for i in (batch * 200)..((batch + 1) * 200) {
            store.set(&key(i), &value(i)).expect("set");
        }
        store.flush_all().expect("flush");
    }
    let squatted: Vec<_> = (5..9)
        .map(|id| dir.join(format!("seg-{id:06}.seg")))
        .collect();
    for path in &squatted {
        std::fs::create_dir(path).expect("squat on output segment name");
    }
    store.resume_compaction();

    let deadline = Instant::now() + Duration::from_secs(60);
    let errors = loop {
        let errors = store.recent_background_errors();
        if !errors.is_empty() {
            break errors;
        }
        assert!(Instant::now() < deadline, "no background error surfaced");
        std::thread::sleep(Duration::from_millis(5));
    };
    store.pause_compaction();
    for path in &squatted {
        let _ = std::fs::remove_dir(path);
    }

    let record = &errors[0];
    assert!(
        record.job.starts_with("compaction of"),
        "job description must say what was merging: {:?}",
        record.job
    );
    assert!(
        !record.message.is_empty(),
        "the actual error string is retained"
    );
    assert!(store.stats().background_errors >= errors.len() as u64);
    // The ring stays bounded even if the job failed repeatedly.
    assert!(store.recent_background_errors().len() <= 8);
    // Errors also land in the main trace, in context.
    assert!(store
        .trace_events()
        .iter()
        .any(|e| matches!(e.event, Event::BackgroundError { .. })));
    // Reads are unaffected throughout.
    assert_eq!(store.get(&key(42)).expect("get"), Some(value(42)));
}
