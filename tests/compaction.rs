//! Acceptance tests for leveled, incremental background compaction
//! (ISSUE 3): steady state via the maintenance thread alone, crash
//! simulation between job commit steps, and pause/resume.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbc::tier::{Manifest, PlannerConfig, TierConfig, TieredStore};

mod support;
use support::temp_dir;

fn key(i: usize) -> Vec<u8> {
    format!("rec:{i:08}").into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    format!(
        "sess|{:016x}|uid={}|dev=android-13|ip=10.0.{}.{}|exp={}",
        (i as u64).wrapping_mul(0x9e3779b97f4a7c15),
        10_000_000 + (i * 9_700_417) % 89_999_999,
        i % 256,
        (i * 7) % 256,
        1_686_000_000 + (i * 86_413) % 9_999_999
    )
    .into_bytes()
}

/// Deterministic LCG for probe sequences.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1);
    *state >> 33
}

/// Poll until `done` holds or the deadline passes; panics with `what` on
/// timeout.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The ISSUE 3 acceptance criterion: a 50k-record workload with deletes
/// reaches a steady state via background compaction **alone** — no
/// explicit `compact()` call — with the segment count at or below the
/// configured maximum and the cold dead-entry ratio below the threshold,
/// while gets issued during compaction stay correct.
#[test]
fn background_compaction_reaches_steady_state_on_a_50k_workload() {
    const RECORDS: usize = 50_000;
    const MAX_SEGMENTS: usize = 6;
    const MAX_DEAD_RATIO: f64 = 0.25;
    let (dir, _guard) = temp_dir("steady");
    let config = TierConfig::new(&dir)
        .with_watermark(256 * 1024)
        .with_cache_capacity(512 * 1024)
        .with_planner(PlannerConfig {
            max_segments: MAX_SEGMENTS,
            max_dead_ratio: MAX_DEAD_RATIO,
            max_job_segments: 3,
            ..PlannerConfig::default()
        })
        .with_background_compaction(true)
        .with_maintenance_tick(Duration::from_millis(5));
    let store = TieredStore::open(config).unwrap();
    let mut reference: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    // Ingest with interleaved deletes (every 4th key is written and later
    // deleted), probing random earlier keys as compaction churns below.
    let mut probe_state = 0x5eed_cafe_f00d_0001u64;
    for i in 0..RECORDS {
        let v = value(i);
        store.set(&key(i), &v).unwrap();
        reference.insert(key(i), v);
        if i % 4 == 3 {
            let dead = i - 2;
            assert!(store.delete(&key(dead)).unwrap(), "delete {dead}");
            reference.remove(&key(dead));
        }
        if i % 500 == 0 && i > 0 {
            for _ in 0..4 {
                let probe = (lcg(&mut probe_state) as usize) % i;
                assert_eq!(
                    store.get(&key(probe)).unwrap(),
                    reference.get(&key(probe)).cloned(),
                    "probe {probe} during ingest at {i}"
                );
            }
        }
    }
    assert!(
        store.stats().spills > 0,
        "watermark must have forced spills"
    );

    // Steady state arrives with no compact() call anywhere in this test.
    wait_for("background compaction steady state", || {
        let stats = store.stats();
        store.segment_count() <= MAX_SEGMENTS && stats.cold_dead_ratio() < MAX_DEAD_RATIO
    });
    let stats = store.stats();
    assert!(stats.compactions > 0, "the maintenance thread ran jobs");
    assert!(stats.segments_retired > 0);
    assert_eq!(stats.background_errors, 0, "no background job failed");
    assert!(
        stats.generation > 0 && stats.generation == store.generation(),
        "commits advanced the manifest generation"
    );

    // Everything still reads back correctly after the churn.
    let mut state = 0xfeed_beef_cafe_f00du64;
    for probe in 0..5_000 {
        let i = (lcg(&mut state) as usize) % RECORDS;
        assert_eq!(
            store.get(&key(i)).unwrap(),
            reference.get(&key(i)).cloned(),
            "post-steady-state probe {probe} key {i}"
        );
    }

    // Reopen cold: the compacted, generation-stamped state is durable.
    // Pause first so no background job commits between reading the
    // generation and dropping the store (pause lets an in-flight job
    // finish, so poll until the generation settles).
    store.pause_compaction();
    store.flush_all().unwrap();
    let mut generation = store.generation();
    wait_for("in-flight job to settle", || {
        std::thread::sleep(Duration::from_millis(50));
        let now = store.generation();
        let settled = now == generation;
        generation = now;
        settled
    });
    drop(store); // joins the maintenance thread cleanly
    let reopened = TieredStore::open(
        TierConfig::new(&dir).with_watermark(256 * 1024), // background off
    )
    .unwrap();
    assert_eq!(reopened.generation(), generation, "generation persisted");
    let mut state = 0x0123_4567_89ab_cdefu64;
    for _ in 0..2_000 {
        let i = (lcg(&mut state) as usize) % RECORDS;
        assert_eq!(
            reopened.get(&key(i)).unwrap(),
            reference.get(&key(i)).cloned()
        );
    }
}

/// Build a store with several tombstone-bearing segments and return its
/// reference map (the store is closed on return).
fn seed_segments(dir: &Path, records: usize) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let store = TieredStore::open(TierConfig::new(dir).with_watermark(u64::MAX)).unwrap();
    let mut reference = BTreeMap::new();
    let batch = records / 4;
    for b in 0..4 {
        for i in (b * batch)..((b + 1) * batch) {
            store.set(&key(i), &value(i)).unwrap();
            reference.insert(key(i), value(i));
        }
        store.flush_all().unwrap(); // one segment per batch
        for i in ((b * batch)..((b + 1) * batch)).step_by(5) {
            store.delete(&key(i)).unwrap();
            reference.remove(&key(i));
        }
    }
    store.flush_all().unwrap(); // tombstone-heavy top segment
    reference
}

fn probe_all(store: &TieredStore, reference: &BTreeMap<Vec<u8>, Vec<u8>>, records: usize) {
    for i in (0..records).step_by(7) {
        assert_eq!(
            store.get(&key(i)).unwrap(),
            reference.get(&key(i)).cloned(),
            "key {i}"
        );
    }
}

/// Simulate a crash between each step of a compaction job's commit
/// protocol and verify reopen always lands on exactly one consistent
/// generation with no lost or resurrected data.
#[test]
fn crashes_between_job_commit_steps_land_on_a_consistent_generation() {
    const RECORDS: usize = 4_000;
    let (dir, _guard) = temp_dir("crash");
    let reference = seed_segments(&dir, RECORDS);
    let manifest = Manifest::load(&dir).unwrap().unwrap();
    let committed_generation = manifest.generation;
    assert!(manifest.segments.len() >= 4);

    // --- Crash A: the job wrote its output segment and even staged the
    // next manifest as MANIFEST.tmp, but died before the rename (the
    // commit point). The tmp parses cleanly and carries a *higher*
    // generation — reopen must reject it and sweep the orphaned output.
    let orphan = dir.join("seg-099998.seg");
    std::fs::write(&orphan, b"torn compaction output").unwrap();
    let uncommitted = Manifest {
        generation: committed_generation + 1,
        segments: Vec::new(), // claims everything was merged away
    };
    let (scratch, _scratch_guard) = temp_dir("crash-scratch");
    std::fs::create_dir_all(&scratch).unwrap();
    uncommitted.store(&scratch).unwrap();
    std::fs::copy(Manifest::path_in(&scratch), dir.join("MANIFEST.tmp")).unwrap();
    {
        let store = TieredStore::open(TierConfig::new(&dir)).unwrap();
        assert_eq!(
            store.generation(),
            committed_generation,
            "uncommitted generation rejected"
        );
        assert!(!orphan.exists(), "orphaned job output swept");
        assert!(!dir.join("MANIFEST.tmp").exists(), "stale tmp swept");
        probe_all(&store, &reference, RECORDS);
    }

    // --- Crash B: the job committed (manifest renamed, generation
    // bumped) but died before deleting its retired input files. Run a
    // real partial job, then resurrect the retired files as the crash
    // would have left them.
    let before: Vec<String> = Manifest::load(&dir)
        .unwrap()
        .unwrap()
        .segments
        .iter()
        .map(|s| s.file_name.clone())
        .collect();
    let mut saved: Vec<(String, Vec<u8>)> = Vec::new();
    for name in &before {
        saved.push((name.clone(), std::fs::read(dir.join(name)).unwrap()));
    }
    let generation_after_jobs = {
        let store = TieredStore::open(TierConfig::new(&dir).with_planner(PlannerConfig {
            max_segments: 2,
            max_dead_ratio: 0.1,
            max_job_segments: 3,
            ..PlannerConfig::default()
        }))
        .unwrap();
        let jobs = store.run_pending_compactions().unwrap();
        assert!(jobs > 0, "thresholds must trigger partial jobs");
        assert!(
            store.generation() > committed_generation,
            "each job bumps the generation"
        );
        probe_all(&store, &reference, RECORDS);
        store.generation()
    };
    let after: Vec<String> = Manifest::load(&dir)
        .unwrap()
        .unwrap()
        .segments
        .iter()
        .map(|s| s.file_name.clone())
        .collect();
    let mut resurrected = 0;
    for (name, bytes) in &saved {
        if !after.contains(name) {
            std::fs::write(dir.join(name), bytes).unwrap(); // retired input back on disk
            resurrected += 1;
        }
    }
    assert!(resurrected > 0, "the jobs must have retired segments");
    {
        let store = TieredStore::open(TierConfig::new(&dir)).unwrap();
        assert_eq!(
            store.generation(),
            generation_after_jobs,
            "reopen lands on the committed generation"
        );
        for (name, _) in &saved {
            assert_eq!(
                dir.join(name).exists(),
                after.contains(name),
                "retired segment {name} swept on reopen"
            );
        }
        probe_all(&store, &reference, RECORDS);
    }

    // --- Id monotonicity: crash A burned id 99998 (the torn orphan) and
    // the resurrection sweep burned the retired inputs' ids again. New
    // segments must take strictly larger ids than anything that was ever
    // on disk — a swept name must never be reused while a stale file
    // could still collide with it.
    let max_id_on_disk: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            e.unwrap()
                .file_name()
                .to_string_lossy()
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".seg"))
                .and_then(|digits| digits.parse().ok())
        })
        .max()
        .unwrap();
    {
        let store = TieredStore::open(TierConfig::new(&dir).with_watermark(u64::MAX)).unwrap();
        for i in RECORDS..RECORDS + 200 {
            store.set(&key(i), &value(i)).unwrap();
        }
        store.flush_all().unwrap();
        let new_max = store
            .segment_stats()
            .iter()
            .map(|s| s.id)
            .max()
            .expect("segments exist");
        assert!(
            new_max > max_id_on_disk,
            "new segment id {new_max} must exceed every on-disk id ({max_id_on_disk})"
        );
        probe_all(&store, &reference, RECORDS);
    }
}

/// The leveling invariant: L1 sorted, pairwise non-overlapping,
/// tombstone-free.
fn assert_l1_invariant(store: &TieredStore) {
    let (_, l1) = store.leveled_stats();
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

/// Deterministic LCG over borrowed state (prefix variant for closures).
fn lcg_usize(state: &mut u64, bound: usize) -> usize {
    (lcg(state) as usize) % bound
}

/// Two compactor threads drain a backlog of L0 segments alternating
/// between two disjoint key prefixes, committing interleaved generation
/// bumps while a reader probes throughout. Every job is a single
/// generation bump, so the final generation accounts for exactly the jobs
/// that ran; the leveled invariant and every read stay correct.
#[test]
fn concurrent_disjoint_jobs_commit_interleaved_under_reads() {
    const ROUNDS: usize = 6;
    const PER_BATCH: usize = 400;
    let (dir, _guard) = temp_dir("concurrent");
    let store = Arc::new(
        TieredStore::open(TierConfig::new(&dir).with_watermark(u64::MAX).with_planner(
            PlannerConfig {
                max_segments: 1, // backlog stays triggered to the end
                max_dead_ratio: 0.25,
                max_job_segments: 2,
                target_partition_bytes: 32 * 1024,
            },
        ))
        .unwrap(),
    );
    let mut reference: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    // Alternating disjoint prefixes: the planner always has promotions in
    // both key ranges available, so two threads can hold disjoint
    // reservations at once.
    for round in 0..ROUNDS {
        for prefix in ["a", "b"] {
            for i in 0..PER_BATCH {
                let n = round * PER_BATCH + i;
                let key = format!("{prefix}:{n:06}").into_bytes();
                let val = value(n);
                store.set(&key, &val).unwrap();
                reference.insert(key, val);
            }
            store.flush_all().unwrap(); // one L0 segment per prefix batch
        }
    }
    assert_eq!(store.l0_segment_count(), ROUNDS * 2);
    let generation_before = store.generation();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let store = Arc::clone(&store);
        let reference = reference.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let keys: Vec<Vec<u8>> = reference.keys().cloned().collect();
            let mut state = 0x5eed_1234_5678_9abcu64;
            let mut probes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = &keys[lcg_usize(&mut state, keys.len())];
                assert_eq!(
                    store.get(key).unwrap(),
                    reference.get(key).cloned(),
                    "read during concurrent compaction"
                );
                probes += 1;
            }
            probes
        })
    };
    let compactors: Vec<_> = (0..2)
        .map(|_| {
            let store = Arc::clone(&store);
            // A lost reservation race replans internally, so one call per
            // thread drains everything the planner is willing to run.
            std::thread::spawn(move || store.run_pending_compactions().unwrap())
        })
        .collect();
    let jobs: usize = compactors.into_iter().map(|h| h.join().unwrap()).sum();
    stop.store(true, Ordering::Relaxed);
    let probes = reader.join().unwrap();

    // The backlog drains: at most one unbatched L0 segment may remain
    // (L1 partition-count pressure gates lone spills behind a full
    // max_job_segments batch, so the planner stops at l0 < 2 by design).
    assert!(
        jobs >= 2,
        "the backlog takes multiple bounded jobs, got {jobs}"
    );
    assert!(probes > 0, "the reader observed the churn");
    assert!(
        store.l0_segment_count() < 2,
        "every batchable L0 segment promoted, {} left",
        store.l0_segment_count()
    );
    assert!(store.l1_partition_count() >= 2, "both ranges live in L1");
    assert_l1_invariant(store.as_ref());
    assert_eq!(
        store.generation(),
        generation_before + jobs as u64,
        "each job committed exactly one interleaved generation bump"
    );
    let stats = store.stats();
    assert_eq!(stats.compactions, jobs as u64);
    assert!(stats.segments_retired >= ROUNDS as u64 * 2 - 1);
    // Full verification against the reference after the concurrent drain.
    for (key, val) in &reference {
        assert_eq!(store.get(key).unwrap().as_deref(), Some(val.as_slice()));
    }
    assert!(store.get(b"c:000000").unwrap().is_none());

    // What leveling buys the read path: once L0 is empty, a cold get
    // consults exactly one L1 partition, however many there are.
    store.compact().unwrap();
    assert_eq!(store.l0_segment_count(), 0);
    assert!(store.l1_partition_count() >= 2);
    assert_l1_invariant(store.as_ref());
    let before = store.stats();
    for (key, val) in &reference {
        assert_eq!(store.get(key).unwrap().as_deref(), Some(val.as_slice()));
    }
    let after = store.stats();
    assert_eq!(
        after.cold_gets - before.cold_gets,
        reference.len() as u64,
        "nothing is hot: every get went cold"
    );
    assert_eq!(
        after.cold_segments_scanned - before.cold_segments_scanned,
        reference.len() as u64,
        "one partition consulted per cold get"
    );
}

/// Pausing stops new background jobs; resuming drains the backlog; drop
/// joins the thread cleanly even while paused.
#[test]
fn pause_and_resume_gate_the_maintenance_thread() {
    const RECORDS: usize = 12_000;
    const MAX_SEGMENTS: usize = 3;
    let (dir, _guard) = temp_dir("pause");
    let store = TieredStore::open(
        TierConfig::new(&dir)
            .with_watermark(64 * 1024)
            .with_planner(PlannerConfig {
                max_segments: MAX_SEGMENTS,
                max_dead_ratio: 0.5,
                max_job_segments: 2,
                ..PlannerConfig::default()
            })
            .with_background_compaction(true)
            .with_maintenance_tick(Duration::from_millis(5)),
    )
    .unwrap();

    store.pause_compaction();
    for i in 0..RECORDS {
        store.set(&key(i), &value(i)).unwrap();
    }
    store.flush_all().unwrap();
    // Paused: spills accumulate segments beyond the trigger with no
    // compaction interference.
    assert!(store.segment_count() > MAX_SEGMENTS);
    let jobs_while_paused = store.stats().compactions;
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        store.stats().compactions,
        jobs_while_paused,
        "no jobs start while paused"
    );

    store.resume_compaction();
    wait_for("post-resume compaction backlog", || {
        store.segment_count() <= MAX_SEGMENTS
    });
    assert!(store.stats().compactions > jobs_while_paused);
    for i in (0..RECORDS).step_by(101) {
        assert_eq!(store.get(&key(i)).unwrap().as_deref(), Some(&value(i)[..]));
    }

    // Drop while paused must still join cleanly (shutdown wins).
    store.pause_compaction();
    drop(store);
}
