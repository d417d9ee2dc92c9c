//! Crash-point injection for the write-ahead log (ISSUE 7): kill the
//! store at every interesting point of the write → spill → checkpoint →
//! WAL-truncate sequence and assert that reopen recovers exactly the
//! acknowledged prefix — nothing lost, nothing duplicated, nothing
//! resurrected.
//!
//! "Kill" here is what a process kill leaves on disk: the store handle is
//! dropped (or its directory snapshotted mid-sequence) and the files are
//! edited to the crash-window state — a torn record tail, or sealed WAL
//! segments whose unlink never happened. Page-cache-only loss (power
//! failure) cannot be simulated in-process; the durability ladder below
//! covers what *is* testable for every level.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pbc::tier::{Durability, TierConfig, TieredStore, WalOptions};

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

/// A config whose WAL segments rotate often and whose hot tier never
/// spills on its own — spills happen only where a test injects them.
fn wal_config(dir: &Path, durability: Durability) -> TierConfig {
    TierConfig::new(dir).with_watermark(u64::MAX).with_wal(
        WalOptions::with_durability(durability)
            .shards(2)
            .segment_bytes(2 * 1024),
    )
}

/// The model every crash point is checked against: the acknowledged
/// puts/deletes applied in order.
fn apply_model(model: &mut BTreeMap<Vec<u8>, Vec<u8>>, store: &TieredStore, i: usize) {
    if i % 7 == 3 {
        // Delete an earlier acknowledged key.
        let target = key(i / 2);
        store.delete(&target).unwrap();
        model.remove(&target);
    } else {
        store.set(&key(i), &value(i)).unwrap();
        model.insert(key(i), value(i));
    }
}

fn assert_matches_model(store: &TieredStore, model: &BTreeMap<Vec<u8>, Vec<u8>>, n: usize) {
    for i in 0..n {
        let k = key(i);
        assert_eq!(
            store.get(&k).unwrap(),
            model.get(&k).cloned(),
            "key {i} diverged from the acknowledged history"
        );
    }
}

/// Crash point 1: acknowledged writes, nothing spilled, kill. Reopen must
/// replay every acknowledged operation from the WAL alone.
#[test]
fn kill_before_any_spill_recovers_all_acknowledged_writes() {
    let (dir, _guard) = temp_dir("pre-spill");
    let mut model = BTreeMap::new();
    let n = 500;
    {
        let store = TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap();
        for i in 0..n {
            apply_model(&mut model, &store, i);
        }
        assert_eq!(store.segment_count(), 0, "nothing spilled before the kill");
    }
    let store = TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap();
    assert!(store.wal_recovery().unwrap().records_replayed > 0);
    assert_matches_model(&store, &model, n);
}

/// Crash point 2: kill after a spill committed but before any checkpoint.
/// Replay re-applies records that are also in the spilled segment; the
/// result must be the model exactly — idempotent, no duplicates, and no
/// spilled delete undone.
#[test]
fn kill_after_spill_before_checkpoint_is_idempotent() {
    let (dir, _guard) = temp_dir("post-spill");
    let mut model = BTreeMap::new();
    let n = 500;
    {
        let store = TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap();
        for i in 0..n / 2 {
            apply_model(&mut model, &store, i);
        }
        store.flush_all().unwrap(); // spill commits; WAL NOT checkpointed
        for i in n / 2..n {
            apply_model(&mut model, &store, i);
        }
    }
    let store = TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap();
    let report = store.wal_recovery().unwrap();
    // No checkpoint marker exists, so the whole log replays — over data
    // the spill already persisted. That re-application must be invisible.
    assert!(report.records_replayed > 0);
    assert_eq!(report.records_skipped, 0);
    assert_matches_model(&store, &model, n);
}

/// Crash point 3: kill right after a checkpoint. The marker is durable,
/// covered segments are gone, and reopen must replay nothing — whether the
/// checkpoint was called for or taken by the maintenance thread.
#[test]
fn kill_after_checkpoint_replays_nothing() {
    let (dir, _guard) = temp_dir("post-ckpt");
    let mut model = BTreeMap::new();
    let n = 500;
    {
        let store = TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap();
        for i in 0..n {
            apply_model(&mut model, &store, i);
        }
        let before = store.wal_stats().unwrap();
        store.checkpoint_wal().unwrap().unwrap();
        let after = store.wal_stats().unwrap();
        assert!(
            after.bytes < before.bytes,
            "checkpoint bounds the log ({} -> {} bytes)",
            before.bytes,
            after.bytes
        );
    }
    let store = TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap();
    assert_eq!(store.wal_recovery().unwrap().records_replayed, 0);
    assert_matches_model(&store, &model, n);
    drop(store);

    // The same crash point when the checkpoint is the maintenance thread's
    // own: the log crossed `checkpoint_bytes` and nobody called
    // `checkpoint_wal`. The log ends below the threshold however much was
    // appended, and reopen replays only the uncovered suffix.
    const CHECKPOINT_BYTES: u64 = 16 * 1024;
    let (dir, _guard) = temp_dir("auto-ckpt");
    let config = |background: bool| {
        TierConfig::new(&dir)
            .with_watermark(u64::MAX)
            .with_wal(
                WalOptions::with_durability(Durability::None)
                    .shards(2)
                    .segment_bytes(2 * 1024)
                    .checkpoint_bytes(CHECKPOINT_BYTES),
            )
            .with_background_compaction(background)
            .with_maintenance_tick(Duration::from_millis(1))
    };
    let mut model = BTreeMap::new();
    let n = 2_000;
    {
        let store = TieredStore::open(config(true)).unwrap();
        for i in 0..n {
            apply_model(&mut model, &store, i);
        }
        let checkpoints = || store.metrics().snapshot().counters["pbc_wal_checkpoints_total"];
        let deadline = Instant::now() + Duration::from_secs(60);
        while checkpoints() == 0 || store.wal_stats().unwrap().bytes >= CHECKPOINT_BYTES {
            assert!(
                Instant::now() < deadline,
                "the maintenance thread never checkpointed the log"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(store.stats().background_errors, 0);
    }
    let store = TieredStore::open(config(false)).unwrap();
    assert!(store.wal_recovery().unwrap().records_replayed < n as u64 / 2);
    assert_matches_model(&store, &model, n);
}

/// Crash point 4: the checkpoint wrote its durable markers but the
/// process died before unlinking the covered segments. Resurrect the
/// pre-checkpoint WAL files next to the markers and reopen: the marker
/// must win — covered records are skipped, and a key deleted before the
/// checkpoint must *stay* deleted (no resurrection through replay).
#[test]
fn kill_between_checkpoint_marker_and_segment_unlink() {
    let (dir, _guard) = temp_dir("pre-unlink");
    let (scratch, _scratch_guard) = temp_dir("pre-unlink-scratch");
    std::fs::create_dir_all(&scratch).unwrap();
    let mut model = BTreeMap::new();
    let n = 500;
    {
        let store = TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap();
        for i in 0..n {
            apply_model(&mut model, &store, i);
        }
        // Deletes the checkpoint is about to make durable-and-covered.
        for i in (0..n).step_by(11) {
            store.delete(&key(i)).unwrap();
            model.remove(&key(i));
        }
        // Snapshot the WAL as it is *before* the checkpoint unlinks
        // anything.
        for entry in std::fs::read_dir(dir.join("wal")).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, scratch.join(path.file_name().unwrap())).unwrap();
        }
        store.checkpoint_wal().unwrap().unwrap();
    }
    // Crash window: markers durable, unlinks lost. Restore every segment
    // the checkpoint deleted.
    let mut resurrected = 0;
    for entry in std::fs::read_dir(&scratch).unwrap() {
        let from = entry.unwrap().path();
        let to = dir.join("wal").join(from.file_name().unwrap());
        if !to.exists() {
            std::fs::copy(&from, &to).unwrap();
            resurrected += 1;
        }
    }
    assert!(
        resurrected > 0,
        "the checkpoint must have unlinked segments"
    );

    let store = TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap();
    let report = store.wal_recovery().unwrap();
    assert_eq!(
        report.records_replayed, 0,
        "resurrected segments are fully covered by the durable marker"
    );
    assert!(report.records_skipped > 0);
    assert_matches_model(&store, &model, n);
    // And the next checkpoint sweeps the resurrected files again.
    store.checkpoint_wal().unwrap().unwrap();
    assert_matches_model(&store, &model, n);
}

/// Crash point 5: torn tail — the process died mid-append, leaving a
/// partial frame (then garbage) after the acknowledged records. Reopen
/// must truncate the tail and recover the acknowledged prefix exactly.
#[test]
fn torn_tail_after_acknowledged_writes_is_truncated() {
    let (dir, _guard) = temp_dir("torn");
    let mut model = BTreeMap::new();
    let n = 300;
    {
        let store = TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap();
        for i in 0..n {
            apply_model(&mut model, &store, i);
        }
    }
    // Simulate the in-flight, never-acknowledged append: garbage bytes at
    // the tail of every shard's newest segment.
    let mut torn_files = 0;
    let mut newest: BTreeMap<String, PathBuf> = BTreeMap::new();
    for entry in std::fs::read_dir(dir.join("wal")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|ext| ext != "log") {
            continue; // skip wal.meta
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let shard = name[..7].to_string(); // "wal-NNN"
        let replace = newest.get(&shard).is_none_or(|prev| {
            prev.file_name().unwrap().to_string_lossy().as_ref() < name.as_str()
        });
        if replace {
            newest.insert(shard, path);
        }
    }
    for path in newest.values() {
        let mut bytes = std::fs::read(path).unwrap();
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x00, 0x17]);
        std::fs::write(path, &bytes).unwrap();
        torn_files += 1;
    }
    assert_eq!(torn_files, 2, "one torn tail per shard");

    let store = TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap();
    let report = store.wal_recovery().unwrap();
    assert!(report.truncated_bytes >= 12, "both torn tails truncated");
    assert_matches_model(&store, &model, n);
}

/// Same-key application order must equal WAL order: the hot-tier
/// mutation runs inside the WAL append's critical section, so a
/// concurrent set/delete pair on one key cannot apply to the hot tier in
/// one order but log in the other. Hammer a handful of keys from racing
/// writers, then check that a reopen (pure WAL replay) answers exactly
/// what the live store answered — an acknowledged delete must not be
/// resurrected by a put that was applied earlier but logged later.
#[test]
fn concurrent_same_key_writes_replay_to_the_live_state() {
    use std::sync::Arc;
    for round in 0..8 {
        let (dir, _guard) = temp_dir(&format!("same-key-{round}"));
        // Durability::None keeps the race tight (no fsync serialization
        // stretching the windows) and this test kills nothing mid-write.
        let live: Vec<(Vec<u8>, Option<Vec<u8>>)> = {
            let store = Arc::new(TieredStore::open(wal_config(&dir, Durability::None)).unwrap());
            let keys = 4usize;
            let handles: Vec<_> = (0..4usize)
                .map(|t| {
                    let store = Arc::clone(&store);
                    std::thread::spawn(move || {
                        for i in 0..300usize {
                            let k = key(i % keys);
                            if (t + i) % 5 == 0 {
                                store.delete(&k).unwrap();
                            } else {
                                store.set(&k, format!("t{t}i{i}").as_bytes()).unwrap();
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            (0..keys)
                .map(|i| (key(i), store.get(&key(i)).unwrap()))
                .collect()
        };
        let store = TieredStore::open(wal_config(&dir, Durability::None)).unwrap();
        for (k, want) in live {
            assert_eq!(
                store.get(&k).unwrap(),
                want,
                "replayed state diverged from the live pre-drop state"
            );
        }
    }
}

/// The durability ladder: at every level, a kill after N acknowledged
/// writes reopens to exactly those writes (file contents survive a
/// process kill at all levels; the levels differ only in power-loss
/// guarantees, which in-process tests cannot exercise).
#[test]
fn every_durability_level_recovers_after_a_kill() {
    for (tag, durability) in [
        ("none", Durability::None),
        ("periodic", Durability::Periodic(Duration::from_millis(5))),
        ("batch", Durability::PerBatch),
    ] {
        let (dir, _guard) = temp_dir(&format!("ladder-{tag}"));
        let mut model = BTreeMap::new();
        let n = 200;
        {
            let store = TieredStore::open(wal_config(&dir, durability)).unwrap();
            for i in 0..n {
                apply_model(&mut model, &store, i);
            }
        }
        let store = TieredStore::open(wal_config(&dir, durability)).unwrap();
        assert!(store.wal_recovery().unwrap().records_replayed > 0);
        assert_matches_model(&store, &model, n);
    }
}

/// Batch equivalence: writes batched through the router's shard appliers,
/// replayed from the WAL after a kill, land on exactly the state that
/// applying each client's sequence directly would have produced. Batching
/// is an amortization, never a reordering — per-key order is client
/// order, and the log preserves it.
#[test]
fn router_batches_replay_to_sequential_state() {
    use std::sync::{Arc, Mutex};

    use pbc::serve::{Router, ServeConfig, TenantQuota};

    let (dir, _guard) = temp_dir("router-batch");
    let tenants = ["alpha", "beta"];
    let model: BTreeMap<(usize, Vec<u8>), Option<Vec<u8>>> = {
        let store = Arc::new(TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap());
        let router = Arc::new(
            Router::start(
                Arc::clone(&store),
                ServeConfig::default().with_shards(3).with_max_batch(8),
            )
            .unwrap(),
        );
        for tenant in tenants {
            router
                .create_tenant(tenant, TenantQuota::unlimited())
                .unwrap();
        }
        // 4 clients × 2 tenants, disjoint key slices per client, with
        // overwrites and deletes inside each slice. Every write blocks for
        // its ack, so each client's slice has a definite sequential
        // history; the appliers batch them arbitrarily across clients.
        let model = Arc::new(Mutex::new(BTreeMap::new()));
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let router = Arc::clone(&router);
                let model = Arc::clone(&model);
                std::thread::spawn(move || {
                    let mut mine: BTreeMap<(usize, Vec<u8>), Option<Vec<u8>>> = BTreeMap::new();
                    for i in 0..120usize {
                        let tenant_idx = i % 2;
                        let k = key(t * 1_000 + i % 30);
                        if i % 7 == 3 {
                            router.delete(tenants[tenant_idx], &k).unwrap();
                            mine.insert((tenant_idx, k), None);
                        } else {
                            let v = format!("t{t}i{i}").into_bytes();
                            router.put(tenants[tenant_idx], &k, &v).unwrap();
                            mine.insert((tenant_idx, k), Some(v));
                        }
                    }
                    model.lock().unwrap().extend(mine);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        router.shutdown();
        assert_eq!(store.segment_count(), 0, "nothing spilled before the kill");
        Arc::try_unwrap(model).unwrap().into_inner().unwrap()
    };

    // Kill + recover, then read back through a fresh router.
    let store = Arc::new(TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap());
    assert!(store.wal_recovery().unwrap().records_replayed > 0);
    let router = Router::start(Arc::clone(&store), ServeConfig::default()).unwrap();
    for tenant in tenants {
        router
            .create_tenant(tenant, TenantQuota::unlimited())
            .unwrap();
    }
    for ((tenant_idx, k), want) in &model {
        assert_eq!(
            &router.get(tenants[*tenant_idx], k).unwrap(),
            want,
            "key {:?} diverged from the sequential model",
            String::from_utf8_lossy(k)
        );
    }
}

/// Crash with a router batch in flight: clients hammer the router while
/// the main thread aborts it mid-stream (queued writes fail with
/// `Shutdown`, appliers stop, nothing is flushed). After recovery, the
/// tenant's recovered keys must be exactly the acknowledged set — every
/// acked write present with its acked value, every unacknowledged write
/// absent (it was refused, not half-applied).
#[test]
fn abort_with_inflight_batch_recovers_exactly_the_acked_writes() {
    use std::sync::{Arc, Mutex};

    use pbc::serve::{Router, ServeConfig, ServeError, TenantQuota};

    let (dir, _guard) = temp_dir("router-abort");
    let acked: BTreeMap<Vec<u8>, Vec<u8>> = {
        let store = Arc::new(TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap());
        let router = Arc::new(
            Router::start(
                Arc::clone(&store),
                ServeConfig::default().with_shards(2).with_max_batch(4),
            )
            .unwrap(),
        );
        router
            .create_tenant("tenant", TenantQuota::unlimited())
            .unwrap();
        let acked = Arc::new(Mutex::new(BTreeMap::new()));
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let router = Arc::clone(&router);
                let acked = Arc::clone(&acked);
                std::thread::spawn(move || {
                    for i in 0..5_000usize {
                        let k = key(t * 100_000 + i);
                        let v = value(i);
                        match router.put("tenant", &k, &v) {
                            Ok(_) => {
                                acked.lock().unwrap().insert(k, v);
                            }
                            Err(ServeError::Shutdown) => break,
                            Err(e) => panic!("only Ok or Shutdown expected, got {e}"),
                        }
                    }
                })
            })
            .collect();
        // Let the clients get well into their run, then pull the plug
        // with their batches in flight.
        while acked.lock().unwrap().len() < 200 {
            std::thread::yield_now();
        }
        router.abort();
        for h in handles {
            h.join().unwrap();
        }
        Arc::try_unwrap(acked).unwrap().into_inner().unwrap()
    };
    assert!(!acked.is_empty(), "some writes must ack before the abort");

    let store = Arc::new(TieredStore::open(wal_config(&dir, Durability::PerBatch)).unwrap());
    let router = Router::start(Arc::clone(&store), ServeConfig::default()).unwrap();
    router
        .create_tenant("tenant", TenantQuota::unlimited())
        .unwrap();
    // Every acked write survives the crash...
    for (k, v) in &acked {
        assert_eq!(
            router.get("tenant", k).unwrap().as_ref(),
            Some(v),
            "acked key {:?} lost in the crash",
            String::from_utf8_lossy(k)
        );
    }
    // ...and nothing else was half-applied: the recovered namespace is
    // exactly the acked set.
    let recovered = router.scan("tenant", b"", usize::MAX).unwrap();
    assert_eq!(
        recovered.len(),
        acked.len(),
        "recovered a write that was never acknowledged"
    );
}
