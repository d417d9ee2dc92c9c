//! Durable writes walkthrough: the write-ahead log's durability ladder,
//! group commit under concurrent writers, checkpointing that bounds the
//! log, and recovery of acknowledged writes after a crash.
//!
//! The "crash" at the end is what a process kill leaves on disk: the
//! store handle is dropped and a torn, half-written frame is appended to
//! the newest WAL segment — the state an in-flight append abandons.
//! Reopen truncates the torn tail and replays every acknowledged write
//! the last checkpoint had not yet covered.
//!
//! Run with: `cargo run --release --example durable_store`

use pbc::tier::{Durability, TierConfig, TieredStore, WalOptions};

fn config(dir: &std::path::Path) -> TierConfig {
    TierConfig::new(dir)
        .with_watermark(256 * 1024)
        // The ladder, pick one:
        //   Durability::None          — log for recovery, never fsync; a
        //                               crash loses page-cache-only tail
        //   Durability::Periodic(d)   — fsync at most every `d`; bounded
        //                               loss window
        //   Durability::PerBatch      — group commit: acknowledged writes
        //                               survive a crash, concurrent
        //                               writers share each fsync
        .with_wal(
            WalOptions::with_durability(Durability::PerBatch)
                .shards(2)
                .segment_bytes(64 * 1024),
        )
}

fn main() {
    let dir = std::env::temp_dir().join(format!("pbc-example-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TieredStore::open(config(&dir)).expect("open durable store");

    // 1. Eight writers, every write acknowledged durable. Under group
    // commit the writers form an implicit queue: one leader fsyncs while
    // the rest append, so N writers share a sync instead of paying one
    // each.
    let writes = 4_000usize;
    let threads = 8;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = &store;
            scope.spawn(move || {
                let mut i = t;
                while i < writes {
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
                    i += threads;
                }
            });
        }
    });
    let snap = store.metrics().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    println!(
        "{writes} acknowledged writes across {threads} threads: {} WAL appends, only {} fsyncs (mean batch {:.1} records)",
        counter("pbc_wal_appends_total"),
        counter("pbc_wal_fsyncs_total"),
        snap.histograms
            .get("pbc_wal_commit_batch_records")
            .map(|h| h.mean())
            .unwrap_or(0.0),
    );

    // 2. Checkpoint: spill the hot tier, write durable markers, delete
    // the sealed segments the markers cover. This is what keeps the log
    // bounded — a maintenance thread does the same automatically past
    // `WalOptions::checkpoint_bytes` when the store is opened with
    // `.with_background_compaction(true)`.
    let before = store.wal_stats().expect("wal stats");
    let summary = store
        .checkpoint_wal()
        .expect("checkpoint")
        .expect("store has a WAL");
    let after = store.wal_stats().expect("wal stats");
    println!(
        "checkpoint: {} -> {} WAL bytes, {} covered segment(s) deleted ({} bytes reclaimed)",
        before.bytes, after.bytes, summary.segments_deleted, summary.bytes_deleted,
    );

    // 3. More writes after the checkpoint — the un-checkpointed suffix a
    // recovery will have to replay.
    let suffix = 1_000usize;
    for i in 0..suffix {
        store
            .set(format!("audit:{i:06}").as_bytes(), b"pending-review")
            .expect("set");
    }

    // 4. "Crash": drop the handle, then tear the newest WAL segment the
    // way an in-flight append would — a frame header cut off mid-write.
    drop(store);
    let wal_dir = dir.join("wal");
    let newest = std::fs::read_dir(&wal_dir)
        .expect("wal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .max()
        .expect("a wal segment");
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .append(true)
        .open(&newest)
        .expect("open newest segment")
        .write_all(&[0xde, 0xad, 0xbe, 0xef, 0x00])
        .expect("torn tail");

    // 5. Reopen: recovery scans from the last checkpoint markers,
    // truncates the torn tail at the first bad frame, and replays the
    // acknowledged suffix into the hot tier.
    let reopened = TieredStore::open(config(&dir)).expect("reopen");
    let report = reopened.wal_recovery().expect("recovery report");
    println!(
        "reopen: replayed {} record(s), skipped {} already-checkpointed, truncated {} torn byte(s) across {} segment file(s)",
        report.records_replayed, report.records_skipped, report.truncated_bytes, report.segments,
    );
    assert_eq!(
        reopened.get(b"audit:000999").expect("get").as_deref(),
        Some(&b"pending-review"[..]),
        "acknowledged suffix write survived the crash"
    );
    assert!(
        reopened.get(b"user:000002").expect("get").is_some(),
        "checkpointed write survived via the spilled segments"
    );
    println!("acknowledged writes intact: user:000002 and audit:000999 both present");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
