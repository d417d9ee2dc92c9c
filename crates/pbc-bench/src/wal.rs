//! WAL experiment: what each durability level costs at the write path,
//! and what group commit buys back.
//!
//! **Phase 1 — the durability ladder.** Eight writer threads hammer a
//! fresh tiered store per mode: no WAL at all, then
//! [`Durability::None`], `Periodic(1ms)`, `PerBatch` (group commit), and
//! `PerWrite` (one fsync per acknowledged write, the naive baseline).
//! Every mode runs the identical key/value stream on a **single** WAL
//! shard so the group-commit contrast is maximal: under `PerWrite` all
//! eight threads serialize behind one fsync each, while under `PerBatch`
//! they share a leader's `sync_data` and the batch-size histogram shows
//! how many rode along. The ladder runs without the maintenance thread
//! (and without automatic checkpoints) so the rows measure the pure
//! write-path cost of each level. The headline number is the throughput
//! ratio `PerBatch / PerWrite` — the claim being that group commit
//! recovers most of the cost of per-write durability.
//!
//! **Phase 2 — the bounded log.** A separate `PerBatch` store runs with
//! the maintenance thread on and a deliberately small checkpoint
//! threshold. A warm-up prefix is written and checkpointed first so the
//! one-time spill-codec training does not masquerade as checkpoint
//! latency. A sampler thread records the peak on-disk WAL size while
//! checkpoints flush the hot tier and delete covered segments mid-run;
//! the peak staying far below the bytes appended is the bounded-size
//! evidence. The store is then reopened to show recovery replaying only
//! the un-checkpointed suffix.
//!
//! [`Durability::None`]: pbc_tier::Durability::None

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pbc_datagen::Dataset;
use pbc_tier::{Durability, TierConfig, TieredStore, WalOptions};

use crate::data::corpus;
use crate::report::Table;

/// Writer threads per mode (the contended case the paper's production
/// store cares about).
pub const WRITER_THREADS: usize = 8;

/// WAL segment rotation threshold for the experiment (small, so
/// checkpoints have whole segments to delete).
const SEGMENT_BYTES: u64 = 8 * 1024;

/// Automatic checkpoint threshold for the bounded-log phase (small, so
/// several checkpoints happen within one run).
const CHECKPOINT_BYTES: u64 = 24 * 1024;

/// A throwaway store directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::AtomicU64;
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        TempDir(std::env::temp_dir().join(format!(
            "pbc-bench-wal-{}-{tag}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One durability mode's measurements.
#[derive(Debug, Clone)]
pub struct WalModeRow {
    /// Mode label (`wal off`, `none (no fsync)`, `periodic 1ms`,
    /// `group commit`, `fsync per write`).
    pub mode: String,
    /// Wall-clock seconds for all acknowledged writes.
    pub elapsed_secs: f64,
    /// Acknowledged writes per second across all threads.
    pub writes_per_sec: f64,
    /// Median per-write latency in nanoseconds (includes the WAL append
    /// and whatever sync the level demands).
    pub put_p50_ns: u64,
    /// 99th-percentile per-write stall in nanoseconds.
    pub put_p99_ns: u64,
    /// Worst per-write stall in nanoseconds.
    pub put_max_ns: u64,
    /// `sync_data` calls the mode issued.
    pub fsyncs: u64,
    /// Mean records made durable per fsync (1.0 under `PerWrite`; 0 when
    /// the mode never synced during the run).
    pub mean_batch: f64,
}

/// Everything the WAL experiment reports.
#[derive(Debug, Clone)]
pub struct WalReport {
    /// Acknowledged writes per ladder mode.
    pub writes: usize,
    /// Concurrent writer threads.
    pub threads: usize,
    /// One row per durability mode, in ladder order.
    pub rows: Vec<WalModeRow>,
    /// Throughput ratio `PerBatch / PerWrite` — what group commit buys.
    pub group_commit_speedup: f64,
    /// Acknowledged writes in the bounded-log phase.
    pub bounded_writes: usize,
    /// Exact bytes those writes appended to the log (framing included).
    pub bounded_appended_bytes: u64,
    /// Peak on-disk WAL bytes the sampler saw during the bounded phase.
    pub wal_peak_bytes: u64,
    /// Peak segment-file count during the bounded phase.
    pub wal_peak_segments: u64,
    /// On-disk WAL bytes once the last background checkpoint settled.
    pub wal_final_bytes: u64,
    /// Background checkpoints taken during the bounded phase.
    pub checkpoints: u64,
    /// Covered WAL segments deleted by those checkpoints.
    pub segments_deleted: u64,
    /// The checkpoint threshold the maintenance thread enforced.
    pub checkpoint_bytes: u64,
    /// Records replayed when the bounded-phase store was reopened (the
    /// un-checkpointed suffix).
    pub reopen_replayed: u64,
}

fn wal_key(i: usize) -> Vec<u8> {
    format!("wal:{i:08}").into_bytes()
}

/// The on-disk WAL cost of one put: `[len u32][crc u32]` framing plus
/// the `lsn, op, key-length, key, value-length, value` payload. Kept in
/// step with `pbc_wal`'s record format so the bounded-log phase can
/// compare the sampler's peak against the exact bytes appended.
fn put_frame_bytes(key: &[u8], value: &[u8]) -> u64 {
    (4 + 4 + 8 + 1 + 4 + key.len() + 4 + value.len()) as u64
}

/// The per-mode tier config. No watermark spills (writes stay hot), one
/// WAL shard, small segments. The ladder runs without the maintenance
/// thread so no checkpoint stalls pollute the throughput rows; the
/// bounded phase turns it on with a small checkpoint threshold.
fn mode_config(dir: &std::path::Path, durability: Option<Durability>, bounded: bool) -> TierConfig {
    let mut config = TierConfig::new(dir)
        .with_watermark(u64::MAX)
        .with_background_compaction(bounded)
        .with_maintenance_tick(Duration::from_millis(2));
    if let Some(durability) = durability {
        config = config.with_wal(
            WalOptions::with_durability(durability)
                .shards(1)
                .segment_bytes(SEGMENT_BYTES)
                .checkpoint_bytes(if bounded { CHECKPOINT_BYTES } else { u64::MAX }),
        );
    }
    config
}

/// Run `writes` acknowledged puts across [`WRITER_THREADS`] threads
/// (thread `t` takes indices `t, t + THREADS, ...`).
fn run_writers(store: &TieredStore, records: &[Vec<u8>], writes: usize) {
    std::thread::scope(|scope| {
        for t in 0..WRITER_THREADS {
            scope.spawn(move || {
                let mut i = t;
                while i < writes {
                    store
                        .set(&wal_key(i), &records[i % records.len()])
                        .expect("wal-bench set");
                    i += WRITER_THREADS;
                }
            });
        }
    });
}

/// Time one ladder mode against a fresh store and read its metrics back.
fn run_mode(
    tag: &str,
    label: &str,
    durability: Option<Durability>,
    records: &[Vec<u8>],
    writes: usize,
) -> WalModeRow {
    let dir = TempDir::new(tag);
    let store =
        TieredStore::open(mode_config(&dir.0, durability, false)).expect("open wal-bench store");
    let started = Instant::now();
    run_writers(&store, records, writes);
    let elapsed = started.elapsed().as_secs_f64();

    let snap = store.metrics().snapshot();
    let put = snap
        .histograms
        .get("pbc_tier_put_latency_ns")
        .cloned()
        .expect("put latency histogram");
    WalModeRow {
        mode: label.to_string(),
        elapsed_secs: elapsed,
        writes_per_sec: writes as f64 / elapsed,
        put_p50_ns: put.p50(),
        put_p99_ns: put.p99(),
        put_max_ns: put.max,
        fsyncs: snap
            .counters
            .get("pbc_wal_fsyncs_total")
            .copied()
            .unwrap_or(0),
        mean_batch: snap
            .histograms
            .get("pbc_wal_commit_batch_records")
            .map(|h| h.mean())
            .unwrap_or(0.0),
    }
}

/// What the bounded-log phase measured.
struct BoundedOutcome {
    appended_bytes: u64,
    peak_bytes: u64,
    peak_segments: u64,
    final_bytes: u64,
    checkpoints: u64,
    segments_deleted: u64,
    reopen_replayed: u64,
}

/// The bounded-log phase: write under `PerBatch` with the maintenance
/// thread checkpointing at [`CHECKPOINT_BYTES`], sampling on-disk WAL
/// size throughout, then wait for the final checkpoint to settle and
/// reopen the store to count what recovery replays.
fn run_bounded(records: &[Vec<u8>], writes: usize) -> BoundedOutcome {
    let dir = TempDir::new("bounded");
    let store = TieredStore::open(mode_config(&dir.0, Some(Durability::PerBatch), true))
        .expect("open bounded wal-bench store");

    // Warm-up: the *first* spill of a store's life trains the block codec,
    // which on one core can outlast the whole measured phase — a startup
    // transient, not steady state. Write a prefix under separate keys and
    // checkpoint it away so the codec is trained and cached (and the WAL
    // near-empty) before sampling starts; measured checkpoints then cost
    // what they cost in a long-lived store.
    for i in 0..400 {
        store
            .set(
                format!("warm:{i:08}").as_bytes(),
                &records[i % records.len()],
            )
            .expect("wal-bench warm-up set");
    }
    store.checkpoint_wal().expect("warm-up checkpoint");
    let baseline = store.metrics().snapshot();
    let base = |name: &str| baseline.counters.get(name).copied().unwrap_or(0);
    let (base_checkpoints, base_deleted) = (
        base("pbc_wal_checkpoints_total"),
        base("pbc_wal_segments_deleted_total"),
    );

    let stop = AtomicBool::new(false);
    let (mut peak_bytes, mut peak_segments) = (0u64, 0u64);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                if let Some(stats) = store.wal_stats() {
                    peak.0 = peak.0.max(stats.bytes);
                    peak.1 = peak.1.max(stats.segments as u64);
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            peak
        });
        run_writers(&store, records, writes);
        // Let the last threshold-triggered checkpoint finish: its segment
        // deletions are what bound the final size.
        let settle = Instant::now();
        while settle.elapsed() < Duration::from_secs(5) {
            let bytes = store.wal_stats().map_or(0, |s| s.bytes);
            if bytes < CHECKPOINT_BYTES {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // The size drop is visible a hair before the checkpoint publishes
        // its counters (segment unlinks sit in between); give the
        // in-flight checkpoint a moment so the metrics read is coherent.
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Relaxed);
        (peak_bytes, peak_segments) = sampler.join().expect("sampler thread");
    });

    let appended_bytes = (0..writes)
        .map(|i| put_frame_bytes(&wal_key(i), &records[i % records.len()]))
        .sum();
    let snap = store.metrics().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let final_bytes = store.wal_stats().map_or(0, |s| s.bytes);
    // Deltas over the warm-up baseline: only checkpoints the maintenance
    // thread took during the measured phase count.
    let checkpoints = counter("pbc_wal_checkpoints_total") - base_checkpoints;
    let segments_deleted = counter("pbc_wal_segments_deleted_total") - base_deleted;
    drop(store);

    // Reopen: recovery replays exactly the acknowledged writes the
    // checkpoints had not yet covered.
    let reopened = TieredStore::open(mode_config(&dir.0, Some(Durability::PerBatch), false))
        .expect("reopen wal-bench store");
    let reopen_replayed = reopened
        .wal_recovery()
        .map(|r| r.records_replayed)
        .unwrap_or(0);
    drop(reopened);

    BoundedOutcome {
        appended_bytes,
        peak_bytes,
        peak_segments,
        final_bytes,
        checkpoints,
        segments_deleted,
        reopen_replayed,
    }
}

/// Run the WAL experiment at `scale` (write counts scale linearly, with
/// floors so group commit always has contention to batch and the bounded
/// phase always crosses its checkpoint threshold several times).
pub fn wal_experiment(scale: f64) -> WalReport {
    let records = corpus(Dataset::Kv1, scale);
    let writes = ((6_000.0 * scale).round() as usize).max(1_200);
    let bounded_writes = ((6_000.0 * scale).round() as usize).max(2_400);

    let ladder: [(&str, &str, Option<Durability>); 5] = [
        ("off", "wal off", None),
        ("none", "none (no fsync)", Some(Durability::None)),
        (
            "periodic",
            "periodic 1ms",
            Some(Durability::Periodic(Duration::from_millis(1))),
        ),
        ("batch", "group commit", Some(Durability::PerBatch)),
        ("write", "fsync per write", Some(Durability::PerWrite)),
    ];

    let mut rows = Vec::with_capacity(ladder.len());
    for (tag, label, durability) in ladder {
        rows.push(run_mode(tag, label, durability, &records, writes));
    }
    let batch_rate = rows[3].writes_per_sec;
    let per_write_rate = rows[4].writes_per_sec;
    let group_commit_speedup = if per_write_rate > 0.0 {
        batch_rate / per_write_rate
    } else {
        0.0
    };

    let bounded = run_bounded(&records, bounded_writes);

    WalReport {
        writes,
        threads: WRITER_THREADS,
        rows,
        group_commit_speedup,
        bounded_writes,
        bounded_appended_bytes: bounded.appended_bytes,
        wal_peak_bytes: bounded.peak_bytes,
        wal_peak_segments: bounded.peak_segments,
        wal_final_bytes: bounded.final_bytes,
        checkpoints: bounded.checkpoints,
        segments_deleted: bounded.segments_deleted,
        checkpoint_bytes: CHECKPOINT_BYTES,
        reopen_replayed: bounded.reopen_replayed,
    }
}

/// Render the WAL experiment as a report table.
pub fn wal_throughput(scale: f64) -> Table {
    let report = wal_experiment(scale);
    let mut table = Table::new(
        "WAL: durability ladder under 8 concurrent writers",
        &[
            "durability",
            "writes/s",
            "p50 us",
            "p99 us",
            "max ms",
            "fsyncs",
            "mean batch",
        ],
    );
    for row in &report.rows {
        table.push_row(vec![
            row.mode.clone(),
            format!("{:.0}", row.writes_per_sec),
            format!("{:.1}", row.put_p50_ns as f64 / 1_000.0),
            format!("{:.1}", row.put_p99_ns as f64 / 1_000.0),
            format!("{:.2}", row.put_max_ns as f64 / 1_000_000.0),
            row.fsyncs.to_string(),
            format!("{:.1}", row.mean_batch),
        ]);
    }
    let note = |label: &str, value: String| {
        let mut row = vec![label.to_string(), value];
        row.resize(7, String::new());
        row
    };
    table.push_row(note(
        "group commit vs per-write",
        format!(
            "{:.1}x over {} writes",
            report.group_commit_speedup, report.writes
        ),
    ));
    table.push_row(note(
        "bounded run: appended",
        format!(
            "{} bytes over {} writes",
            report.bounded_appended_bytes, report.bounded_writes
        ),
    ));
    table.push_row(note(
        "bounded run: WAL peak / final",
        format!(
            "{} / {} bytes (threshold {}, peak {} segments)",
            report.wal_peak_bytes,
            report.wal_final_bytes,
            report.checkpoint_bytes,
            report.wal_peak_segments
        ),
    ));
    table.push_row(note(
        "checkpoints / segments deleted",
        format!("{} / {}", report.checkpoints, report.segments_deleted),
    ));
    table.push_row(note(
        "reopen replayed",
        format!(
            "{} of {} writes (un-checkpointed suffix)",
            report.reopen_replayed, report.bounded_writes
        ),
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_commit_beats_per_write_and_the_log_stays_bounded() {
        let report = wal_experiment(0.02);
        assert_eq!(report.rows.len(), 5);
        for row in &report.rows {
            assert!(
                row.writes_per_sec > 0.0 && row.put_p50_ns > 0,
                "{} mode recorded nothing",
                row.mode
            );
        }
        // Reported, not asserted: how much throughput group commit buys
        // over one fsync per write depends on the box's cores and disk.
        // What must hold everywhere is structural and follows.
        println!("group_commit_speedup {:.2}", report.group_commit_speedup);
        // Group commit shares syncs: strictly fewer fsyncs than writes,
        // with more than one record riding each on average.
        let batch = &report.rows[3];
        let per_write = &report.rows[4];
        assert!(batch.fsyncs < report.writes as u64);
        assert!(batch.mean_batch > 1.0, "batches never formed");
        assert!(per_write.fsyncs >= report.writes as u64);
        // Bounded log: background checkpoints ran mid-run, deleted
        // covered segments, and the on-disk peak stayed well below the
        // bytes appended (the log did not just grow).
        assert!(report.checkpoints >= 1, "no background checkpoint ran");
        assert!(report.segments_deleted >= 1, "no covered segment deleted");
        assert!(
            report.bounded_appended_bytes > 2 * report.checkpoint_bytes,
            "bounded phase too small to demonstrate checkpointing"
        );
        assert!(
            report.wal_peak_bytes < report.bounded_appended_bytes / 2,
            "WAL grew unbounded: peak {} of {} appended bytes",
            report.wal_peak_bytes,
            report.bounded_appended_bytes
        );
        // Reopen recovers only the un-checkpointed suffix.
        assert!(report.reopen_replayed <= report.bounded_writes as u64);
    }
}
