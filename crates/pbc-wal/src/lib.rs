//! Sharded group-commit write-ahead log for the tiered store.
//!
//! `pbc-wal` makes acknowledged writes survive a crash before they are
//! spilled to compressed segments. Keys hash (format-stably) to one of N
//! independent **shards**; each shard is a sequence of append-only
//! segment files of CRC-framed records (`put` / `delete` / `checkpoint
//! marker`) with monotonically increasing LSNs. Durability is a dial
//! ([`Durability`]): from `None` (page cache only) through `Periodic` to
//! the default **group commit** (`PerBatch` — an acknowledged write is
//! fsynced, and N concurrent writers share one `sync_data`).
//!
//! Each shard has one durable point: a caller that needs its records on
//! disk waits until the shard's synced LSN covers them, and when no fsync
//! is in flight it leads the next one, running `sync_data` with the
//! shard's mutex released while later appends queue up behind it. The
//! `PerBatch` ack, a due `Periodic` sync, [`Wal::sync`], checkpoint
//! markers and the seal before a segment rotates all go through it, so no
//! segment fsync ever blocks appenders on the lock, and there is no
//! batching window to tune: a batch is whatever was appended by the time
//! its leader started.
//!
//! On [`Wal::open`] the log is recovered: each shard's newest non-empty
//! segment has its torn tail truncated at the first bad CRC, and every
//! record past the last *visible* checkpoint mark (one whose manifest
//! generation actually committed) is replayed through a caller closure.
//! After the owning store flushes, [`Wal::checkpoint`] appends durable
//! markers and deletes the sealed segments they cover, keeping the log
//! bounded.
//!
//! Three durability details worth knowing: segment creations and
//! deletions are made durable with directory fsyncs (a power loss never
//! loses a rotated-in file's directory entry); a failed fsync
//! **poisons** its shard — every later append/sync errors with
//! [`WalError::Poisoned`] until reopen, because retrying `sync_data` on
//! the same fd can falsely succeed (fsyncgate); and the shard count is
//! recorded in a `wal.meta` file, fsynced before the first segment, so a
//! shard whose segment files are all gone recovers as empty instead of
//! tripping the [`WalError::ShardCountMismatch`] guard, and segment files
//! with no `wal.meta` beside them are reported as [`WalError::Corrupt`].
//! Callers that mirror the log into a store of their own should mutate
//! through [`Wal::append_put_with`] / [`Wal::append_delete_with`], which
//! run the mutation under the same lock that assigns the LSN — making
//! replay order identical to application order for same-key operations.
//!
//! ```
//! use pbc_wal::{Durability, ReplayOp, Wal, WalConfig, WalObs};
//!
//! let dir = std::env::temp_dir().join(format!("pbc-wal-doc-{}", std::process::id()));
//! let config = WalConfig::new(&dir).with_shards(2).with_durability(Durability::PerBatch);
//!
//! // First open: empty log, nothing to replay.
//! let (wal, report) = Wal::open(config.clone(), WalObs::default(), 0, |_op| {}).unwrap();
//! assert_eq!(report.records_replayed, 0);
//! wal.append_put(b"k1", b"v1").unwrap();
//! wal.append_delete(b"k0").unwrap();
//! drop(wal);
//!
//! // Reopen: both acknowledged records come back, in order per key.
//! let mut replayed = Vec::new();
//! let (_wal, report) = Wal::open(config, WalObs::default(), 0, |op| {
//!     replayed.push(match op {
//!         ReplayOp::Put { key, .. } => (key.to_vec(), true),
//!         ReplayOp::Delete { key } => (key.to_vec(), false),
//!     });
//! })
//! .unwrap();
//! assert_eq!(report.records_replayed, 2);
//! assert!(replayed.contains(&(b"k1".to_vec(), true)));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod error;
mod format;
mod obs;
mod shard;
mod wal;

pub use config::{Durability, WalConfig};
pub use error::{Result, WalError};
pub use format::shard_of;
pub use obs::WalObs;
pub use wal::{CheckpointSummary, RecoveryReport, ReplayOp, Wal, WalStats};

/// The root integration tests' temp-dir helper, shared.
#[cfg(test)]
#[path = "../../../tests/support/mod.rs"]
mod test_support;

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use super::*;
    use crate::test_support::temp_dir;

    fn replay_into(map: &mut BTreeMap<Vec<u8>, Vec<u8>>) -> impl FnMut(ReplayOp<'_>) + '_ {
        move |op| match op {
            ReplayOp::Put { key, value } => {
                map.insert(key.to_vec(), value.to_vec());
            }
            ReplayOp::Delete { key } => {
                map.remove(key);
            }
        }
    }

    #[test]
    fn reopen_replays_acknowledged_writes() {
        let (dir, _guard) = temp_dir("replay");
        let config = WalConfig::new(&dir).with_shards(3);
        let (wal, _) = Wal::open(config.clone(), WalObs::default(), 0, |_| {}).unwrap();
        for i in 0..50u32 {
            wal.append_put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        wal.append_delete(b"k007").unwrap();
        drop(wal);

        let mut state = BTreeMap::new();
        let (_wal, report) =
            Wal::open(config, WalObs::default(), 0, replay_into(&mut state)).unwrap();
        assert_eq!(report.records_replayed, 51);
        assert_eq!(state.len(), 49);
        assert!(!state.contains_key(b"k007".as_slice()));
        assert_eq!(state.get(b"k001".as_slice()).unwrap(), b"v1");
    }

    #[test]
    fn torn_tail_truncates_to_committed_prefix() {
        let (dir, _guard) = temp_dir("torn");
        let config = WalConfig::new(&dir).with_shards(1);
        let (wal, _) = Wal::open(config.clone(), WalObs::default(), 0, |_| {}).unwrap();
        for i in 0..10u32 {
            wal.append_put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        drop(wal);

        // Corrupt the final bytes of the only segment: flip one byte in
        // the last record's payload so its CRC no longer matches.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|ext| ext == "log"))
            .unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();

        let mut state = BTreeMap::new();
        let (_wal, report) =
            Wal::open(config, WalObs::default(), 0, replay_into(&mut state)).unwrap();
        assert_eq!(report.records_replayed, 9);
        assert!(report.truncated_bytes > 0);
        assert_eq!(state.len(), 9);
        assert!(!state.contains_key(b"k9".as_slice()));
    }

    #[test]
    fn checkpoint_bounds_the_log_and_skips_covered_records() {
        let (dir, _guard) = temp_dir("ckpt");
        // Tiny segments so rotation happens constantly.
        let config = WalConfig::new(&dir).with_shards(2).with_segment_bytes(256);
        let (wal, _) = Wal::open(config.clone(), WalObs::default(), 0, |_| {}).unwrap();
        for i in 0..100u32 {
            wal.append_put(format!("k{i:04}").as_bytes(), &[0u8; 32])
                .unwrap();
        }
        let before = wal.stats();
        assert!(
            before.segments > 4,
            "expected many segments, got {}",
            before.segments
        );

        let marks = wal.capture_marks();
        let summary = wal.checkpoint(&marks, 7).unwrap();
        assert!(summary.segments_deleted > 0);
        let after = wal.stats();
        assert!(after.bytes < before.bytes);
        drop(wal);

        // Manifest generation 7 is visible, so nothing replays; writes
        // made after the checkpoint do.
        let (wal, report) = Wal::open(config.clone(), WalObs::default(), 7, |_| {
            panic!("checkpointed records must not replay");
        })
        .unwrap();
        assert_eq!(report.records_replayed, 0);
        for i in 0..5u32 {
            wal.append_put(format!("post{i}").as_bytes(), b"v").unwrap();
        }
        drop(wal);
        let mut state = BTreeMap::new();
        let (_wal, report) =
            Wal::open(config, WalObs::default(), 7, replay_into(&mut state)).unwrap();
        assert_eq!(report.records_replayed, 5);
        assert_eq!(state.len(), 5);
    }

    #[test]
    fn shard_count_change_is_rejected() {
        let (dir, _guard) = temp_dir("shards");
        let config = WalConfig::new(&dir).with_shards(4);
        let (wal, _) = Wal::open(config, WalObs::default(), 0, |_| {}).unwrap();
        wal.append_put(b"k", b"v").unwrap();
        drop(wal);

        let err = Wal::open(
            WalConfig::new(&dir).with_shards(2),
            WalObs::default(),
            0,
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(
            err,
            WalError::ShardCountMismatch {
                on_disk: 4,
                configured: 2
            }
        ));
    }

    #[test]
    fn missing_shard_files_recover_as_empty() {
        // A crash during `Wal::open` (or a recovery sweep of a shard's
        // empty segments) can leave a shard with no files at all. The
        // shard count in wal.meta is authoritative: the shard recovers
        // as empty instead of tripping ShardCountMismatch forever.
        let (dir, _guard) = temp_dir("missing-shard");
        let config = WalConfig::new(&dir).with_shards(4);
        let (wal, _) = Wal::open(config.clone(), WalObs::default(), 0, |_| {}).unwrap();
        for i in 0..64u32 {
            wal.append_put(format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        drop(wal);

        // Simulate the crash window: every file of the highest shard
        // index is gone.
        let mut removed = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("wal-003-") {
                std::fs::remove_file(&path).unwrap();
                removed += 1;
            }
        }
        assert!(removed > 0, "shard 3 held at least its active segment");

        let mut state = BTreeMap::new();
        let (wal, report) = Wal::open(
            config.clone(),
            WalObs::default(),
            0,
            replay_into(&mut state),
        )
        .unwrap();
        assert!(report.records_replayed > 0);
        // The empty shard accepts fresh appends and a further reopen
        // still agrees on the count.
        wal.append_put(b"post", b"v").unwrap();
        drop(wal);
        let (_wal, _) = Wal::open(config, WalObs::default(), 0, |_| {}).unwrap();
    }

    #[test]
    fn segments_without_wal_meta_are_corrupt() {
        // `wal.meta` is fsynced before the first segment exists, so
        // segments without it are damage, not a layout to infer.
        let (dir, _guard) = temp_dir("no-meta");
        let config = WalConfig::new(&dir).with_shards(2);
        let (wal, _) = Wal::open(config.clone(), WalObs::default(), 0, |_| {}).unwrap();
        wal.append_put(b"k", b"v").unwrap();
        drop(wal);
        std::fs::remove_file(dir.join("wal.meta")).unwrap();

        let err = Wal::open(config, WalObs::default(), 0, |_| {}).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn growing_the_shard_count_is_rejected_too() {
        let (dir, _guard) = temp_dir("grow-shards");
        let (wal, _) = Wal::open(
            WalConfig::new(&dir).with_shards(2),
            WalObs::default(),
            0,
            |_| {},
        )
        .unwrap();
        wal.append_put(b"k", b"v").unwrap();
        drop(wal);
        let err = Wal::open(
            WalConfig::new(&dir).with_shards(8),
            WalObs::default(),
            0,
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(
            err,
            WalError::ShardCountMismatch {
                on_disk: 2,
                configured: 8
            }
        ));
    }

    #[test]
    fn torn_tail_before_an_empty_successor_segment_truncates() {
        // Rotation fsyncs the active tail before creating its successor,
        // so a tear can only exist in the newest *non-empty* segment.
        // Recovery must accept exactly that shape — a torn segment
        // followed only by empty files — rather than calling it corrupt.
        let (dir, _guard) = temp_dir("torn-rotate");
        let config = WalConfig::new(&dir).with_shards(1);
        let (wal, _) = Wal::open(config.clone(), WalObs::default(), 0, |_| {}).unwrap();
        for i in 0..10u32 {
            wal.append_put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        drop(wal);

        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|ext| ext == "log"))
            .unwrap();
        let len = std::fs::metadata(&seg).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 3).unwrap(); // tear the last frame
        drop(file);
        // The empty successor a crashed rotation would have left behind.
        std::fs::File::create(dir.join("wal-000-0000000001.log")).unwrap();

        let mut state = BTreeMap::new();
        let (_wal, report) =
            Wal::open(config, WalObs::default(), 0, replay_into(&mut state)).unwrap();
        assert_eq!(report.records_replayed, 9);
        assert!(report.truncated_bytes > 0);
        assert!(!state.contains_key(b"k9".as_slice()));
    }

    #[test]
    fn apply_under_the_shard_lock_returns_results_and_skips_unlogged_ops() {
        let (dir, _guard) = temp_dir("apply");
        let config = WalConfig::new(&dir).with_shards(2);
        let (wal, _) = Wal::open(config.clone(), WalObs::default(), 0, |_| {}).unwrap();
        let (stored, lsn) = wal.append_put_with(b"k", b"v", || 42usize).unwrap();
        assert_eq!(stored, 42);
        assert_eq!(lsn, 1);
        // A delete that found nothing logs nothing and assigns no LSN.
        let (existed, lsn) = wal.append_delete_with(b"ghost", || (false, false)).unwrap();
        assert!(!existed);
        assert_eq!(lsn, None);
        let (existed, lsn) = wal.append_delete_with(b"k", || (true, true)).unwrap();
        assert!(existed);
        assert!(lsn.is_some());
        drop(wal);

        let mut state = BTreeMap::new();
        let (_wal, report) =
            Wal::open(config, WalObs::default(), 0, replay_into(&mut state)).unwrap();
        assert_eq!(
            report.records_replayed, 2,
            "the ghost delete never hit the log"
        );
        assert!(state.is_empty());
    }

    #[test]
    fn group_commit_batches_concurrent_writers() {
        let per_thread = 40u32;
        let threads = 8usize;
        let writes = threads as u64 * per_thread as u64;
        let (dir, _guard) = temp_dir("group");
        let config = WalConfig::new(&dir)
            .with_shards(1)
            .with_durability(Durability::PerBatch);
        let obs = WalObs::new(&pbc_obs::MetricsRegistry::new(), None);
        let (wal, _) = Wal::open(config.clone(), obs.clone(), 0, |_| {}).unwrap();
        let wal = Arc::new(wal);
        let fsyncs_at_open = obs.fsyncs.value();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        wal.append_put(format!("t{t}-{i}").as_bytes(), b"v")
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Group commit shares syncs between the writers queued behind the
        // one in flight.
        let fsyncs = obs.fsyncs.value() - fsyncs_at_open;
        assert_eq!(obs.appends.value(), writes);
        assert!(fsyncs < writes, "{fsyncs} fsyncs: no batch formed");
        drop(wal);

        let mut count = 0u64;
        let (_wal, report) = Wal::open(config, WalObs::default(), 0, |_| count += 1).unwrap();
        assert_eq!(report.records_replayed, writes);
        assert_eq!(count, report.records_replayed);
    }

    #[test]
    fn group_commit_across_constant_rotation_keeps_every_ack() {
        // Three 28-byte frames fill a 64-byte segment, so every third
        // append seals a segment while other writers wait on, or lead, a
        // sync.
        let per_thread = 40u32;
        let threads = 8usize;
        let writes = threads as u64 * per_thread as u64;
        let (dir, _guard) = temp_dir("group-rotate");
        let config = WalConfig::new(&dir)
            .with_shards(1)
            .with_segment_bytes(64)
            .with_durability(Durability::PerBatch);
        let obs = WalObs::new(&pbc_obs::MetricsRegistry::new(), None);
        let (wal, _) = Wal::open(config.clone(), obs.clone(), 0, |_| {}).unwrap();
        let wal = Arc::new(wal);
        let fsyncs_at_open = obs.fsyncs.value();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        wal.append_put(format!("{t}{i:02}").as_bytes(), b"")
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let fsyncs = obs.fsyncs.value() - fsyncs_at_open;
        assert!(obs.rotations.value() >= writes / 3 - 1);
        assert!(fsyncs < writes, "{fsyncs} fsyncs for {writes} appends");
        drop(wal);

        // Every sealed segment replays whole: a bad frame there would be
        // reported as corrupt, and only the newest one may be torn.
        let mut state = BTreeMap::new();
        let (_wal, report) =
            Wal::open(config, WalObs::default(), 0, replay_into(&mut state)).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.records_replayed, writes);
        for t in 0..threads {
            for i in 0..per_thread {
                assert!(state.contains_key(format!("{t}{i:02}").as_bytes()));
            }
        }
    }

    #[test]
    fn durability_none_still_recovers_after_clean_drop() {
        let (dir, _guard) = temp_dir("none");
        let config = WalConfig::new(&dir)
            .with_shards(2)
            .with_durability(Durability::None);
        let (wal, _) = Wal::open(config.clone(), WalObs::default(), 0, |_| {}).unwrap();
        wal.append_put(b"a", b"1").unwrap();
        wal.append_put(b"b", b"2").unwrap();
        drop(wal);
        let mut state = BTreeMap::new();
        let (_wal, report) =
            Wal::open(config, WalObs::default(), 0, replay_into(&mut state)).unwrap();
        assert_eq!(report.records_replayed, 2);
    }
}
