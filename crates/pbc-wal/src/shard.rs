//! One log shard: an active append segment, sealed predecessors, and the
//! group-commit core.
//!
//! ## Group commit
//!
//! Under [`Durability::PerBatch`], concurrent writers form an implicit
//! commit queue on the shard's mutex: each appends its frame (cheap — a
//! positioned write into the OS page cache), then waits until
//! `synced_lsn` covers its record. The first waiter to find no sync in
//! flight elects itself **leader**, yields briefly while appends keep
//! arriving (the batching window), snapshots the current `appended_lsn`
//! as its target, and runs `sync_data` *outside the lock* — so while the
//! leader's fsync is in flight, more writers keep appending and queue up
//! behind the next sync. When the leader returns it publishes the new
//! `synced_lsn` and wakes everyone; writers whose records the batch
//! covered return, and one of the rest becomes the next leader. N writers
//! therefore share one `sync_data` per batch instead of paying one each.
//!
//! ## Positioned writes
//!
//! Frames are written at an explicit offset (`file_bytes`), not through
//! the fd cursor. If an append fails partway, the shard's offset does not
//! advance, so the next append overwrites the partial frame — a failed
//! write can never strand valid later frames behind a bad one. A crash at
//! that point leaves a torn tail, which recovery truncates.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard};
use pbc_obs::Event;

use crate::config::Durability;
use crate::error::{Result, WalError};
use crate::format;
use crate::obs::WalObs;

/// `wal-<shard>-<seq>.log`, zero-padded so lexical order is replay order.
pub(crate) fn segment_file_name(shard: usize, seq: u64) -> String {
    format!("wal-{shard:03}-{seq:010}.log")
}

/// Parse a segment file name back into `(shard, seq)`.
pub(crate) fn parse_segment_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (shard, seq) = rest.split_once('-')?;
    if shard.len() != 3 || seq.len() != 10 {
        return None;
    }
    Some((shard.parse().ok()?, seq.parse().ok()?))
}

fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.write_all_at(buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(buf)
    }
}

/// Fsync a directory so file creations/deletions inside it are durable.
/// Without this, a power loss can lose a freshly created segment's
/// directory entry even though its (fsynced) data blocks are on disk —
/// acknowledged records gone with no torn tail to show for it.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        // Directory handles cannot be fsynced portably off unix; metadata
        // ordering is left to the filesystem there.
        let _ = dir;
        Ok(())
    }
}

/// A sealed (rotated-out) segment: immutable, fully synced, deletable as
/// soon as a checkpoint mark covers its highest LSN.
#[derive(Debug, Clone)]
pub(crate) struct SealedSegment {
    pub(crate) seq: u64,
    /// Highest record LSN in the file (markers included).
    pub(crate) max_lsn: u64,
    pub(crate) bytes: u64,
}

#[derive(Debug)]
pub(crate) struct ShardState {
    /// Active segment. `Arc` so a group-commit leader can `sync_data`
    /// outside the lock while rotation swaps in a successor.
    file: Arc<File>,
    seq: u64,
    /// Bytes of complete frames in the active segment — the next append
    /// offset.
    file_bytes: u64,
    /// Highest LSN written to the active segment (0 = none yet).
    active_max_lsn: u64,
    /// Next LSN to assign (monotonic per shard, starts at 1).
    next_lsn: u64,
    /// Highest LSN whose frame write completed.
    appended_lsn: u64,
    /// Highest LSN covered by a completed `sync_data`.
    synced_lsn: u64,
    /// A group-commit leader is fsyncing outside the lock.
    sync_in_flight: bool,
    last_sync: Instant,
    /// Highest mark any checkpoint marker on this shard has recorded —
    /// lets an idle shard skip appending redundant markers.
    last_mark: u64,
    /// Set when an fsync on the active segment failed. On Linux a failed
    /// fsync can drop the dirty pages *and clear the error flag*, so a
    /// retry on the same fd may report success without the data being
    /// durable (fsyncgate). Once set, every append/sync/checkpoint on
    /// this shard fails with [`crate::WalError::Poisoned`] until the log
    /// is reopened (recovery reads what actually reached disk).
    poisoned: bool,
    sealed: Vec<SealedSegment>,
}

#[derive(Debug)]
pub(crate) struct WalShard {
    index: usize,
    dir: PathBuf,
    durability: Durability,
    segment_bytes: u64,
    obs: WalObs,
    state: Mutex<ShardState>,
    synced: Condvar,
}

impl WalShard {
    /// Open the shard with a fresh active segment at `seq`, continuing
    /// LSNs after `max_lsn_seen`, over recovered `sealed` predecessors.
    #[allow(clippy::too_many_arguments)] // internal constructor; fields mirror ShardState
    pub(crate) fn open(
        index: usize,
        dir: &Path,
        durability: Durability,
        segment_bytes: u64,
        obs: WalObs,
        seq: u64,
        max_lsn_seen: u64,
        last_mark: u64,
        sealed: Vec<SealedSegment>,
    ) -> Result<WalShard> {
        let file = create_segment(dir, index, seq)?;
        Ok(WalShard {
            index,
            dir: dir.to_path_buf(),
            durability,
            segment_bytes: segment_bytes.max(64),
            obs,
            state: Mutex::new(ShardState {
                file: Arc::new(file),
                seq,
                file_bytes: 0,
                active_max_lsn: 0,
                next_lsn: max_lsn_seen + 1,
                appended_lsn: max_lsn_seen,
                synced_lsn: max_lsn_seen,
                sync_in_flight: false,
                last_sync: Instant::now(),
                last_mark,
                poisoned: false,
                sealed,
            }),
            synced: Condvar::new(),
        })
    }

    fn check_usable(&self, state: &ShardState) -> Result<()> {
        if state.poisoned {
            return Err(WalError::Poisoned { shard: self.index });
        }
        Ok(())
    }

    /// Mark the shard unusable after a failed fsync and wake every
    /// group-commit waiter so it observes the poison instead of electing
    /// itself leader and retrying `sync_data` on the same fd.
    fn poison(&self, state: &mut ShardState) {
        state.poisoned = true;
        self.synced.notify_all();
    }

    /// Run the caller's mutation and append its record as one atomic
    /// step under the shard lock, then honor the shard's durability
    /// level before returning. `apply` returns `(result, log)`; when
    /// `log` is false nothing is appended (no LSN assigned, no
    /// durability wait).
    ///
    /// Running `apply` under the same lock that assigns the LSN is what
    /// makes a caller's store-application order equal LSN order for
    /// same-key operations — the property replay relies on (a key maps
    /// to exactly one shard). Returns `(result, Some(lsn))` when a
    /// record was logged.
    pub(crate) fn append_with<T>(
        &self,
        apply: impl FnOnce() -> (T, bool),
        encode: impl FnOnce(u64) -> Vec<u8>,
    ) -> Result<(T, Option<u64>)> {
        let mut state = self.state.lock();
        self.check_usable(&state)?;
        if state.file_bytes >= self.segment_bytes {
            self.rotate(&mut state)?;
        }
        let (result, log) = apply();
        if !log {
            return Ok((result, None));
        }
        let lsn = state.next_lsn;
        let frame = encode(lsn);
        write_all_at(&state.file, &frame, state.file_bytes)?;
        state.file_bytes += frame.len() as u64;
        state.next_lsn += 1;
        state.appended_lsn = lsn;
        state.active_max_lsn = lsn;
        self.obs.appends.inc();
        match self.durability {
            Durability::None => {}
            Durability::PerBatch => {
                self.group_commit(state, lsn)?;
                return Ok((result, Some(lsn)));
            }
            Durability::Periodic(interval) => {
                if !state.sync_in_flight
                    && state.synced_lsn < state.appended_lsn
                    && state.last_sync.elapsed() >= interval
                {
                    // Leader-style sync, but nobody waits on the result:
                    // Periodic acknowledges before durability.
                    drop(self.lead_sync(state)?);
                    return Ok((result, Some(lsn)));
                }
            }
        }
        Ok((result, Some(lsn)))
    }

    /// `sync_data` while holding the lock; publishes `synced_lsn`. A
    /// failure poisons the shard (see [`ShardState::poisoned`]).
    fn sync_locked(&self, state: &mut ShardState) -> Result<()> {
        let timer = self.obs.fsync_ns.start_timer();
        let outcome = state.file.sync_data();
        timer.observe();
        self.obs.fsyncs.inc();
        if let Err(e) = outcome {
            self.poison(state);
            return Err(e.into());
        }
        self.obs
            .batch_records
            .record(state.appended_lsn - state.synced_lsn);
        state.synced_lsn = state.appended_lsn;
        state.last_sync = Instant::now();
        self.synced.notify_all();
        Ok(())
    }

    /// Group commit: wait until `my_lsn` is durable, electing a leader to
    /// batch the fsync whenever none is in flight (see the module docs).
    fn group_commit<'a>(
        &'a self,
        mut state: MutexGuard<'a, ShardState>,
        my_lsn: u64,
    ) -> Result<()> {
        loop {
            if state.synced_lsn >= my_lsn {
                // A completed sync covered us — a truthful ack even if a
                // later fsync failed and poisoned the shard.
                return Ok(());
            }
            // A leader's fsync failed while we waited: our record may or
            // may not have hit disk, and retrying the fsync could falsely
            // succeed (fsyncgate) — report the failure instead.
            self.check_usable(&state)?;
            if state.sync_in_flight {
                self.synced.wait(&mut state);
                continue;
            }
            state = self.lead_sync(state)?;
        }
    }

    /// Become the sync leader: snapshot the target, fsync outside the
    /// lock, publish, wake waiters. Returns with the lock re-held.
    fn lead_sync<'a>(
        &'a self,
        mut state: MutexGuard<'a, ShardState>,
    ) -> Result<MutexGuard<'a, ShardState>> {
        state.sync_in_flight = true;
        if self.durability == Durability::PerBatch {
            // Batching window: with the leader elected (no second sync can
            // start), release the lock and yield so writers already racing
            // for the shard append their frames before the target is
            // snapshotted — they ride this fsync instead of the next.
            // Scheduler yields while appends keep arriving (bounded), not
            // a timed delay: a lone writer breaks out on the first probe.
            let mut seen = state.appended_lsn;
            for _ in 0..4 {
                drop(state);
                std::thread::yield_now();
                state = self.state.lock();
                if state.appended_lsn == seen {
                    break;
                }
                seen = state.appended_lsn;
            }
        }
        let target = state.appended_lsn;
        let batch = target - state.synced_lsn;
        let file = Arc::clone(&state.file);
        drop(state);
        let timer = self.obs.fsync_ns.start_timer();
        let outcome = file.sync_data();
        timer.observe();
        self.obs.fsyncs.inc();
        let mut state = self.state.lock();
        state.sync_in_flight = false;
        match outcome {
            Ok(()) => {
                self.obs.batch_records.record(batch);
                state.synced_lsn = state.synced_lsn.max(target);
                state.last_sync = Instant::now();
                self.synced.notify_all();
                Ok(state)
            }
            Err(e) => {
                // A failed fsync may have dropped the dirty pages and
                // cleared the fd's error flag (fsyncgate): a waiter
                // retrying `sync_data` here could report success without
                // the data being durable. Poison the shard — waiters and
                // all future appends fail until reopen.
                self.poison(&mut state);
                Err(e.into())
            }
        }
    }

    /// Seal the active segment (fsync — so its max LSN is final and every
    /// group-commit waiter is satisfied) and open a successor.
    fn rotate(&self, state: &mut ShardState) -> Result<()> {
        // Seal *before* the successor exists: recovery only truncates a
        // torn tail in the newest non-empty segment, so the old tail must
        // be durably complete before a newer segment can appear on disk.
        self.sync_locked(state)?;
        let next_seq = state.seq + 1;
        let next_file = create_segment(&self.dir, self.index, next_seq)?;
        let sealed = SealedSegment {
            seq: state.seq,
            max_lsn: state.active_max_lsn,
            bytes: state.file_bytes,
        };
        self.obs.trace(Event::WalRotated {
            shard: self.index,
            sealed_seq: sealed.seq,
            sealed_bytes: sealed.bytes,
        });
        state.sealed.push(sealed);
        state.file = Arc::new(next_file);
        state.seq = next_seq;
        state.file_bytes = 0;
        state.active_max_lsn = 0;
        self.obs.rotations.inc();
        Ok(())
    }

    /// The highest LSN assigned so far — every record at or below it has
    /// already been applied to the hot tier (writers insert before they
    /// append), which is what makes this a safe checkpoint mark to flush
    /// against.
    pub(crate) fn mark(&self) -> u64 {
        self.state.lock().next_lsn - 1
    }

    /// Append a checkpoint marker `(mark, generation)`, fsync it (markers
    /// are always durable — they are what recovery skips by), and return
    /// the sealed segments the mark fully covers, for the caller to
    /// unlink. Skips the marker when `mark` adds nothing over the last one
    /// and no segment is deletable.
    pub(crate) fn checkpoint(&self, mark: u64, generation: u64) -> Result<Vec<(PathBuf, u64)>> {
        let mut state = self.state.lock();
        self.check_usable(&state)?;
        let covered_any = state.sealed.iter().any(|s| s.max_lsn <= mark);
        if mark <= state.last_mark && !covered_any {
            return Ok(Vec::new());
        }
        if state.file_bytes >= self.segment_bytes {
            self.rotate(&mut state)?;
        }
        if mark > state.last_mark {
            let lsn = state.next_lsn;
            let frame = format::encode_checkpoint(lsn, mark, generation);
            write_all_at(&state.file, &frame, state.file_bytes)?;
            state.file_bytes += frame.len() as u64;
            state.next_lsn += 1;
            state.appended_lsn = lsn;
            state.active_max_lsn = lsn;
            state.last_mark = mark;
            self.sync_locked(&mut state)?;
        }
        let (covered, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut state.sealed)
            .into_iter()
            .partition(|s| s.max_lsn <= mark);
        state.sealed = kept;
        Ok(covered
            .into_iter()
            .map(|s| (self.dir.join(segment_file_name(self.index, s.seq)), s.bytes))
            .collect())
    }

    /// Force everything appended so far durable (clean shutdown, tests).
    pub(crate) fn sync(&self) -> Result<()> {
        let mut state = self.state.lock();
        self.check_usable(&state)?;
        if state.synced_lsn < state.appended_lsn && !state.sync_in_flight {
            self.sync_locked(&mut state)?;
        }
        Ok(())
    }

    /// Periodic-durability tick: fsync if the interval elapsed with dirty
    /// records. A no-op for every other durability level.
    pub(crate) fn tick(&self) -> Result<()> {
        let Durability::Periodic(interval) = self.durability else {
            return Ok(());
        };
        let mut state = self.state.lock();
        self.check_usable(&state)?;
        if state.synced_lsn < state.appended_lsn
            && !state.sync_in_flight
            && state.last_sync.elapsed() >= interval
        {
            self.sync_locked(&mut state)?;
        }
        Ok(())
    }

    /// `(total bytes, segment files, highest LSN, highest checkpoint
    /// mark)` for this shard.
    pub(crate) fn snapshot(&self) -> (u64, usize, u64, u64) {
        let state = self.state.lock();
        let bytes = state.file_bytes + state.sealed.iter().map(|s| s.bytes).sum::<u64>();
        (
            bytes,
            1 + state.sealed.len(),
            state.next_lsn - 1,
            state.last_mark,
        )
    }
}

fn create_segment(dir: &Path, shard: usize, seq: u64) -> Result<File> {
    let path = dir.join(segment_file_name(shard, seq));
    let file = OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    // The directory entry must be durable before any acknowledged record
    // lands in this file — `sync_data` on the file does not cover it.
    sync_dir(dir)?;
    Ok(file)
}
