//! One log shard: an active append segment, sealed predecessors, and the
//! shard's one durable point.
//!
//! ## One durable point
//!
//! A record becomes durable in exactly one place, `WalShard::sync_to`: it
//! returns once `synced_lsn` covers a target LSN. A caller that finds a
//! sync in flight waits for it; one that finds none becomes the
//! **leader** — it snapshots `appended_lsn` as its batch, runs the shard's
//! only `sync_data` *with the mutex released*, then re-takes the mutex to
//! publish `synced_lsn` (or poison the shard) and wake every waiter.
//! Waiters whose records the batch covered return; one of the rest leads
//! the next sync. Appends keep landing while a leader's fsync is out, so
//! N concurrent writers share one `sync_data` per batch. There is no
//! batching window: a batch is whatever was appended by the time the
//! leader took its snapshot.
//!
//! Every durability need goes through it: the `PerBatch` ack, a due
//! `Periodic` sync (from an append or `tick`; it never waits behind an
//! in-flight sync), `sync`, the checkpoint marker, and the rotation seal.
//! So no fsync on a segment ever runs under the shard mutex.
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
    /// Active segment. `Arc` so the sync leader can `sync_data` it with
    /// the mutex released.
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
    /// A leader is running `sync_data` with the mutex released.
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

/// The LSN after `lsn`. Only a damaged or forged log gets near the top
/// of the range; reaching it is reported, never wrapped or overflowed.
fn after_lsn(lsn: u64) -> Result<u64> {
    lsn.checked_add(1).ok_or_else(|| WalError::Corrupt {
        context: format!("LSN {lsn} leaves no LSN to assign"),
    })
}

impl ShardState {
    /// Write the frame `encode` builds for the next LSN at the end of the
    /// active segment and account for it. Returns that LSN.
    fn append_frame(&mut self, encode: impl FnOnce(u64) -> Vec<u8>) -> Result<u64> {
        let lsn = self.next_lsn;
        let next_lsn = after_lsn(lsn)?;
        let frame = encode(lsn);
        write_all_at(&self.file, &frame, self.file_bytes)?;
        self.file_bytes += frame.len() as u64;
        self.next_lsn = next_lsn;
        self.appended_lsn = lsn;
        self.active_max_lsn = lsn;
        Ok(lsn)
    }
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
        let next_lsn = after_lsn(max_lsn_seen)?;
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
                next_lsn,
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
        let mut state = self.make_room(self.state.lock())?;
        let (result, log) = apply();
        if !log {
            return Ok((result, None));
        }
        let lsn = state.append_frame(encode)?;
        self.obs.appends.inc();
        // A due Periodic sync finds none in flight, so this appender
        // leads it and returns; Periodic acknowledges before durability.
        if self.durability == Durability::PerBatch || self.periodic_due(&state) {
            drop(self.sync_to(state, lsn)?);
        }
        Ok((result, Some(lsn)))
    }

    /// The shard's one durable point (see the module docs): return, with
    /// the lock re-held, once `synced_lsn >= target` — waiting for an
    /// in-flight sync, or leading the next one when none is.
    fn sync_to<'a>(
        &'a self,
        mut state: MutexGuard<'a, ShardState>,
        target: u64,
    ) -> Result<MutexGuard<'a, ShardState>> {
        // A completed sync that covered `target` is a truthful ack even if
        // a later fsync failed and poisoned the shard.
        while state.synced_lsn < target {
            // A leader's fsync failed while we waited: our record may or
            // may not have hit disk, and retrying the fsync could falsely
            // succeed (fsyncgate) — report the failure instead.
            self.check_usable(&state)?;
            if state.sync_in_flight {
                self.synced.wait(&mut state);
                continue;
            }
            state.sync_in_flight = true;
            let batch_end = state.appended_lsn;
            let batch = batch_end - state.synced_lsn;
            let file = Arc::clone(&state.file);
            drop(state);
            let timer = self.obs.fsync_ns.start_timer();
            let outcome = file.sync_data();
            timer.observe();
            self.obs.fsyncs.inc();
            state = self.state.lock();
            state.sync_in_flight = false;
            // Waiters wake once this guard is released, so they see what
            // is published below.
            self.synced.notify_all();
            if let Err(e) = outcome {
                // A failed fsync may have dropped the dirty pages and
                // cleared the fd's error flag (fsyncgate): a waiter
                // retrying `sync_data` could report success without the
                // data being durable. Poison the shard — the woken
                // waiters and all future appends fail until reopen.
                state.poisoned = true;
                return Err(e.into());
            }
            self.obs.batch_records.record(batch);
            state.synced_lsn = batch_end;
            state.last_sync = Instant::now();
        }
        Ok(state)
    }

    /// Whether a `Periodic` shard owes a sync: its interval has elapsed
    /// with unsynced records and no sync is in flight (a periodic sync
    /// never waits behind one). Always false at the other levels.
    fn periodic_due(&self, state: &ShardState) -> bool {
        match self.durability {
            Durability::Periodic(interval) => {
                !state.sync_in_flight
                    && state.synced_lsn < state.appended_lsn
                    && state.last_sync.elapsed() >= interval
            }
            Durability::None | Durability::PerBatch => false,
        }
    }

    /// Return, lock held and shard usable, with room in the active
    /// segment. While it is full: make its tail durable, then open the
    /// successor once `synced_lsn` covers that tail. Recovery truncates a
    /// torn tail only in the newest non-empty segment, so the old tail
    /// must be durable before a newer segment can appear on disk. The
    /// lock is released while the tail syncs, and another caller may
    /// rotate meanwhile, so every pass re-reads the state.
    fn make_room<'a>(
        &'a self,
        mut state: MutexGuard<'a, ShardState>,
    ) -> Result<MutexGuard<'a, ShardState>> {
        loop {
            self.check_usable(&state)?;
            if state.file_bytes < self.segment_bytes {
                return Ok(state);
            }
            if state.synced_lsn >= state.active_max_lsn {
                self.rotate(&mut state)?;
            } else {
                let tail = state.active_max_lsn;
                state = self.sync_to(state, tail)?;
            }
        }
    }

    /// Seal the active segment, whose tail `synced_lsn` already covers,
    /// and open its successor.
    fn rotate(&self, state: &mut ShardState) -> Result<()> {
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
        let state = self.state.lock();
        self.check_usable(&state)?;
        let covered_any = state.sealed.iter().any(|s| s.max_lsn <= mark);
        if mark <= state.last_mark && !covered_any {
            return Ok(Vec::new());
        }
        let mut state = self.make_room(state)?;
        if mark > state.last_mark {
            let lsn = state.append_frame(|lsn| format::encode_checkpoint(lsn, mark, generation))?;
            state = self.sync_to(state, lsn)?;
            // Recorded only once the marker is durable: a concurrent
            // checkpoint at the same mark must not skip its own marker
            // and hand out segments while this one's is still in flight.
            state.last_mark = state.last_mark.max(mark);
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

    /// Force everything appended so far durable (clean shutdown, tests),
    /// waiting for an in-flight sync first if there is one.
    pub(crate) fn sync(&self) -> Result<()> {
        let state = self.state.lock();
        self.check_usable(&state)?;
        let target = state.appended_lsn;
        drop(self.sync_to(state, target)?);
        Ok(())
    }

    /// Periodic-durability tick: fsync if the interval elapsed with dirty
    /// records. A no-op for every other durability level.
    pub(crate) fn tick(&self) -> Result<()> {
        if !matches!(self.durability, Durability::Periodic(_)) {
            return Ok(());
        }
        let state = self.state.lock();
        self.check_usable(&state)?;
        if self.periodic_due(&state) {
            let target = state.appended_lsn;
            drop(self.sync_to(state, target)?);
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

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::test_support::temp_dir;

    #[test]
    fn sync_waits_for_an_in_flight_leader_and_covers_every_append() {
        let (dir, _guard) = temp_dir("sync-in-flight");
        std::fs::create_dir_all(&dir).unwrap();
        let shard = WalShard::open(
            0,
            &dir,
            Durability::None,
            1 << 20,
            WalObs::default(),
            0,
            0,
            0,
            Vec::new(),
        )
        .unwrap();
        // A leader's fsync is out, snapshotted before the append below.
        shard.state.lock().sync_in_flight = true;
        let ((), lsn) = shard
            .append_with(|| ((), true), |lsn| format::encode_put(lsn, b"k", b"v"))
            .unwrap();
        let appended = lsn.unwrap();
        std::thread::scope(|scope| {
            let syncer = scope.spawn(|| shard.sync());
            std::thread::sleep(Duration::from_millis(20));
            assert!(!syncer.is_finished(), "sync returned under a leader");
            // The leader finishes without covering the append.
            shard.state.lock().sync_in_flight = false;
            shard.synced.notify_all();
            syncer.join().unwrap().unwrap();
        });
        assert!(shard.state.lock().synced_lsn >= appended);
    }
}
