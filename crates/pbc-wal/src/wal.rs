//! The sharded log: open/recover, append, checkpoint, stats.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use pbc_obs::Event;

use crate::config::WalConfig;
use crate::error::{Result, WalError};
use crate::format::{self, DecodeOutcome, Record};
use crate::obs::WalObs;
use crate::shard::{parse_segment_name, sync_dir, SealedSegment, WalShard};

/// Meta file recording the directory's shard count. Written (atomically,
/// via rename) before the first segment is created, so a crash during
/// `Wal::open` — after some shards created segments, or after recovery
/// swept a shard's empty segments — cannot make the count look smaller
/// than it is: a shard with no surviving files simply recovers as empty.
const META_FILE: &str = "wal.meta";

/// Read the shard count from `wal.meta`, `None` when the file does not
/// exist.
fn read_shard_meta(dir: &Path) -> Result<Option<usize>> {
    let raw = match fs::read_to_string(dir.join(META_FILE)) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    match raw.trim().parse::<usize>() {
        Ok(count) if count > 0 => Ok(Some(count)),
        _ => Err(WalError::Corrupt {
            context: format!("{META_FILE} does not hold a shard count: {raw:?}"),
        }),
    }
}

/// Durably record the shard count: write + fsync a temp file, rename it
/// over `wal.meta`, fsync the directory.
fn write_shard_meta(dir: &Path, shards: usize) -> Result<()> {
    let tmp = dir.join("wal.meta.tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(format!("{shards}\n").as_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, dir.join(META_FILE))?;
    sync_dir(dir)?;
    Ok(())
}

/// A logical operation handed back to the caller during replay, in the
/// order it must be applied. Same-key operations replay in LSN order (a
/// key maps to one shard, and a shard replays in LSN order) — and when
/// the caller mirrors writes into its own store through
/// [`Wal::append_put_with`] / [`Wal::append_delete_with`], LSN order
/// *is* the order the store applied them in, so replay reproduces
/// exactly the acknowledged pre-crash state.
#[derive(Debug)]
pub enum ReplayOp<'a> {
    /// Re-apply a put.
    Put {
        /// The key.
        key: &'a [u8],
        /// The value.
        value: &'a [u8],
    },
    /// Re-apply a delete.
    Delete {
        /// The key.
        key: &'a [u8],
    },
}

/// What [`Wal::open`] found and did while recovering.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Put/delete records replayed into the caller's store.
    pub records_replayed: u64,
    /// Put/delete records skipped because a checkpoint already covered
    /// them (their effects are in spilled segments).
    pub records_skipped: u64,
    /// Torn tail bytes truncated off the newest segment(s).
    pub truncated_bytes: u64,
    /// Segment files scanned.
    pub segments: usize,
}

/// What one [`Wal::checkpoint`] freed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Sealed segment files deleted.
    pub segments_deleted: u64,
    /// Bytes those files held.
    pub bytes_deleted: u64,
}

/// Point-in-time size/progress numbers, also published to the gauges.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Log bytes on disk across all shards (sealed + active segments).
    pub bytes: u64,
    /// Segment files across all shards.
    pub segments: usize,
    /// Highest LSN assigned on any shard.
    pub max_lsn: u64,
}

/// A sharded, group-committing write-ahead log. See the crate docs for
/// the format and protocol; see [`WalConfig`] for the knobs.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    shards: Vec<WalShard>,
    obs: WalObs,
}

impl Wal {
    /// Open (and recover) the log at `config.dir`.
    ///
    /// Existing segments are scanned front to back: the newest non-empty
    /// segment's torn tail — anything from the first bad frame on — is
    /// truncated, a bad frame anywhere *earlier* is reported as
    /// [`WalError::Corrupt`], and every put/delete past the last
    /// checkpoint mark whose generation is visible in the caller's
    /// manifest (`manifest_generation`) is handed to `apply` in order.
    /// Records at or below a visible mark are skipped: their effects
    /// were spilled before the marker was written, so replaying them
    /// would be redundant (the generation check is what makes replay
    /// idempotent against already-spilled data).
    pub fn open(
        config: WalConfig,
        obs: WalObs,
        manifest_generation: u64,
        mut apply: impl FnMut(ReplayOp<'_>),
    ) -> Result<(Wal, RecoveryReport)> {
        fs::create_dir_all(&config.dir)?;
        let shards = config.shards.max(1);
        let mut files: Vec<Vec<(u64, PathBuf)>> = vec![Vec::new(); shards];
        let mut max_shard_seen: Option<usize> = None;
        for entry in fs::read_dir(&config.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((shard, seq)) = parse_segment_name(name) else {
                continue;
            };
            max_shard_seen = Some(max_shard_seen.map_or(shard, |m| m.max(shard)));
            if shard >= shards {
                continue; // counted above; the stray check below fires
            }
            files[shard].push((seq, entry.path()));
        }
        // The shard count lives in `wal.meta`, written and fsynced before
        // the first segment: a shard whose files are all gone (crash
        // mid-open, or recovery swept its empty segments) recovers as
        // empty rather than bricking the log with a count mismatch.
        // Segments without the meta file came from outside damage.
        match read_shard_meta(&config.dir)? {
            Some(on_disk) if on_disk != shards => {
                return Err(WalError::ShardCountMismatch {
                    on_disk,
                    configured: shards,
                });
            }
            Some(_) => {}
            None if max_shard_seen.is_some() => {
                return Err(WalError::Corrupt {
                    context: format!("segment files but no {META_FILE}"),
                });
            }
            None => write_shard_meta(&config.dir, shards)?,
        }
        if let Some(max_shard) = max_shard_seen {
            if max_shard >= shards {
                // Stray segments above the recorded count: refuse rather
                // than silently dropping their records.
                return Err(WalError::ShardCountMismatch {
                    on_disk: max_shard + 1,
                    configured: shards,
                });
            }
        }

        let mut report = RecoveryReport::default();
        let mut shard_handles = Vec::with_capacity(shards);
        let mut removed_any = false;
        for (index, mut shard_files) in files.into_iter().enumerate() {
            shard_files.sort_by_key(|(seq, _)| *seq);
            let recovered = recover_shard(
                index,
                &shard_files,
                manifest_generation,
                &mut apply,
                &mut report,
            )?;
            removed_any |= recovered.removed_any;
            shard_handles.push(WalShard::open(
                index,
                &config.dir,
                config.durability,
                config.segment_bytes,
                obs.clone(),
                recovered.next_seq,
                recovered.max_lsn,
                recovered.mark,
                recovered.sealed,
            )?);
        }
        if removed_any {
            // Make recovery's empty-segment deletions durable so the same
            // sweep does not repeat (and lexical order stays clean) after
            // a power loss.
            sync_dir(&config.dir)?;
        }

        obs.records_replayed.add(report.records_replayed);
        obs.truncated_bytes.add(report.truncated_bytes);
        obs.trace(Event::WalRecovered {
            records_replayed: report.records_replayed,
            records_skipped: report.records_skipped,
            truncated_bytes: report.truncated_bytes,
            segments: report.segments,
        });
        let wal = Wal {
            dir: config.dir.clone(),
            shards: shard_handles,
            obs,
        };
        wal.stats(); // publish the gauges with the recovered sizes
        Ok((wal, report))
    }

    /// Number of shards (stable for the life of the directory).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Log a put and honor the configured durability before returning.
    /// Returns the record's LSN on its shard.
    pub fn append_put(&self, key: &[u8], value: &[u8]) -> Result<u64> {
        let ((), lsn) = self.append_put_with(key, value, || ())?;
        Ok(lsn)
    }

    /// Log a delete and honor the configured durability before returning.
    pub fn append_delete(&self, key: &[u8]) -> Result<u64> {
        let ((), lsn) = self.append_delete_with(key, || ((), true))?;
        // pbc-allow(panic): the closure unconditionally logs, so an LSN is always assigned
        Ok(lsn.expect("unconditional delete is always logged"))
    }

    /// Run `apply` and log a put as one atomic step under the key's
    /// shard lock, then honor the configured durability before
    /// returning.
    ///
    /// Callers that mirror the log into a store of their own (the tiered
    /// store's hot tier) must perform the store mutation inside `apply`:
    /// the closure runs under the same lock that assigns the record's
    /// LSN, so same-key operations hit the store in exactly their LSN
    /// order — which is replay order. Mutating outside the closure lets
    /// a concurrent same-key writer apply in one order but log in the
    /// other, and recovery would then contradict acknowledged pre-crash
    /// state.
    pub fn append_put_with<T>(
        &self,
        key: &[u8],
        value: &[u8],
        apply: impl FnOnce() -> T,
    ) -> Result<(T, u64)> {
        let shard = &self.shards[format::shard_of(key, self.shards.len())];
        let (result, lsn) = shard.append_with(
            || (apply(), true),
            |lsn| format::encode_put(lsn, key, value),
        )?;
        // pbc-allow(panic): the closure unconditionally logs, so an LSN is always assigned
        Ok((result, lsn.expect("put is always logged")))
    }

    /// Conditional twin of [`Wal::append_put_with`] for deletes: `apply`
    /// returns `(result, log)`, and the delete record is appended (and
    /// made durable per the configured level) only when `log` is true —
    /// so a delete that removed nothing costs no log record. Returns the
    /// LSN when one was assigned.
    pub fn append_delete_with<T>(
        &self,
        key: &[u8],
        apply: impl FnOnce() -> (T, bool),
    ) -> Result<(T, Option<u64>)> {
        let shard = &self.shards[format::shard_of(key, self.shards.len())];
        shard.append_with(apply, |lsn| format::encode_delete(lsn, key))
    }

    /// Snapshot each shard's highest assigned LSN. Because callers apply
    /// a write to their store *before* logging it, every record at or
    /// below these marks is already in the store — flushing the store and
    /// then checkpointing at these marks can never drop a write.
    pub fn capture_marks(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.mark()).collect()
    }

    /// Durably record that everything at or below `marks` (one per
    /// shard, from [`Wal::capture_marks`]) is persisted in the caller's
    /// store as of manifest `generation`, then delete every sealed
    /// segment the marks fully cover.
    pub fn checkpoint(&self, marks: &[u64], generation: u64) -> Result<CheckpointSummary> {
        assert_eq!(
            marks.len(),
            self.shards.len(),
            "one mark per shard, from capture_marks()"
        );
        let mut summary = CheckpointSummary::default();
        for (shard, &mark) in self.shards.iter().zip(marks) {
            for (path, bytes) in shard.checkpoint(mark, generation)? {
                fs::remove_file(&path)?;
                summary.segments_deleted += 1;
                summary.bytes_deleted += bytes;
            }
        }
        if summary.segments_deleted > 0 {
            // Make the unlinks durable. Resurrected covered segments are
            // harmless to correctness (recovery skips them by the marker)
            // but would silently regress the bounded-log guarantee.
            sync_dir(&self.dir)?;
        }
        self.obs.checkpoints.inc();
        self.obs.segments_deleted.add(summary.segments_deleted);
        self.obs.trace(Event::WalCheckpointed {
            generation,
            segments_deleted: summary.segments_deleted,
            bytes_deleted: summary.bytes_deleted,
        });
        self.stats();
        Ok(summary)
    }

    /// Maintenance tick: under [`crate::Durability::Periodic`], fsync
    /// shards whose interval has elapsed with dirty records. No-op
    /// otherwise.
    pub fn tick(&self) -> Result<()> {
        for shard in &self.shards {
            shard.tick()?;
        }
        Ok(())
    }

    /// Force every appended record durable, regardless of durability
    /// level (clean shutdown, tests).
    pub fn sync(&self) -> Result<()> {
        for shard in &self.shards {
            shard.sync()?;
        }
        Ok(())
    }

    /// Current size/progress numbers; also refreshes the
    /// `pbc_wal_bytes` / `pbc_wal_segments` / `pbc_wal_lsn` gauges.
    pub fn stats(&self) -> WalStats {
        let mut stats = WalStats::default();
        for shard in &self.shards {
            let (bytes, segments, max_lsn, _) = shard.snapshot();
            stats.bytes += bytes;
            stats.segments += segments;
            stats.max_lsn = stats.max_lsn.max(max_lsn);
        }
        self.obs.wal_bytes.set(stats.bytes);
        self.obs.wal_segments.set(stats.segments as u64);
        self.obs.wal_lsn.set(stats.max_lsn);
        stats
    }
}

struct RecoveredShard {
    next_seq: u64,
    max_lsn: u64,
    mark: u64,
    sealed: Vec<SealedSegment>,
    /// Recovery deleted at least one empty segment file (the caller
    /// fsyncs the directory once when any shard did).
    removed_any: bool,
}

/// Scan one shard's segments oldest-first: find the effective checkpoint
/// mark, truncate the newest segment's torn tail, replay everything past
/// the mark, and describe what survives as sealed segments.
fn recover_shard(
    index: usize,
    shard_files: &[(u64, PathBuf)],
    manifest_generation: u64,
    apply: &mut impl FnMut(ReplayOp<'_>),
    report: &mut RecoveryReport,
) -> Result<RecoveredShard> {
    let mut recovered = RecoveredShard {
        next_seq: shard_files.last().map_or(0, |(seq, _)| seq + 1),
        max_lsn: 0,
        mark: 0,
        sealed: Vec::new(),
        removed_any: false,
    };

    // A torn tail is only legal in the newest segment that holds any
    // bytes: rotation fsyncs the old tail before its successor is
    // created, so a sealed segment followed by a non-empty one can never
    // tear. Segments *after* the last non-empty one (a successor created
    // by rotation that never received a record before the crash) are
    // legitimately empty and do not disqualify the tear.
    let last_nonempty = shard_files
        .iter()
        .rposition(|(_, path)| fs::metadata(path).map(|m| m.len()).unwrap_or(0) > 0);

    // Pass 1: validate frames, find the best visible checkpoint mark,
    // truncate the torn tail. Buffers are kept for pass 2.
    let mut scanned: Vec<(u64, &Path, Vec<u8>, u64)> = Vec::new(); // (seq, path, buf, max_lsn)
    for (pos, (seq, path)) in shard_files.iter().enumerate() {
        let mut buf = fs::read(path)?;
        let mut offset = 0usize;
        let mut file_max_lsn = 0u64;
        loop {
            match format::decode_frame(&buf[offset..]) {
                DecodeOutcome::Frame { record, frame_len } => {
                    file_max_lsn = file_max_lsn.max(record.lsn());
                    if let Record::Checkpoint {
                        mark, generation, ..
                    } = record
                    {
                        // Only trust markers whose spill generation the
                        // manifest actually committed; a marker "from the
                        // future" (manifest rolled back) must not cause
                        // records to be skipped.
                        if generation <= manifest_generation {
                            recovered.mark = recovered.mark.max(mark);
                        }
                    }
                    offset += frame_len;
                }
                DecodeOutcome::Incomplete | DecodeOutcome::Corrupt => {
                    if offset == buf.len() {
                        break; // clean end of file
                    }
                    if last_nonempty != Some(pos) {
                        return Err(WalError::Corrupt {
                            context: format!(
                                "shard {index} segment {seq} has a bad frame at byte {offset} \
                                 but a newer segment holds records (sealed segments are fully \
                                 synced before a successor is created)"
                            ),
                        });
                    }
                    // Torn tail on the newest segment: drop it.
                    let torn = (buf.len() - offset) as u64;
                    report.truncated_bytes += torn;
                    let file = fs::OpenOptions::new().write(true).open(path)?;
                    file.set_len(offset as u64)?;
                    file.sync_data()?;
                    buf.truncate(offset);
                    break;
                }
            }
        }
        recovered.max_lsn = recovered.max_lsn.max(file_max_lsn);
        report.segments += 1;
        scanned.push((*seq, path, buf, file_max_lsn));
    }

    // Pass 2: replay puts/deletes past the mark, in order; keep non-empty
    // files as sealed segments and delete empty ones.
    for (seq, path, buf, file_max_lsn) in scanned {
        let mut offset = 0usize;
        while let DecodeOutcome::Frame { record, frame_len } = format::decode_frame(&buf[offset..])
        {
            offset += frame_len;
            match record {
                Record::Put { lsn, key, value } => {
                    if lsn > recovered.mark {
                        apply(ReplayOp::Put { key, value });
                        report.records_replayed += 1;
                    } else {
                        report.records_skipped += 1;
                    }
                }
                Record::Delete { lsn, key } => {
                    if lsn > recovered.mark {
                        apply(ReplayOp::Delete { key });
                        report.records_replayed += 1;
                    } else {
                        report.records_skipped += 1;
                    }
                }
                Record::Checkpoint { .. } => {}
            }
        }
        if buf.is_empty() {
            fs::remove_file(path)?;
            recovered.removed_any = true;
        } else {
            recovered.sealed.push(SealedSegment {
                seq,
                max_lsn: file_max_lsn,
                bytes: buf.len() as u64,
            });
        }
    }

    Ok(recovered)
}
