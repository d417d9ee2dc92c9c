//! A bounded in-memory ring of structured background-job events.
//!
//! The ring answers "what has the engine been *doing*" where metrics
//! answer "how much / how fast": each spill, compaction commit, manifest
//! bump, scan, and background error lands here as a typed [`Event`] with
//! a monotonic timestamp. Capacity is fixed at construction; once full,
//! the oldest events are dropped and counted, so tracing can stay on in
//! production without unbounded memory.

use std::collections::VecDeque;
use std::time::Instant;

use parking_lot::Mutex;

/// A structured trace event emitted by the engine's foreground and
/// background paths.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// A spill drain started: `shards` hot shards are being frozen.
    SpillStarted {
        /// Hot shards selected for this drain.
        shards: usize,
    },
    /// A spill finished and its segment is durable + visible.
    SpillFinished {
        /// Id of the new L0 segment.
        segment_id: u64,
        /// Live records written.
        records: u64,
        /// Tombstones written.
        tombstones: u64,
        /// Segment file size in bytes.
        bytes: u64,
    },
    /// The planner scheduled a compaction job.
    CompactionPlanned {
        /// L0 segments feeding the merge.
        l0_inputs: usize,
        /// L1 partitions feeding the merge.
        l1_inputs: usize,
        /// Inclusive lower bound of the job's key range.
        min_key: Vec<u8>,
        /// Inclusive upper bound of the job's key range; `None` = +inf.
        max_key: Option<Vec<u8>>,
    },
    /// A compaction job committed a new manifest generation.
    CompactionCommitted {
        /// Manifest generation the commit produced.
        generation: u64,
        /// Input segments retired.
        inputs: usize,
        /// Output partitions written.
        outputs: usize,
        /// Total bytes of the retired input segment files.
        input_bytes: u64,
        /// Total bytes of the output partition files.
        output_bytes: u64,
        /// Live entries surviving the merge.
        live_entries: u64,
    },
    /// The manifest advanced to a new generation (spill or compaction).
    ManifestGeneration {
        /// The new generation number.
        generation: u64,
    },
    /// A range scan was opened.
    ScanOpened {
        /// Cold segments the scan's range intersects.
        segments: usize,
    },
    /// A range scan was dropped.
    ScanClosed {
        /// Rows the scan yielded.
        rows: u64,
        /// Cold blocks decoded on the scan's behalf.
        blocks_decoded: u64,
    },
    /// A background maintenance pass failed.
    BackgroundError {
        /// Human-readable description of the job that failed.
        job: String,
        /// The actual error string.
        message: String,
    },
    /// A WAL shard sealed its active segment and rotated to a new one.
    WalRotated {
        /// Shard whose segment rotated.
        shard: usize,
        /// Sequence number of the sealed segment.
        sealed_seq: u64,
        /// Bytes the sealed segment holds.
        sealed_bytes: u64,
    },
    /// A WAL checkpoint completed: durable markers were written and the
    /// fully-covered sealed segments deleted.
    WalCheckpointed {
        /// Manifest generation the checkpoint recorded.
        generation: u64,
        /// Sealed segment files deleted.
        segments_deleted: u64,
        /// Bytes those files held.
        bytes_deleted: u64,
    },
    /// WAL recovery finished during store open.
    WalRecovered {
        /// Put/delete records replayed into the hot tier.
        records_replayed: u64,
        /// Records skipped because a checkpoint already covered them.
        records_skipped: u64,
        /// Torn tail bytes truncated off the newest segment(s).
        truncated_bytes: u64,
        /// Segment files scanned.
        segments: usize,
    },
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::SpillStarted { shards } => write!(f, "spill started: {shards} shards"),
            Event::SpillFinished {
                segment_id,
                records,
                tombstones,
                bytes,
            } => write!(
                f,
                "spill finished: segment {segment_id}, {records} records + \
                 {tombstones} tombstones, {bytes} bytes"
            ),
            Event::CompactionPlanned {
                l0_inputs,
                l1_inputs,
                min_key,
                max_key,
            } => write!(
                f,
                "compaction planned: {l0_inputs} L0 + {l1_inputs} L1 over [{}, {}]",
                String::from_utf8_lossy(min_key),
                max_key
                    .as_deref()
                    .map_or("+inf".into(), String::from_utf8_lossy),
            ),
            Event::CompactionCommitted {
                generation,
                inputs,
                outputs,
                input_bytes,
                output_bytes,
                live_entries,
            } => {
                let ratio = if *output_bytes > 0 {
                    *input_bytes as f64 / *output_bytes as f64
                } else {
                    0.0
                };
                write!(
                    f,
                    "compaction committed: gen {generation}, {inputs} in -> {outputs} out, \
                     {input_bytes} -> {output_bytes} bytes (ratio {ratio:.2}), \
                     {live_entries} live entries"
                )
            }
            Event::ManifestGeneration { generation } => {
                write!(f, "manifest generation -> {generation}")
            }
            Event::ScanOpened { segments } => write!(f, "scan opened: {segments} cold segments"),
            Event::ScanClosed {
                rows,
                blocks_decoded,
            } => write!(
                f,
                "scan closed: {rows} rows, {blocks_decoded} blocks decoded"
            ),
            Event::BackgroundError { job, message } => {
                write!(f, "background error in {job}: {message}")
            }
            Event::WalRotated {
                shard,
                sealed_seq,
                sealed_bytes,
            } => write!(
                f,
                "wal rotated: shard {shard} sealed segment {sealed_seq} ({sealed_bytes} bytes)"
            ),
            Event::WalCheckpointed {
                generation,
                segments_deleted,
                bytes_deleted,
            } => write!(
                f,
                "wal checkpointed: gen {generation}, {segments_deleted} segments \
                 ({bytes_deleted} bytes) deleted"
            ),
            Event::WalRecovered {
                records_replayed,
                records_skipped,
                truncated_bytes,
                segments,
            } => write!(
                f,
                "wal recovered: {records_replayed} replayed, {records_skipped} skipped, \
                 {truncated_bytes} torn bytes truncated across {segments} segments"
            ),
        }
    }
}

/// An [`Event`] plus when it happened, in microseconds since the ring
/// was created (monotonic — immune to wall-clock steps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since [`TraceRing`] construction.
    pub micros: u64,
    /// The event itself.
    pub event: Event,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>10}us] {}", self.micros, self.event)
    }
}

struct RingInner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded ring of [`TraceEvent`]s. `capacity == 0` disables tracing
/// entirely (records become no-ops).
pub struct TraceRing {
    origin: Instant,
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        write!(
            f,
            "TraceRing(len={}, capacity={}, dropped={})",
            inner.events.len(),
            self.capacity,
            inner.dropped
        )
    }
}

impl TraceRing {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            origin: Instant::now(),
            capacity,
            inner: Mutex::new(RingInner {
                events: VecDeque::with_capacity(capacity.min(1024)),
                dropped: 0,
            }),
        }
    }

    /// Append an event, timestamped now; evicts (and counts) the oldest
    /// event when full.
    pub fn record(&self, event: Event) {
        if self.capacity == 0 {
            return;
        }
        let micros = self.origin.elapsed().as_micros() as u64;
        let mut inner = self.inner.lock();
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(TraceEvent { micros, event });
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock();
        inner.events.iter().cloned().collect()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let ring = TraceRing::new(3);
        for i in 0..5 {
            ring.record(Event::ManifestGeneration { generation: i });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<u64> = ring
            .snapshot()
            .iter()
            .map(|e| match e.event {
                Event::ManifestGeneration { generation } => generation,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_disables_tracing() {
        let ring = TraceRing::new(0);
        ring.record(Event::SpillStarted { shards: 1 });
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let ring = TraceRing::new(8);
        ring.record(Event::SpillStarted { shards: 2 });
        ring.record(Event::SpillFinished {
            segment_id: 1,
            records: 10,
            tombstones: 0,
            bytes: 100,
        });
        let snap = ring.snapshot();
        assert!(snap[0].micros <= snap[1].micros);
        assert!(snap[0].to_string().contains("spill started"));
    }
}
