//! Observability handles the WAL records through.
//!
//! Mirrors the `TierObs` bundle pattern: every metric name is defined in
//! one place, handles are created eagerly, and the hot paths record
//! through clones without any name lookup. [`WalObs::default`] hands out
//! no-op handles (and no trace ring), so the WAL can run un-instrumented
//! at zero cost.

use std::sync::Arc;

use pbc_obs::{Counter, Event, Gauge, Histogram, MetricsRegistry, TraceRing};

/// Metric handles and the (optional, shared) trace ring for one
/// [`crate::Wal`].
#[derive(Clone)]
pub struct WalObs {
    /// Records appended (puts + deletes; markers are not counted).
    pub appends: Counter,
    /// `sync_data` calls issued, across all shards and reasons.
    pub fsyncs: Counter,
    /// Checkpoints taken (one per [`crate::Wal::checkpoint`] call).
    pub checkpoints: Counter,
    /// Active segments sealed and rotated out.
    pub rotations: Counter,
    /// Sealed segments deleted because a checkpoint fully covered them.
    pub segments_deleted: Counter,
    /// Records replayed into the store at recovery.
    pub records_replayed: Counter,
    /// Torn tail bytes truncated at recovery.
    pub truncated_bytes: Counter,
    /// Total log bytes on disk (sealed + active), refreshed on rotation,
    /// checkpoint, recovery, and every [`crate::Wal::stats`] call.
    pub wal_bytes: Gauge,
    /// Segment files on disk, refreshed on the same cadence.
    pub wal_segments: Gauge,
    /// Highest LSN assigned across all shards.
    pub wal_lsn: Gauge,
    /// `sync_data` latency in nanoseconds.
    pub fsync_ns: Histogram,
    /// Records each group-commit fsync made durable — the batch size N
    /// writers shared one `sync_data` across. Meaningful under
    /// [`crate::Durability::PerBatch`].
    pub batch_records: Histogram,
    /// Structured trace ring (rotation, checkpoint, recovery events).
    /// `None` disables tracing without disabling metrics.
    pub trace: Option<Arc<TraceRing>>,
}

impl WalObs {
    /// Build the bundle against `registry` (pass a disabled registry for
    /// no-op metrics), sharing `trace` with whoever owns the ring.
    pub fn new(registry: &MetricsRegistry, trace: Option<Arc<TraceRing>>) -> WalObs {
        WalObs {
            appends: registry.counter("pbc_wal_appends_total"),
            fsyncs: registry.counter("pbc_wal_fsyncs_total"),
            checkpoints: registry.counter("pbc_wal_checkpoints_total"),
            rotations: registry.counter("pbc_wal_rotations_total"),
            segments_deleted: registry.counter("pbc_wal_segments_deleted_total"),
            records_replayed: registry.counter("pbc_wal_records_replayed_total"),
            truncated_bytes: registry.counter("pbc_wal_truncated_tail_bytes_total"),
            wal_bytes: registry.gauge("pbc_wal_bytes"),
            wal_segments: registry.gauge("pbc_wal_segments"),
            wal_lsn: registry.gauge("pbc_wal_lsn"),
            fsync_ns: registry.histogram("pbc_wal_fsync_ns"),
            batch_records: registry.histogram("pbc_wal_commit_batch_records"),
            trace,
        }
    }

    /// Record a structured trace event, if a ring is attached.
    pub(crate) fn trace(&self, event: Event) {
        if let Some(ring) = &self.trace {
            ring.record(event);
        }
    }
}

impl Default for WalObs {
    /// All-no-op handles: nothing is counted, timed, or traced.
    fn default() -> Self {
        WalObs {
            appends: Counter::noop(),
            fsyncs: Counter::noop(),
            checkpoints: Counter::noop(),
            rotations: Counter::noop(),
            segments_deleted: Counter::noop(),
            records_replayed: Counter::noop(),
            truncated_bytes: Counter::noop(),
            wal_bytes: Gauge::noop(),
            wal_segments: Gauge::noop(),
            wal_lsn: Gauge::noop(),
            fsync_ns: Histogram::noop(),
            batch_records: Histogram::noop(),
            trace: None,
        }
    }
}

impl std::fmt::Debug for WalObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalObs")
            .field("traced", &self.trace.is_some())
            .finish()
    }
}
