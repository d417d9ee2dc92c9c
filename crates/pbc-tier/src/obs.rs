//! The store's observability bundle: every metric handle, the trace
//! ring, and the background-error ring, built once at open.
//!
//! All metric names live here so the README's "Observability" table has a
//! single source of truth. Handles are created eagerly from the
//! [`MetricsRegistry`] — hot paths clone-free record through them and
//! never look anything up by name. With [`crate::TierConfig::metrics`]
//! off, the registry is disabled and every handle is a no-op (including
//! timer clock reads); the trace rings are controlled independently by
//! their capacities.

use std::sync::Arc;

use pbc_archive::{ReaderObs, WriterObs};
use pbc_obs::{Counter, Event, Gauge, Histogram, MetricsRegistry, TraceEvent, TraceRing};

use crate::cache::CacheCounters;
use crate::commit::ColdTier;
use crate::config::TierConfig;

/// One retained background-maintenance failure; see
/// [`crate::TieredStore::recent_background_errors`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackgroundErrorRecord {
    /// Monotonic microseconds since the store opened.
    pub micros: u64,
    /// What the failing pass was doing (job shape and key range).
    pub job: String,
    /// The actual error string, verbatim.
    pub message: String,
}

impl std::fmt::Display for BackgroundErrorRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>10}us] {}: {}", self.micros, self.job, self.message)
    }
}

/// A snapshot of the store's counters and cold-tier gauges.
///
/// The cache-accounting invariant: every cold lookup that consulted at
/// least one block is classified as exactly one of `cold_cache_hits`
/// (every block it touched was cached) or `cold_cache_misses`, so
/// `cold_cache_hits + cold_cache_misses == cold_gets` always holds.
/// Lookups the footer indexes answered without touching any block are
/// counted separately in `cold_index_only`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Gets answered by the hot tier.
    pub hot_hits: u64,
    /// Gets answered `None` by a hot tombstone.
    pub tombstone_negatives: u64,
    /// Gets answered by the in-flight spill staging area.
    pub staging_hits: u64,
    /// Lookups that reached the cold tier and consulted at least one
    /// block.
    pub cold_gets: u64,
    /// Cold lookups the per-block key ranges answered with no block
    /// fetch at all (absent keys outside every block's range).
    pub cold_index_only: u64,
    /// Cold lookups fully served from cached blocks.
    pub cold_cache_hits: u64,
    /// Cold lookups that had to read at least one block from disk.
    pub cold_cache_misses: u64,
    /// Segments whose footer indexes were consulted across all cold
    /// lookups — the read-amplification gauge leveling shrinks: an L1
    /// lookup consults at most one partition, an L0-only layout consults
    /// every segment until it finds the key.
    pub cold_segments_scanned: u64,
    /// Range scans created ([`crate::TieredStore::range_scan`] calls).
    pub range_scans: u64,
    /// Cold segments whose footer indexes were consulted by range scans —
    /// every intersecting L0 segment plus each covering L1 partition the
    /// scan actually reached.
    pub scan_segments_opened: u64,
    /// Blocks range scans had to read and decode from disk (cache hits
    /// are not decodes and are excluded).
    pub scan_blocks_decoded: u64,
    /// Decoded bytes those scan block reads produced — with the rows a
    /// scan yielded, this gauges bytes-decoded-per-row, the scan
    /// efficiency measure `pbc-perf` reports as
    /// `tier.scan_bytes_decoded_per_row`.
    pub scan_bytes_decoded: u64,
    /// Spill passes completed.
    pub spills: u64,
    /// Records (entries + tombstones) written by spills.
    pub spilled_entries: u64,
    /// Compaction jobs completed (bounded background/planned jobs and
    /// full [`crate::TieredStore::compact`] calls alike).
    pub compactions: u64,
    /// Segments retired by compaction over the store's lifetime.
    pub segments_retired: u64,
    /// Background maintenance passes that surfaced an error (the thread
    /// keeps running; the next tick retries).
    pub background_errors: u64,
    /// Gauge: records currently stored across cold segments (live +
    /// tombstones), from the per-segment stats recorded at spill time.
    pub cold_records: u64,
    /// Gauge: tombstones currently stored across cold segments (they only
    /// ever live in L0 — every job drops them on the way into L1).
    pub cold_tombstones: u64,
    /// Gauge: live L0 spill segments.
    pub l0_segments: u64,
    /// Gauge: live L1 partitions.
    pub l1_partitions: u64,
    /// Gauge: the manifest generation the current segment set was
    /// committed under.
    pub generation: u64,
}

impl TierStats {
    /// Cold tombstones as a fraction of cold records — the observable
    /// dead-entry ratio the compaction planner triggers on (shadowed
    /// duplicates across segments come on top of this lower bound).
    pub fn cold_dead_ratio(&self) -> f64 {
        if self.cold_records == 0 {
            0.0
        } else {
            self.cold_tombstones as f64 / self.cold_records as f64
        }
    }
}

/// Every handle the tiered store records through. Built by
/// [`TierObs::new`]; owned by `TierInner`.
pub(crate) struct TierObs {
    registry: Arc<MetricsRegistry>,
    /// All structured events (spills, compaction lifecycle, scans, ...).
    /// Shared (`Arc`) with the WAL's [`pbc_wal::WalObs`] so rotation,
    /// checkpoint, and recovery events land in the same ring.
    trace: Arc<TraceRing>,
    /// Background errors only — a failure is never pushed out of
    /// observability by a burst of routine spill events.
    errors: TraceRing,

    // Counters mirrored into `TierStats`.
    pub(crate) hot_hits: Counter,
    pub(crate) tombstone_negatives: Counter,
    pub(crate) staging_hits: Counter,
    pub(crate) cold_gets: Counter,
    pub(crate) cold_index_only: Counter,
    pub(crate) cold_cache_hits: Counter,
    pub(crate) cold_cache_misses: Counter,
    pub(crate) cold_segments_scanned: Counter,
    pub(crate) range_scans: Counter,
    pub(crate) scan_segments_opened: Counter,
    pub(crate) scan_blocks_decoded: Counter,
    pub(crate) scan_bytes_decoded: Counter,
    pub(crate) spills: Counter,
    pub(crate) spilled_entries: Counter,
    pub(crate) compactions: Counter,
    pub(crate) segments_retired: Counter,
    pub(crate) background_errors: Counter,

    // Cold-tier gauges, published at every segment-set commit.
    pub(crate) cold_records: Gauge,
    pub(crate) cold_tombstones: Gauge,
    pub(crate) l0_segments: Gauge,
    pub(crate) l1_partitions: Gauge,
    pub(crate) generation: Gauge,

    // Latency histograms (nanoseconds).
    pub(crate) get_ns: Histogram,
    pub(crate) put_ns: Histogram,
    pub(crate) delete_ns: Histogram,
    pub(crate) scan_ns: Histogram,
    pub(crate) spill_ns: Histogram,
    pub(crate) compaction_ns: Histogram,
    pub(crate) cache_fetch_ns: Histogram,

    // Archive-layer hooks, cloned into every reader/writer the store
    // creates.
    pub(crate) reader: ReaderObs,
    pub(crate) writer: WriterObs,
}

impl TierObs {
    /// Build the bundle for `config`: an enabled registry unless
    /// [`TierConfig::metrics`] is off, plus the two event rings sized by
    /// [`TierConfig::trace_capacity`] / [`TierConfig::error_log_capacity`].
    pub(crate) fn new(config: &TierConfig) -> TierObs {
        let registry = Arc::new(if config.metrics {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        });
        let r = &registry;
        let counter = |name: &str| r.counter(name);
        let gauge = |name: &str| r.gauge(name);
        let histogram = |name: &str| r.histogram(name);
        TierObs {
            trace: Arc::new(TraceRing::new(config.trace_capacity)),
            errors: TraceRing::new(config.error_log_capacity),
            hot_hits: counter("pbc_tier_hot_hits_total"),
            tombstone_negatives: counter("pbc_tier_tombstone_negatives_total"),
            staging_hits: counter("pbc_tier_staging_hits_total"),
            cold_gets: counter("pbc_tier_cold_gets_total"),
            cold_index_only: counter("pbc_tier_cold_index_only_total"),
            cold_cache_hits: counter("pbc_tier_cold_cache_hits_total"),
            cold_cache_misses: counter("pbc_tier_cold_cache_misses_total"),
            cold_segments_scanned: counter("pbc_tier_cold_segments_scanned_total"),
            range_scans: counter("pbc_tier_range_scans_total"),
            scan_segments_opened: counter("pbc_tier_scan_segments_opened_total"),
            scan_blocks_decoded: counter("pbc_tier_scan_blocks_decoded_total"),
            scan_bytes_decoded: counter("pbc_tier_scan_bytes_decoded_total"),
            spills: counter("pbc_tier_spills_total"),
            spilled_entries: counter("pbc_tier_spilled_entries_total"),
            compactions: counter("pbc_tier_compactions_total"),
            segments_retired: counter("pbc_tier_segments_retired_total"),
            background_errors: counter("pbc_tier_background_errors_total"),
            cold_records: gauge("pbc_tier_cold_records"),
            cold_tombstones: gauge("pbc_tier_cold_tombstones"),
            l0_segments: gauge("pbc_tier_l0_segments"),
            l1_partitions: gauge("pbc_tier_l1_partitions"),
            generation: gauge("pbc_tier_generation"),
            get_ns: histogram("pbc_tier_get_latency_ns"),
            put_ns: histogram("pbc_tier_put_latency_ns"),
            delete_ns: histogram("pbc_tier_delete_latency_ns"),
            scan_ns: histogram("pbc_tier_scan_latency_ns"),
            spill_ns: histogram("pbc_tier_spill_ns"),
            compaction_ns: histogram("pbc_tier_compaction_ns"),
            cache_fetch_ns: histogram("pbc_tier_cache_fetch_ns"),
            reader: ReaderObs {
                blocks_decoded: counter("pbc_archive_blocks_decoded_total"),
                decode_ns: histogram("pbc_archive_block_decode_ns"),
                bytes_copied: counter("pbc_archive_bytes_copied_total"),
            },
            writer: WriterObs {
                blocks_encoded: counter("pbc_archive_blocks_encoded_total"),
                encode_ns: histogram("pbc_archive_block_encode_ns"),
            },
            registry,
        }
    }

    /// The typed view [`crate::TieredStore::stats`] returns: counters read
    /// from their handles (all zero with metrics disabled), gauges derived
    /// exactly from `cold`, the segment set committed under `generation`.
    pub(crate) fn stats(&self, cold: &ColdTier, generation: u64) -> TierStats {
        let (cold_records, cold_tombstones) = cold.record_totals();
        TierStats {
            hot_hits: self.hot_hits.value(),
            tombstone_negatives: self.tombstone_negatives.value(),
            staging_hits: self.staging_hits.value(),
            cold_gets: self.cold_gets.value(),
            cold_index_only: self.cold_index_only.value(),
            cold_cache_hits: self.cold_cache_hits.value(),
            cold_cache_misses: self.cold_cache_misses.value(),
            cold_segments_scanned: self.cold_segments_scanned.value(),
            range_scans: self.range_scans.value(),
            scan_segments_opened: self.scan_segments_opened.value(),
            scan_blocks_decoded: self.scan_blocks_decoded.value(),
            scan_bytes_decoded: self.scan_bytes_decoded.value(),
            spills: self.spills.value(),
            spilled_entries: self.spilled_entries.value(),
            compactions: self.compactions.value(),
            segments_retired: self.segments_retired.value(),
            background_errors: self.background_errors.value(),
            cold_records,
            cold_tombstones,
            l0_segments: cold.l0.len() as u64,
            l1_partitions: cold.l1.len() as u64,
            generation,
        }
    }

    /// The registry behind every handle.
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Build the WAL's observability bundle against this store's registry
    /// and trace ring, so `pbc_wal_*` metrics export alongside the tier's
    /// and WAL lifecycle events interleave with spills and compactions.
    pub(crate) fn wal_obs(&self) -> pbc_wal::WalObs {
        pbc_wal::WalObs::new(&self.registry, Some(Arc::clone(&self.trace)))
    }

    /// Registry-backed handles for the block cache's counters.
    pub(crate) fn cache_counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.registry.counter("pbc_tier_cache_hits_total"),
            misses: self.registry.counter("pbc_tier_cache_misses_total"),
            evictions: self.registry.counter("pbc_tier_cache_evictions_total"),
            invalidations: self.registry.counter("pbc_tier_cache_invalidations_total"),
            admissions: self.registry.counter("pbc_tier_cache_admissions_total"),
            promotions: self.registry.counter("pbc_tier_cache_promotions_total"),
            probation_evictions: self
                .registry
                .counter("pbc_tier_cache_probation_evictions_total"),
        }
    }

    /// Record a structured trace event.
    pub(crate) fn trace(&self, event: Event) {
        self.trace.record(event);
    }

    /// The retained trace events, oldest first.
    pub(crate) fn trace_snapshot(&self) -> Vec<TraceEvent> {
        self.trace.snapshot()
    }

    /// Count a background failure and record it into the error ring
    /// **and** the main trace, so it shows up both in the dedicated error
    /// log and in context between the events around it.
    pub(crate) fn record_background_error(&self, job: String, message: String) {
        self.background_errors.inc();
        let event = Event::BackgroundError { job, message };
        self.errors.record(event.clone());
        self.trace.record(event);
    }

    /// The retained background errors, oldest first.
    pub(crate) fn background_error_snapshot(&self) -> Vec<BackgroundErrorRecord> {
        self.errors
            .snapshot()
            .into_iter()
            .filter_map(|e| match e.event {
                Event::BackgroundError { job, message } => Some(BackgroundErrorRecord {
                    micros: e.micros,
                    job,
                    message,
                }),
                _ => None,
            })
            .collect()
    }
}

impl std::fmt::Debug for TierObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierObs")
            .field("registry", &self.registry)
            .field("trace", &self.trace)
            .field("errors", &self.errors)
            .finish()
    }
}
