//! Tuning knobs for the tiered store.

use std::path::PathBuf;
use std::time::Duration;

use pbc_archive::{RecordCodec, SegmentConfig};
use pbc_wal::Durability;

use crate::planner::PlannerConfig;

/// Write-ahead-log knobs for a [`crate::TieredStore`] (see
/// [`TierConfig::wal`]).
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// When an acknowledged write is durable. Default:
    /// [`Durability::PerBatch`] (group commit).
    pub durability: Durability,
    /// Independent log shards — more shards mean more concurrent group
    /// commits but also more fsyncs per checkpoint. Must stay constant
    /// for the life of the store directory. Default: 4.
    pub shards: usize,
    /// Rotate a shard's active segment at this many bytes. Default: 4 MiB.
    pub segment_bytes: u64,
    /// The maintenance thread checkpoints the log (flush the hot tier,
    /// write durable markers, delete covered segments) once total WAL
    /// bytes cross this threshold. Default: 16 MiB.
    pub checkpoint_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            durability: Durability::default(),
            shards: 4,
            segment_bytes: 4 * 1024 * 1024,
            checkpoint_bytes: 16 * 1024 * 1024,
        }
    }
}

impl WalOptions {
    /// Defaults (see the field docs) with the given durability level.
    pub fn with_durability(durability: Durability) -> Self {
        WalOptions {
            durability,
            ..WalOptions::default()
        }
    }

    /// Set the shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Set the segment rotation threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Set the automatic checkpoint threshold.
    pub fn checkpoint_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_bytes = bytes;
        self
    }
}

/// After crossing the watermark, spilling drives hot-tier usage down to
/// this fraction of it.
const SPILL_TARGET_FRACTION: f64 = 0.5;

/// Configuration for a [`crate::TieredStore`].
///
/// The central knob is the **memory watermark** (the FRaZ-style budget): as
/// soon as the hot tier's accounted bytes cross it, the coldest shards are
/// spilled to segments until usage drops back to half of it. Spilling to a
/// fraction rather than just below the watermark produces chunkier segments
/// and fewer spill cycles.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Directory holding the manifest and every cold segment.
    pub dir: PathBuf,
    /// Hot-tier byte budget (stored keys + values + tombstones). `u64::MAX`
    /// disables spilling.
    pub memory_watermark_bytes: u64,
    /// Byte capacity of the read-through cache of records and decoded
    /// blocks (0 disables caching).
    pub cache_capacity_bytes: usize,
    /// How spill and compaction segments are written (block size, sample
    /// blocks). The tier picks each write's codec itself: a
    /// [`CodecSpec::Pretrained`] codec here is its codec from the first
    /// spill on; any other spec means the first spill selects one (as
    /// [`CodecSpec::Auto`]). Spills and small jobs then reuse the codec the
    /// last selecting write committed to, and jobs that rewrite the
    /// majority of cold records select afresh.
    ///
    /// [`CodecSpec::Pretrained`]: pbc_archive::CodecSpec::Pretrained
    /// [`CodecSpec::Auto`]: pbc_archive::CodecSpec::Auto
    pub segment: SegmentConfig,
    /// Codec for values while they sit in the hot tier.
    pub hot_codec: RecordCodec,
    /// Trigger thresholds (segment count, dead-entry ratio), the per-job
    /// L0 input bound, and the L1 partition split size for the compaction
    /// planner. Used by both the background maintenance thread and
    /// explicit [`crate::TieredStore::run_pending_compactions`] calls.
    pub planner: PlannerConfig,
    /// Spawn a background maintenance thread that runs planner jobs
    /// whenever a trigger threshold is crossed, so segments compact
    /// incrementally while reads and spills continue. Off by default:
    /// without it compaction runs only via explicit [`compact`] /
    /// [`run_pending_compactions`] calls, which keeps single-threaded
    /// workloads deterministic.
    ///
    /// [`compact`]: crate::TieredStore::compact
    /// [`run_pending_compactions`]: crate::TieredStore::run_pending_compactions
    pub background_compaction: bool,
    /// How often the maintenance thread re-checks the trigger thresholds
    /// when idle (it is also woken eagerly after every spill).
    pub maintenance_tick: Duration,
    /// Collect metrics (counters, gauges, latency histograms). On by
    /// default. When off, every handle is a no-op — no atomics are
    /// touched and no clocks are read — and [`crate::TieredStore::stats`]
    /// reports zero for all counters (the cold-tier gauges are still
    /// derived exactly from the live segment set).
    pub metrics: bool,
    /// Capacity of the structured trace-event ring (spill, compaction,
    /// manifest, and scan lifecycle events). `0` disables tracing.
    pub trace_capacity: usize,
    /// Write-ahead logging. `None` (the default) keeps the pre-WAL
    /// behavior: acknowledged writes live only in the hot tier until a
    /// spill, and a crash loses them. `Some(options)` logs every put and
    /// delete before acknowledging it, replays the log into the hot tier
    /// on [`crate::TieredStore::open`], and checkpoints/truncates it as
    /// spills make records redundant.
    pub wal: Option<WalOptions>,
}

impl TierConfig {
    /// Defaults: 64 MiB watermark, spill to half of it, 8 MiB block cache,
    /// uncompressed hot values, auto-selected segment codec.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TierConfig {
            dir: dir.into(),
            memory_watermark_bytes: 64 * 1024 * 1024,
            cache_capacity_bytes: 8 * 1024 * 1024,
            segment: SegmentConfig::default(),
            hot_codec: RecordCodec::Raw,
            planner: PlannerConfig::default(),
            background_compaction: false,
            maintenance_tick: Duration::from_millis(20),
            metrics: true,
            trace_capacity: 256,
            wal: None,
        }
    }

    /// Set the hot-tier memory watermark.
    pub fn with_watermark(mut self, bytes: u64) -> Self {
        self.memory_watermark_bytes = bytes;
        self
    }

    /// Set the record and block cache capacity in bytes.
    pub fn with_cache_capacity(mut self, bytes: usize) -> Self {
        self.cache_capacity_bytes = bytes;
        self
    }

    /// Set how segments are written.
    pub fn with_segment_config(mut self, segment: SegmentConfig) -> Self {
        self.segment = segment;
        self
    }

    /// Set the hot-tier value codec.
    pub fn with_hot_codec(mut self, codec: RecordCodec) -> Self {
        self.hot_codec = codec;
        self
    }

    /// Set the compaction planner's thresholds and job bound.
    pub fn with_planner(mut self, planner: PlannerConfig) -> Self {
        self.planner = planner;
        self
    }

    /// Enable or disable the background maintenance thread.
    pub fn with_background_compaction(mut self, enabled: bool) -> Self {
        self.background_compaction = enabled;
        self
    }

    /// Set the maintenance thread's idle re-check interval.
    pub fn with_maintenance_tick(mut self, tick: Duration) -> Self {
        self.maintenance_tick = tick;
        self
    }

    /// Enable or disable metric collection (see the field docs).
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Set the trace-event ring capacity (`0` disables tracing).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Enable write-ahead logging with the given options (see
    /// [`TierConfig::wal`]).
    pub fn with_wal(mut self, options: WalOptions) -> Self {
        self.wal = Some(options);
        self
    }

    /// Enable write-ahead logging with default options at the given
    /// durability level.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.wal = Some(WalOptions::with_durability(durability));
        self
    }

    /// The usage target spilling drives down to.
    pub(crate) fn spill_target_bytes(&self) -> u64 {
        (self.memory_watermark_bytes as f64 * SPILL_TARGET_FRACTION) as u64
    }
}
