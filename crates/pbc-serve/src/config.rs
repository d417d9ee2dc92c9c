//! Router configuration.

use std::time::Duration;

/// Tuning for a [`crate::Router`]: the in-flight bound per shard and the
/// admission-control thresholds read against
/// [`pbc_tier::WritePressure`].
///
/// Defaults are sized for tests and moderate hardware; `pbc-perf`'s
/// `serve-mixed` and `durable-writes` workloads (`bench/`) drive them under
/// load, and `tests/backpressure.rs` a deliberately saturated configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Router shards: one in-flight write count each. Writes hash to a
    /// shard by key with the WAL's own hash.
    pub shards: usize,
    /// Most writes in flight on one shard at once, from admission until
    /// they return. A write arriving at a full shard is refused with
    /// [`crate::BusyReason::QueueFull`].
    pub queue_capacity: usize,
    /// Refuse writes while the committed L0 segment count is at or above
    /// this ([`crate::BusyReason::ColdBacklog`]): compaction has fallen
    /// behind and admission pauses until the backlog drains.
    pub l0_backpressure: u64,
    /// Refuse writes while hot memory exceeds this multiple of the
    /// store's spill watermark ([`crate::BusyReason::MemoryPressure`]).
    /// `1.0` would refuse during every routine spill; the default leaves
    /// generous headroom and only trips when spills are genuinely stuck.
    pub memory_slack: f64,
    /// Base retry hint carried by [`crate::ServeError::Busy`]. Queue-full
    /// rejections use it as-is; backlog/memory rejections scale it up,
    /// since draining them takes longer than one write.
    pub retry_after: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_capacity: 256,
            l0_backpressure: 64,
            memory_slack: 4.0,
            retry_after: Duration::from_millis(1),
        }
    }
}

impl ServeConfig {
    /// Set the router shard count (clamped to at least 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Set the per-shard in-flight bound (clamped to at least 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Set the L0 segment count at which writes start bouncing.
    pub fn with_l0_backpressure(mut self, segments: u64) -> Self {
        self.l0_backpressure = segments.max(1);
        self
    }

    /// Set the memory multiple at which writes start bouncing.
    pub fn with_memory_slack(mut self, slack: f64) -> Self {
        self.memory_slack = slack.max(1.0);
        self
    }

    /// Set the base retry hint for `Busy` rejections.
    pub fn with_retry_after(mut self, retry_after: Duration) -> Self {
        self.retry_after = retry_after;
        self
    }
}
