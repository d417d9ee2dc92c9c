//! WAL tuning knobs: durability level, shard count, segment sizing.

use std::path::PathBuf;
use std::time::Duration;

/// When an acknowledged write is actually durable.
///
/// Every level writes the record into the log file before returning; the
/// levels differ only in when `sync_data` runs relative to the
/// acknowledgment. See the crate docs for the full guarantee table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Never fsync on the write path. Acknowledged writes live in the OS
    /// page cache: they survive a process kill (the kernel still holds
    /// them) but **not** a power failure or kernel crash. Checkpoint
    /// markers are still fsynced — the log stays well-formed.
    None,
    /// Fsync at most once per interval, driven by the write path and the
    /// owner's maintenance tick. Writes acknowledge immediately; on power
    /// loss up to one interval of acknowledged writes may be lost.
    Periodic(Duration),
    /// Group commit: the write acknowledges only after a `sync_data`
    /// covering its record completes, but concurrent writers share one
    /// fsync per batch — full durability without an fsync per record.
    /// The default.
    #[default]
    PerBatch,
}

/// Configuration for [`crate::Wal::open`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files. Created if absent.
    pub dir: PathBuf,
    /// Number of independent log shards. Keys are hashed to a shard with
    /// a format-stable function, so this must not change for a non-empty
    /// log ([`crate::WalError::ShardCountMismatch`] otherwise).
    pub shards: usize,
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// When acknowledged writes become durable.
    pub durability: Durability,
}

impl WalConfig {
    /// Defaults: 4 shards, 4 MiB segments, [`Durability::PerBatch`].
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            shards: 4,
            segment_bytes: 4 * 1024 * 1024,
            durability: Durability::default(),
        }
    }

    /// Set the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Set the segment rotation threshold in bytes.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Set the durability level.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }
}
