//! Typed errors for the write-ahead log.

use std::fmt;
use std::io;

/// Everything that can go wrong appending to or recovering a [`crate::Wal`].
#[derive(Debug)]
pub enum WalError {
    /// Filesystem work failed (append, fsync, rotation, unlink).
    Io(io::Error),
    /// A log segment decoded to something impossible *before* its tail — a
    /// bad CRC or malformed payload in a position that cannot be a torn
    /// write. Torn tails are handled silently (truncated at recovery);
    /// this variant means real corruption.
    Corrupt {
        /// Description of what was found and where.
        context: String,
    },
    /// The directory holds logs written with a different shard count
    /// (recorded in its `wal.meta` file). The shard a key maps to must be
    /// stable across reopens (same-key records live in one shard so their
    /// LSN order is their replay order), so an initialized log refuses to
    /// open under a different count. A shard with no surviving segment
    /// files is *not* a count change — it recovers as empty.
    ShardCountMismatch {
        /// Shard count recorded on disk (from `wal.meta`, or inferred
        /// from segment files for pre-meta directories).
        on_disk: usize,
        /// Shard count the caller configured.
        configured: usize,
    },
    /// An fsync on this shard failed earlier. The failure may have
    /// dropped the dirty pages and cleared the fd's error flag, so a
    /// retried `sync_data` could falsely report success (fsyncgate); the
    /// shard therefore refuses all further appends, syncs, and
    /// checkpoints until the log is reopened — recovery then replays
    /// exactly what actually reached disk.
    Poisoned {
        /// Index of the failed shard.
        shard: usize,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o failed: {e}"),
            WalError::Corrupt { context } => write!(f, "wal corrupt: {context}"),
            WalError::ShardCountMismatch {
                on_disk,
                configured,
            } => write!(
                f,
                "wal on disk uses {on_disk} shards but {configured} were configured; \
                 reopen with the original count (or checkpoint and remove the log first)"
            ),
            WalError::Poisoned { shard } => write!(
                f,
                "wal shard {shard} is disabled after a failed fsync; reopen the store to \
                 recover what reached disk (writes acknowledged at durability levels below \
                 PerBatch since the last successful sync may be lost)"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WalError>;
