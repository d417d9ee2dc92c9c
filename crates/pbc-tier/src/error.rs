//! Typed errors for the tiered store.

use std::fmt;
use std::io;

use pbc_archive::ArchiveError;
use pbc_store::StoreError;
use pbc_wal::WalError;

/// Everything that can go wrong operating a [`crate::TieredStore`].
#[derive(Debug)]
pub enum TierError {
    /// Filesystem work outside segment files (directories, manifest).
    Io(io::Error),
    /// The hot in-memory store failed (value decode).
    Store(StoreError),
    /// Reading or writing a cold segment failed.
    Archive(ArchiveError),
    /// The manifest decoded to something impossible.
    ManifestCorrupt {
        /// Description of the inconsistency.
        context: String,
    },
    /// The manifest is in a format version this build does not read (only
    /// the current one is supported; older ones were never deployed).
    UnsupportedVersion {
        /// The version tag found after the magic prefix.
        found: String,
    },
    /// A manifest commit tried to write a generation at or below the one
    /// already on disk — history must only move forward.
    StaleGeneration {
        /// The generation the commit carried.
        found: u64,
        /// The generation already committed on disk.
        current: u64,
    },
    /// Another process (or another open handle) holds the store directory.
    DirectoryLocked {
        /// The directory that could not be locked.
        dir: std::path::PathBuf,
    },
    /// A stored cold value had an unknown tombstone marker.
    BadValueMarker {
        /// The marker byte found.
        found: u8,
    },
    /// The write-ahead log failed (append, fsync, checkpoint, recovery).
    Wal(WalError),
}

impl fmt::Display for TierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TierError::Io(e) => write!(f, "tier i/o failed: {e}"),
            TierError::Store(e) => write!(f, "hot store failed: {e}"),
            TierError::Archive(e) => write!(f, "cold segment failed: {e}"),
            TierError::ManifestCorrupt { context } => {
                write!(f, "manifest corrupt: {context}")
            }
            TierError::UnsupportedVersion { found } => {
                write!(f, "unsupported manifest version {found:?}")
            }
            TierError::StaleGeneration { found, current } => {
                write!(
                    f,
                    "stale manifest generation {found} (disk already at {current})"
                )
            }
            TierError::DirectoryLocked { dir } => {
                write!(
                    f,
                    "store directory {} is locked by another process",
                    dir.display()
                )
            }
            TierError::BadValueMarker { found } => {
                write!(f, "cold value carries unknown marker byte {found:#04x}")
            }
            TierError::Wal(e) => write!(f, "write-ahead log failed: {e}"),
        }
    }
}

impl std::error::Error for TierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TierError::Io(e) => Some(e),
            TierError::Store(e) => Some(e),
            TierError::Archive(e) => Some(e),
            TierError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TierError {
    fn from(e: io::Error) -> Self {
        TierError::Io(e)
    }
}

impl From<StoreError> for TierError {
    fn from(e: StoreError) -> Self {
        TierError::Store(e)
    }
}

impl From<ArchiveError> for TierError {
    fn from(e: ArchiveError) -> Self {
        TierError::Archive(e)
    }
}

impl From<WalError> for TierError {
    fn from(e: WalError) -> Self {
        TierError::Wal(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TierError>;
