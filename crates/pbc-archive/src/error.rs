//! Typed errors for the segment format.

use std::fmt;
use std::io;

use pbc_codecs::CodecError;
use pbc_core::PbcError;

/// Everything that can go wrong writing or reading a segment.
#[derive(Debug)]
pub enum ArchiveError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file does not start (or end) with the segment magic.
    BadMagic {
        /// Which magic was wrong ("header" or "trailer").
        location: &'static str,
        /// The bytes actually found.
        found: [u8; 8],
    },
    /// The segment was written by an incompatible format version.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u16,
        /// The version this build reads.
        supported: u16,
    },
    /// The file ends before a structure it promises is complete.
    Truncated {
        /// Which structure was cut short.
        context: &'static str,
    },
    /// A checksum did not match the stored bytes.
    CrcMismatch {
        /// What was being verified ("header", "block index", "block").
        what: &'static str,
        /// Block number for block checksums, 0 otherwise.
        index: usize,
        /// Checksum recorded in the file.
        stored: u32,
        /// Checksum computed over the bytes read.
        computed: u32,
    },
    /// A structure decoded to something impossible.
    Corrupt {
        /// Description of the inconsistency.
        context: String,
    },
    /// The block codec id is not one this build knows.
    UnknownCodec {
        /// The id found in the header.
        id: u8,
    },
    /// A record ordinal past the end of the segment.
    RecordOutOfRange {
        /// Requested ordinal.
        index: u64,
        /// Records in the segment.
        count: u64,
    },
    /// A key appended below the previous one, or a segment header without
    /// the sorted-keys flag: segments hold records in non-decreasing key
    /// order.
    UnsortedKeys,
    /// PBC dictionary or record decoding failed.
    Pbc(PbcError),
    /// A baseline codec failed to decode a block or value.
    Codec(CodecError),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "segment i/o failed: {e}"),
            ArchiveError::BadMagic { location, found } => {
                write!(f, "bad {location} magic: {found:02x?}")
            }
            ArchiveError::UnsupportedVersion { found, supported } => write!(
                f,
                "segment format version {found} not supported (this build reads {supported})"
            ),
            ArchiveError::Truncated { context } => write!(f, "segment truncated in {context}"),
            ArchiveError::CrcMismatch {
                what,
                index,
                stored,
                computed,
            } => write!(
                f,
                "{what} {index} checksum mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
            ArchiveError::Corrupt { context } => write!(f, "segment corrupt: {context}"),
            ArchiveError::UnknownCodec { id } => write!(f, "unknown block codec id {id}"),
            ArchiveError::RecordOutOfRange { index, count } => {
                write!(f, "record {index} out of range (segment holds {count})")
            }
            ArchiveError::UnsortedKeys => {
                write!(f, "keys out of order: a segment holds non-decreasing keys")
            }
            ArchiveError::Pbc(e) => write!(f, "pbc decode failed: {e}"),
            ArchiveError::Codec(e) => write!(f, "block codec failed: {e}"),
        }
    }
}

impl std::error::Error for ArchiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArchiveError::Io(e) => Some(e),
            ArchiveError::Pbc(e) => Some(e),
            ArchiveError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArchiveError {
    fn from(e: io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

impl From<PbcError> for ArchiveError {
    fn from(e: PbcError) -> Self {
        ArchiveError::Pbc(e)
    }
}

impl From<CodecError> for ArchiveError {
    fn from(e: CodecError) -> Self {
        ArchiveError::Codec(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ArchiveError>;
