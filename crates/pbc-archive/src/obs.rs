//! Optional observability hooks for segment readers and writers.
//!
//! Both structs are bundles of [`pbc_obs`] handles. The `Default`
//! (= [`ReaderObs::noop`] / [`WriterObs::noop`]) bundle records nothing
//! and costs nothing — not even a clock read — so the archive layer
//! carries the hooks unconditionally and hosts like `pbc-tier` decide
//! whether to attach real registry handles.

use pbc_obs::{Counter, Histogram};

/// Decode-side hooks for a [`crate::SegmentReader`].
#[derive(Clone, Debug, Default)]
pub struct ReaderObs {
    /// Incremented once per whole-block decompression.
    pub blocks_decoded: Counter,
    /// Nanoseconds per whole-block decompression (codec work only; the
    /// `pread` + CRC check is not included).
    pub decode_ns: Histogram,
    /// Bytes copied from disk into fresh heap buffers by block fetches —
    /// the cost the mmap backend avoids. Stays 0 on a mapped reader; on
    /// the `pread` backend it grows by one compressed block length per
    /// fetch.
    pub bytes_copied: Counter,
}

impl ReaderObs {
    /// Hooks that record nothing.
    pub fn noop() -> Self {
        ReaderObs::default()
    }
}

/// Encode-side hooks for a [`crate::SegmentWriter`].
#[derive(Clone, Debug, Default)]
pub struct WriterObs {
    /// Incremented once per block handed to a codec (including raw
    /// fallbacks).
    pub blocks_encoded: Counter,
    /// Nanoseconds per block compression (codec work only).
    pub encode_ns: Histogram,
}

impl WriterObs {
    /// Hooks that record nothing.
    pub fn noop() -> Self {
        WriterObs::default()
    }
}
