//! # pbc-store — a TierBase-like in-memory key-value store
//!
//! The paper's production case study (Section 7.5, Table 8) integrates PBC
//! into TierBase, Ant Group's Redis-compatible distributed in-memory
//! database, and measures memory usage and single-instance SET/GET
//! throughput under three value-compression options: uncompressed,
//! dictionary-trained Zstd (TierBase's previous solution), and `PBC_F`.
//!
//! This crate reproduces the storage-engine side of that experiment:
//!
//! * [`store`] — a sharded in-memory key-value store with pluggable value
//!   compression and memory accounting, also the ordered hot tier of
//!   `pbc-tier`;
//! * [`engine`] — the value codecs (none / Zstd with a trained dictionary /
//!   PBC / PBC_F);
//! * [`workload`] — a single-threaded SET/GET driver measuring throughput.

#![forbid(unsafe_code)]

pub mod engine;
pub mod store;
pub mod workload;

pub use engine::{StoreError, ValueCodec};
pub use store::{Lookup, RangeSnapshot, TierStore};
pub use workload::{WorkloadError, WorkloadReport, WorkloadSpec};
