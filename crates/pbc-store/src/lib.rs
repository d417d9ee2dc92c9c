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
//! * [`store`] — a sharded in-memory key-value store whose values pass
//!   through a [`pbc_archive::RecordCodec`] (raw / Zstd with a trained
//!   dictionary / PBC / PBC_F: the same codec a per-record segment block
//!   frames its values with), with memory accounting; also the ordered hot
//!   tier of `pbc-tier`;
//! * [`workload`] — a single-threaded SET/GET driver measuring throughput.

#![forbid(unsafe_code)]

pub mod store;
pub mod workload;

pub use store::{Lookup, RangeSnapshot, StoreError, TierStore};
pub use workload::{WorkloadError, WorkloadReport, WorkloadSpec};

/// The hot tier's value codec under its old name, kept only while `bench/`
/// names it (ROADMAP 0(b)).
pub use pbc_archive::RecordCodec as ValueCodec;
