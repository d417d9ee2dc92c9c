//! # pbc-store — a TierBase-like in-memory key-value store
//!
//! The paper's production case study (Section 7.5, Table 8) integrates PBC
//! into TierBase, Ant Group's Redis-compatible distributed in-memory
//! database, and measures memory usage and single-instance SET/GET
//! throughput under three value-compression options: uncompressed,
//! dictionary-trained Zstd (TierBase's previous solution), and `PBC_F`.
//! The random-access experiment (Figure 5) additionally contrasts
//! block-wise compression with per-record compression.
//!
//! This crate reproduces the storage-engine side of those experiments:
//!
//! * [`store`] — a sharded in-memory key-value store with pluggable value
//!   compression and memory accounting, also the ordered hot tier of
//!   `pbc-tier`;
//! * [`engine`] — the value codecs (none / Zstd with a trained dictionary /
//!   PBC / PBC_F);
//! * [`block`] — block-wise storage used by the Figure 5 lookup experiment;
//! * [`workload`] — a single-threaded SET/GET driver measuring throughput.

#![forbid(unsafe_code)]

pub mod block;
pub mod engine;
pub mod store;
pub mod workload;

pub use block::{BlockStore, PerRecordStore};
pub use engine::{StoreError, ValueCodec};
pub use store::{Lookup, RangeEntry, RangeSnapshot, TierStore};
pub use workload::{WorkloadReport, WorkloadSpec};
