//! # pbc — Pattern-Based Compression for machine-generated data
//!
//! Facade crate for the reproduction of *"High-Ratio Compression for
//! Machine-Generated Data"* (SIGMOD 2023). It re-exports the workspace
//! crates so applications can depend on a single crate:
//!
//! * [`core`] — the PBC algorithm: pattern extraction, per-record
//!   compression, and the `PBC`/`PBC_F`/`PBC_Z`/`PBC_L` variants.
//! * [`codecs`] — from-scratch baseline codecs (LZ4-like, Snappy-like,
//!   Zstd-like, LZMA-like, FSST) and coding primitives.
//! * [`json`] — JSON parsing plus Ion-like / BinPack-like binary
//!   serializations.
//! * [`logs`] — Drain-style log template mining and a LogReducer-like
//!   compressor.
//! * [`datagen`] — synthetic machine-generated datasets standing in for the
//!   paper's production and public corpora.
//! * [`store`] — a TierBase-like in-memory key-value store with pluggable
//!   value compression.
//! * [`archive`] — a persistent, random-access segment store with parallel
//!   per-block compression, used for durable snapshots of the store.
//! * [`tier`] — the tiered hot/cold storage engine: watermark-driven shard
//!   spilling, a read-through LRU block cache, an atomically-swapped
//!   manifest, and segment compaction.
//! * [`wal`] — the sharded group-commit write-ahead log behind
//!   `TierConfig::wal`: CRC-framed records, four durability levels,
//!   torn-tail recovery, and checkpoint-bounded size.
//! * [`serve`] — the multi-tenant serving layer over [`tier`]: a sharded
//!   request router with caller-thread writes, admission control with
//!   typed `Busy` backpressure, and one key namespace per tenant.
//! * [`obs`] — lock-free observability primitives: the metrics registry
//!   with log-linear latency histograms, Prometheus/JSON exporters, and
//!   the bounded trace ring the tiered store records into.
//!
//! ## Quickstart
//!
//! ```
//! use pbc::core::{PbcCompressor, PbcConfig};
//!
//! // Machine-generated records sharing a template.
//! let records: Vec<Vec<u8>> = (0..200)
//!     .map(|i| format!("{{\"sensor\": \"t-{:03}\", \"temp\": {}.5, \"unit\": \"C\"}}", i % 8, 20 + i % 10).into_bytes())
//!     .collect();
//!
//! // Offline: extract patterns from a sample.
//! let sample: Vec<&[u8]> = records.iter().take(64).map(|r| r.as_slice()).collect();
//! let compressor = PbcCompressor::train(&sample, &PbcConfig::default());
//!
//! // Online: compress each record individually (random access preserved).
//! let compressed: Vec<Vec<u8>> = records.iter().map(|r| compressor.compress(r)).collect();
//! let total_raw: usize = records.iter().map(|r| r.len()).sum();
//! let total_comp: usize = compressed.iter().map(|c| c.len()).sum();
//! assert!(total_comp < total_raw);
//!
//! // Decompress any record independently.
//! assert_eq!(compressor.decompress(&compressed[17]).unwrap(), records[17]);
//! ```

#![forbid(unsafe_code)]

pub use pbc_archive as archive;
pub use pbc_codecs as codecs;
pub use pbc_core as core;
pub use pbc_datagen as datagen;
pub use pbc_json as json;
pub use pbc_logs as logs;
pub use pbc_obs as obs;
pub use pbc_serve as serve;
pub use pbc_store as store;
pub use pbc_tier as tier;
pub use pbc_wal as wal;
