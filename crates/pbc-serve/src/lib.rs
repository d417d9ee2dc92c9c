//! `pbc-serve`: a sharded, multi-tenant request router in front of the
//! tiered store.
//!
//! The engine below this crate ([`pbc_tier`]) is a library: callers
//! invoke `set`/`get` directly and every caller pays the write path's
//! full cost. This crate adds the serving discipline a shared deployment
//! needs, without changing the engine:
//!
//! * **Sharded write batching** ([`Router`]) — writes hash onto
//!   per-shard submission queues; one applier thread per shard drains
//!   them in batches, so concurrent writers' WAL appends share group
//!   commits instead of fsyncing one by one.
//! * **Admission control** ([`ServeError::Busy`]) — bounded queues plus
//!   lock-free backpressure read from
//!   [`pbc_tier::TieredStore::write_pressure`]: when spill or compaction
//!   falls behind, writes are refused with a typed retry hint rather
//!   than queueing without bound. Never a silent drop.
//! * **Multi-tenant namespaces** ([`TenantQuota`]) — per-tenant key
//!   prefixes over one shared store (one cold tier, one block cache),
//!   with exact live-byte and per-window op budgets enforced at
//!   admission.
//!
//! Everything observable is exported as `pbc_serve_*` metrics through
//! the store's shared [`pbc_obs::MetricsRegistry`]; `pbc-perf` (`bench/`)
//! reads them back as its `serve.*` per-layer metrics.
//!
//! ```
//! use std::sync::Arc;
//! use pbc_serve::{Router, ServeConfig, TenantQuota};
//! use pbc_tier::{TierConfig, TieredStore};
//!
//! let dir = std::env::temp_dir().join(format!("pbc-serve-doc-{}", std::process::id()));
//! let store = Arc::new(TieredStore::open(TierConfig::new(&dir)).unwrap());
//! let router = Router::start(Arc::clone(&store), ServeConfig::default()).unwrap();
//! router.create_tenant("alpha", TenantQuota::unlimited()).unwrap();
//! router.put("alpha", b"k", b"v").unwrap();
//! assert_eq!(router.get("alpha", b"k").unwrap().as_deref(), Some(&b"v"[..]));
//! router.shutdown();
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod obs;
mod router;
mod tenant;

pub use config::ServeConfig;
pub use error::{BusyReason, QuotaKind, Result, ServeError};
pub use router::Router;
pub use tenant::{TenantQuota, TenantUsage};
