//! `pbc-obs` — lock-free observability for the PBC engine.
//!
//! Three pieces, with no dependency beyond the workspace's lock shim:
//!
//! 1. **[`MetricsRegistry`]** — named [`Counter`]s, [`Gauge`]s, and
//!    log-linear (HDR-style) latency [`Histogram`]s. Handles are cheap
//!    clones recording through shared atomics with `Relaxed` ordering;
//!    nothing on the record path takes a lock. [`MetricsRegistry::snapshot`]
//!    produces a [`Snapshot`] with p50/p90/p99/p999/max per histogram.
//! 2. **Exporters** — [`Snapshot::to_prometheus`] renders the Prometheus
//!    text exposition format; [`Snapshot::to_json`] a self-contained JSON
//!    document. Both are deterministic (sorted metric names).
//! 3. **[`TraceRing`]** — a bounded ring of structured [`Event`]s (spills,
//!    compaction job lifecycle, manifest generation bumps, scans,
//!    background errors with the actual error string), timestamped on a
//!    monotonic clock.
//!
//! The whole crate can be switched off: [`MetricsRegistry::disabled`]
//! hands out no-op handles whose record paths skip even the clock read,
//! making "observability off" a fair baseline when measuring the
//! instrumentation's own overhead.
//!
//! ```
//! use pbc_obs::{Event, MetricsRegistry, TraceRing};
//!
//! let registry = MetricsRegistry::new();
//! let gets = registry.counter("pbc_tier_gets_total");
//! let latency = registry.histogram("pbc_tier_get_latency_ns");
//!
//! gets.inc();
//! let timer = latency.start_timer();
//! // ... do the lookup ...
//! timer.observe();
//!
//! let trace = TraceRing::new(256);
//! trace.record(Event::ManifestGeneration { generation: 1 });
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["pbc_tier_gets_total"], 1);
//! assert_eq!(snap.histograms["pbc_tier_get_latency_ns"].count, 1);
//! println!("{}", snap.to_prometheus());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod histogram;
mod registry;
mod trace;

mod export;

pub use histogram::HistogramSnapshot;
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot, Timer};
pub use trace::{Event, TraceEvent, TraceRing};
