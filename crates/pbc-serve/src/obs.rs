//! The router's metric handles, registered eagerly into the shared
//! registry (the same one the underlying [`pbc_tier::TieredStore`]
//! exports through, so one Prometheus/JSON snapshot covers the whole
//! stack). All `pbc_serve_*` names live here — the single source of
//! truth the README's metric table is checked against.

use pbc_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// Every handle the router records through.
#[derive(Debug)]
pub(crate) struct ServeObs {
    /// Acknowledged gets.
    pub(crate) gets: Counter,
    /// Acknowledged puts.
    pub(crate) puts: Counter,
    /// Acknowledged deletes.
    pub(crate) deletes: Counter,
    /// Acknowledged scans.
    pub(crate) scans: Counter,
    /// Writes refused by admission control (`Busy` returned).
    pub(crate) admission_rejections: Counter,
    /// Writes in flight across all shards.
    pub(crate) queue_depth: Gauge,
    /// Registered tenants.
    pub(crate) tenants: Gauge,
    /// Admission-to-ack latency of acknowledged writes, puts and deletes
    /// both (the store call, nanoseconds).
    pub(crate) write_wait_ns: Histogram,
    /// Whole-call router get latency (nanoseconds).
    pub(crate) get_ns: Histogram,
}

impl ServeObs {
    pub(crate) fn new(registry: &MetricsRegistry) -> ServeObs {
        ServeObs {
            gets: registry.counter("pbc_serve_gets_total"),
            puts: registry.counter("pbc_serve_puts_total"),
            deletes: registry.counter("pbc_serve_deletes_total"),
            scans: registry.counter("pbc_serve_scans_total"),
            admission_rejections: registry.counter("pbc_serve_admission_rejections_total"),
            queue_depth: registry.gauge("pbc_serve_queue_depth"),
            tenants: registry.gauge("pbc_serve_tenants"),
            write_wait_ns: registry.histogram("pbc_serve_write_wait_ns"),
            get_ns: registry.histogram("pbc_serve_get_latency_ns"),
        }
    }
}
