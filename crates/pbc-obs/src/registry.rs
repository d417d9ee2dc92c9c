//! The metrics registry and its recording handles.
//!
//! A [`MetricsRegistry`] owns named metrics; callers hold cheap cloneable
//! handles ([`Counter`], [`Gauge`], [`Histogram`]) that record through
//! shared atomics. Registration takes a short mutex; **recording never
//! locks**. A registry built with [`MetricsRegistry::disabled`] hands out
//! no-op handles whose record paths do nothing at all — not even read the
//! clock — which is what makes "instrumentation off" a fair baseline for
//! overhead measurements.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::histogram::{HistogramCore, HistogramSnapshot};

enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named counters, gauges, and latency histograms.
///
/// Metric lookup is idempotent: asking for the same name twice returns a
/// handle to the same underlying metric, so independent subsystems can
/// share a metric by name. Asking for an existing name *as a different
/// kind* panics — that is always a programming error.
///
/// ```
/// use pbc_obs::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let requests = registry.counter("requests_total");
/// requests.inc();
/// registry.counter("requests_total").add(2); // same metric
/// let latency = registry.histogram("request_latency_ns");
/// latency.record(1_250);
///
/// let snap = registry.snapshot();
/// assert_eq!(snap.counters["requests_total"], 3);
/// assert_eq!(snap.histograms["request_latency_ns"].count, 1);
/// ```
pub struct MetricsRegistry {
    /// `None` = disabled: every handle handed out is a no-op.
    metrics: Option<Mutex<BTreeMap<String, Metric>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.metrics {
            None => write!(f, "MetricsRegistry(disabled)"),
            Some(m) => {
                let names = m.lock().len();
                write!(f, "MetricsRegistry({names} metrics)")
            }
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            metrics: Some(Mutex::new(BTreeMap::new())),
        }
    }

    /// A disabled registry: every handle it returns is a no-op and
    /// [`MetricsRegistry::snapshot`] is always empty. Recording through
    /// no-op handles compiles down to a branch on `None` — timers do not
    /// even read the clock.
    pub fn disabled() -> Self {
        MetricsRegistry { metrics: None }
    }

    /// Whether this registry actually records.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    fn register<T>(
        &self,
        name: &str,
        kind: &'static str,
        make: impl FnOnce() -> Metric,
        get: impl FnOnce(&Metric) -> Option<T>,
    ) -> Option<T> {
        let metrics = self.metrics.as_ref()?;
        let mut map = metrics.lock();
        let metric = map.entry(name.to_string()).or_insert_with(make);
        match get(metric) {
            Some(handle) => Some(handle),
            // pbc-allow(panic): re-registering a name as a different metric type is a programmer error, not a runtime condition
            None => panic!(
                "metric `{name}` already registered as a {}, requested as a {kind}",
                metric.kind()
            ),
        }
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.register(
            name,
            "counter",
            || Metric::Counter(Arc::new(AtomicU64::new(0))),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        ))
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.register(
            name,
            "gauge",
            || Metric::Gauge(Arc::new(AtomicU64::new(0))),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        ))
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.register(
            name,
            "histogram",
            || Metric::Histogram(Arc::new(HistogramCore::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        ))
    }

    /// A point-in-time view of every registered metric, keyed by name in
    /// sorted order. Each individual metric is read atomically; the
    /// snapshot as a whole is taken under the registration mutex, so no
    /// metric can be added halfway through.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let Some(metrics) = self.metrics.as_ref() else {
            return snap;
        };
        let map = metrics.lock();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters
                        .insert(name.clone(), c.load(Ordering::Relaxed));
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.load(Ordering::Relaxed));
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A monotonically increasing counter handle. Cloning is cheap; clones
/// share the same underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// An active counter not attached to any registry — it counts, but
    /// never appears in a snapshot. Useful for components that keep their
    /// own accessors (e.g. a cache's hit/miss counts) when no registry is
    /// in play.
    pub fn standalone() -> Self {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    /// A handle whose operations all do nothing.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge handle holding one `u64` that can be set to arbitrary values.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// An active gauge not attached to any registry.
    pub fn standalone() -> Self {
        Gauge(Some(Arc::new(AtomicU64::new(0))))
    }

    /// A handle whose operations all do nothing.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A histogram handle; see [`crate::histogram`] for bucket semantics.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Histogram(noop)"),
            Some(h) => write!(f, "Histogram(count={})", h.snapshot().count),
        }
    }
}

impl Histogram {
    /// An active histogram not attached to any registry.
    pub fn standalone() -> Self {
        Histogram(Some(Arc::new(HistogramCore::new())))
    }

    /// A handle whose operations all do nothing.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Whether this handle actually records (false for no-op handles).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one sample (e.g. a duration in nanoseconds).
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Start a timer that records its elapsed **nanoseconds** into this
    /// histogram when dropped. On a no-op handle the timer never reads
    /// the clock.
    #[inline]
    pub fn start_timer(&self) -> Timer {
        Timer {
            histogram: self.clone(),
            start: self.0.is_some().then(Instant::now),
        }
    }

    /// Snapshot just this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::empty, |h| h.snapshot())
    }
}

/// Records elapsed nanoseconds into a [`Histogram`] when dropped (or
/// explicitly via [`Timer::observe`]). Obtained from
/// [`Histogram::start_timer`].
#[derive(Debug)]
pub struct Timer {
    histogram: Histogram,
    start: Option<Instant>,
}

impl Timer {
    /// Stop the timer now and record the elapsed time.
    pub fn observe(self) {
        drop(self);
    }

    /// Discard the timer without recording anything.
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.histogram.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// A point-in-time view of a whole registry; see
/// [`MetricsRegistry::snapshot`]. Render it with
/// [`Snapshot::to_prometheus`] or [`Snapshot::to_json`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram views by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(a.value(), 5);
        assert_eq!(r.snapshot().counters["x"], 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = MetricsRegistry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x");
        c.add(10);
        assert_eq!(c.value(), 0);
        let h = r.histogram("h");
        h.record(5);
        h.start_timer().observe();
        assert_eq!(h.snapshot().count, 0);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn timer_records_elapsed_ns() {
        let h = Histogram::standalone();
        {
            let t = h.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.observe();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.max >= 1_000_000, "timer recorded {} ns", snap.max);
    }

    #[test]
    fn timer_cancel_records_nothing() {
        let h = Histogram::standalone();
        h.start_timer().cancel();
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn gauge_set_wins_last() {
        let r = MetricsRegistry::new();
        let g = r.gauge("g");
        g.set(7);
        g.set(3);
        assert_eq!(r.snapshot().gauges["g"], 3);
    }
}
