//! The sharded request router.
//!
//! ## Shape
//!
//! Every request runs on the caller's thread. `put`/`delete` pass
//! admission, then call [`TieredStore::set`] /
//! [`TieredStore::delete`] and return the store's answer; gets and scans
//! take the store's lock-free read path. There is no queue and no
//! applier thread. Group commit happens one layer down: concurrent
//! writers to one WAL shard meet at its single durable point, where one
//! fsync covers every record appended before it started, so writers
//! share fsyncs without the router batching anything.
//!
//! ## Writes in flight
//!
//! Each write counts itself in flight on one of [`ServeConfig::shards`]
//! counters, placed by the WAL's own key hash ([`pbc_tier::shard_of`])
//! over the tenant-prefixed key, from admission until it returns.
//! [`ServeConfig::queue_capacity`] bounds each counter exactly: a write
//! that would exceed it is refused with [`BusyReason::QueueFull`].
//! [`Router::queue_depth`] and the `pbc_serve_queue_depth` gauge report
//! the sum.
//!
//! ## Acknowledgement contract
//!
//! `put`/`delete` return once the store has applied the write (and, with
//! a WAL configured, made it as durable as its level promises). A
//! returned `Ok` therefore means *readable and as durable as the store
//! promises*. A returned error means the write was **not silently
//! dropped**: either it was refused before touching anything
//! ([`ServeError::Busy`], [`ServeError::Shutdown`]) or it failed with
//! the store's error.
//!
//! ## Admission control
//!
//! A write first takes its in-flight place, refused after shutdown or at
//! the shard's bound. It then samples [`TieredStore::write_pressure`]
//! (lock-free atomics): at or past [`ServeConfig::l0_backpressure`]
//! committed L0 segments, or hot memory beyond
//! [`ServeConfig::memory_slack`] × the spill watermark, the write is
//! refused with a typed [`ServeError::Busy`] carrying a retry hint.
//! Rejections are counted (`pbc_serve_admission_rejections_total`) and
//! never block: saturation turns into fast, typed feedback instead of
//! unbounded waiting.
//!
//! ## Shutdown
//!
//! [`Router::shutdown`] refuses new writes and returns once every
//! admitted write has returned; [`Router::abort`] refuses new writes and
//! returns at once. A write admitted before either call finishes with
//! the store's answer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use pbc_obs::MetricsRegistry;
use pbc_tier::TieredStore;

use crate::config::ServeConfig;
use crate::error::{BusyReason, Result, ServeError};
use crate::obs::ServeObs;
use crate::tenant::{validate_name, Tenant, TenantQuota};

/// Rows [`Router::scan`] reserves room for up front: its `limit`, up to
/// this many, so a huge limit over a short range reserves 48 KiB at most.
const SCAN_PRESIZE_ROWS: usize = 1024;

// The tenant map is the serving layer's one lock, held only to look a
// tenant up or register one, so there is no lock order to declare.

/// One shard's count of writes in flight, on its own cache line so that
/// writers on different shards do not contend for one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct InFlight(AtomicUsize);

/// A write's place in its shard's in-flight count, given back on drop.
struct Admitted<'a> {
    router: &'a Router,
    slot: &'a InFlight,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.slot.0.fetch_sub(1, Ordering::SeqCst);
        self.router.publish_depth();
    }
}

/// The serving front end. See the module docs above.
///
/// Dropping the router needs no shutdown: nothing can be in flight once
/// no caller borrows it.
pub struct Router {
    store: Arc<TieredStore>,
    config: ServeConfig,
    obs: ServeObs,
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
    in_flight: Vec<InFlight>,
    /// Set by the first shutdown-shaped call; every later write is
    /// refused with [`ServeError::Shutdown`].
    closed: AtomicBool,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.in_flight.len())
            .field("queue_depth", &self.queue_depth())
            .field("tenants", &self.tenants.read().len())
            .finish()
    }
}

impl Router {
    /// Start a router over `store`. Spawns no thread; writes run on
    /// their callers' threads.
    pub fn start(store: Arc<TieredStore>, config: ServeConfig) -> Result<Router> {
        let obs = ServeObs::new(store.metrics());
        let in_flight = (0..config.shards.max(1))
            .map(|_| InFlight::default())
            .collect();
        Ok(Router {
            store,
            config,
            obs,
            tenants: RwLock::new(BTreeMap::new()),
            in_flight,
            closed: AtomicBool::new(false),
        })
    }

    /// Resolve a tenant by name (the read lock is released before this
    /// returns — nothing runs under it).
    fn tenant(&self, name: &str) -> Result<Arc<Tenant>> {
        let tenants = self.tenants.read();
        tenants
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant {
                tenant: name.to_string(),
            })
    }

    /// Count a write in flight on `key`'s shard, or refuse it: after a
    /// shutdown-shaped call, or when the shard already holds
    /// [`ServeConfig::queue_capacity`] writes. The count is taken before
    /// `closed` is read, and shutdown sets `closed` before it reads the
    /// counts (both sequentially consistent), so shutdown either waits
    /// for this write or this write sees `closed`.
    fn admit(&self, key: &[u8]) -> Result<Admitted<'_>> {
        let slot = &self.in_flight[pbc_tier::shard_of(key, self.in_flight.len())];
        let capacity = self.config.queue_capacity;
        let counted = slot
            .0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < capacity).then_some(n + 1)
            })
            .is_ok();
        let admitted = counted.then_some(Admitted { router: self, slot });
        if self.closed.load(Ordering::SeqCst) {
            return Err(ServeError::Shutdown);
        }
        let admitted = admitted.ok_or(ServeError::Busy {
            reason: BusyReason::QueueFull,
            retry_after: self.config.retry_after,
        })?;
        self.publish_depth();
        Ok(admitted)
    }

    /// Refresh the `pbc_serve_queue_depth` gauge from the counts. With
    /// writers racing, the gauge is a sample; [`Router::queue_depth`] reads
    /// the counts themselves.
    fn publish_depth(&self) {
        self.obs.queue_depth.set(self.queue_depth() as u64);
    }

    /// The lock-free backpressure gate every admitted write passes.
    fn check_pressure(&self) -> Result<()> {
        let pressure = self.store.write_pressure();
        if pressure.l0_segments >= self.config.l0_backpressure {
            return Err(ServeError::Busy {
                reason: BusyReason::ColdBacklog,
                retry_after: self.config.retry_after * 8,
            });
        }
        if pressure.memory_ratio() > self.config.memory_slack {
            return Err(ServeError::Busy {
                reason: BusyReason::MemoryPressure,
                retry_after: self.config.retry_after * 4,
            });
        }
        Ok(())
    }

    /// Register a tenant. Fails on duplicate or invalid names. The quota
    /// argument is a field-less placeholder and enforces nothing.
    pub fn create_tenant(&self, name: &str, _quota: TenantQuota) -> Result<()> {
        validate_name(name)?;
        let mut tenants = self.tenants.write();
        if tenants.contains_key(name) {
            return Err(ServeError::TenantExists {
                tenant: name.to_string(),
            });
        }
        tenants.insert(name.to_string(), Arc::new(Tenant::new(name)));
        self.obs.tenants.set(tenants.len() as u64);
        Ok(())
    }

    /// Store a value for `tenant`. Returns once the store has applied
    /// (and, with a WAL, made durable) the write, with the hot-tier
    /// stored size. See the module docs for the rejection and
    /// acknowledgement contract.
    pub fn put(&self, tenant: &str, key: &[u8], value: &[u8]) -> Result<usize> {
        self.write(tenant, key, |store, full_key| store.set(full_key, value))
            .inspect(|_| self.obs.puts.inc())
    }

    /// Delete a key for `tenant`; returns whether it existed. Admitted
    /// and acknowledged exactly like [`Router::put`].
    pub fn delete(&self, tenant: &str, key: &[u8]) -> Result<bool> {
        self.write(tenant, key, |store, full_key| store.delete(full_key))
            .inspect(|_| self.obs.deletes.inc())
    }

    /// The one write path behind [`Router::put`] and [`Router::delete`]:
    /// resolve the tenant, take an in-flight place, pass the pressure
    /// gate, and run `apply` on the full key.
    fn write<T>(
        &self,
        tenant: &str,
        key: &[u8],
        apply: impl FnOnce(&TieredStore, &[u8]) -> pbc_tier::Result<T>,
    ) -> Result<T> {
        let tenant = self.tenant(tenant)?;
        let full_key = tenant.full_key(key);
        let _admitted = self
            .admit(&full_key)
            .and_then(|admitted| self.check_pressure().map(|()| admitted))
            .inspect_err(|refused| {
                if matches!(refused, ServeError::Busy { .. }) {
                    self.obs.admission_rejections.inc();
                }
            })?;
        let started = Instant::now();
        let acked = apply(&self.store, &full_key)?;
        self.obs
            .write_wait_ns
            .record(started.elapsed().as_nanos() as u64);
        Ok(acked)
    }

    /// Fetch `tenant`'s value for `key` from the store's read path.
    pub fn get(&self, tenant: &str, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let tenant = self.tenant(tenant)?;
        let timer = self.obs.get_ns.start_timer();
        let value = self.store.get(&tenant.full_key(key))?;
        timer.observe();
        self.obs.gets.inc();
        Ok(value)
    }

    /// Stream up to `limit` of `tenant`'s live keys at or after `start`,
    /// in ascending user-key order, with the namespace prefix stripped.
    /// Snapshot-consistent (the store's range-scan contract).
    pub fn scan(
        &self,
        tenant: &str,
        start: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let tenant = self.tenant(tenant)?;
        let range = tenant.full_key(start)..tenant.prefix_end();
        let mut rows = Vec::with_capacity(limit.min(SCAN_PRESIZE_ROWS));
        for row in self.store.range_scan_limited(range, limit)? {
            let (mut key, value) = row?;
            // Strip the namespace in place: the store's copy of the key is
            // the one the caller gets.
            key.drain(..tenant.prefix.len());
            rows.push((key, value));
        }
        self.obs.scans.inc();
        Ok(rows)
    }

    /// Writes in flight across all shards, from admission until they
    /// return (the `pbc_serve_queue_depth` gauge's source).
    pub fn queue_depth(&self) -> usize {
        self.in_flight
            .iter()
            .map(|slot| slot.0.load(Ordering::SeqCst))
            .sum()
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<TieredStore> {
        &self.store
    }

    /// The shared metrics registry (store + router metrics).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.store.metrics()
    }

    /// Graceful shutdown: refuse new writes with
    /// [`ServeError::Shutdown`], then return once every admitted write
    /// has returned. Idempotent, and callable after [`Router::abort`].
    pub fn shutdown(&self) {
        self.abort();
        while self.queue_depth() > 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Crash-shaped shutdown: refuse new writes with
    /// [`ServeError::Shutdown`] and return at once, flushing nothing.
    /// Writes already admitted still finish with the store's answer. The
    /// WAL crash tests use this to model a process death with writes in
    /// flight — acknowledged writes must still be recoverable from the
    /// store's log.
    pub fn abort(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }
}
