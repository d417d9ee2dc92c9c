//! The sharded request router.
//!
//! ## Shape
//!
//! Writes hash by key onto one of [`ServeConfig::shards`] submission
//! queues, placed by the WAL's own key hash ([`pbc_tier::shard_of`]); a
//! dedicated applier thread per shard drains up to
//! [`ServeConfig::max_batch`] writes at a time and applies them one after
//! another to the shared [`TieredStore`]. A batch shares the queue
//! hand-off, not an fsync: under [`pbc_tier::Durability::PerBatch`] each
//! `set` waits for its own record to be durable, and with as many router
//! shards as WAL shards applier *i* is the only writer of WAL shard *i*.
//! Reads and scans bypass the queues entirely — they take the store's
//! lock-free read path directly.
//!
//! ## Acknowledgement contract
//!
//! `put`/`delete` block until their write has been applied by the shard
//! applier (and, with a WAL configured, acknowledged at the store's
//! durability level). A returned `Ok` therefore means *readable and as
//! durable as the store promises*. A returned error means the write was
//! **not silently dropped**: either it was never queued
//! ([`ServeError::Busy`], [`ServeError::QuotaExceeded`] — zero side
//! effects) or it failed with the store's error, with the tenant's
//! quota charge rolled back.
//!
//! ## Admission control
//!
//! Every write first samples [`TieredStore::write_pressure`] (lock-free
//! atomics): at or past [`ServeConfig::l0_backpressure`] committed L0
//! segments, or hot memory beyond [`ServeConfig::memory_slack`] × the
//! spill watermark, the write is refused with a typed
//! [`ServeError::Busy`] carrying a retry hint. The shard queue bound is
//! enforced exactly, under the queue lock. Rejections are counted
//! (`pbc_serve_admission_rejections_total`) and never block: saturation
//! turns into fast, typed feedback instead of unbounded queueing.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, RwLock};
use pbc_obs::MetricsRegistry;
use pbc_tier::TieredStore;

use crate::config::ServeConfig;
use crate::error::{BusyReason, Result, ServeError};
use crate::obs::ServeObs;
use crate::tenant::{validate_name, Tenant, TenantQuota, TenantUsage};

// Lock order across the serving layer (declared even where the router
// never nests them, so any future nesting is checked against intent):
// the tenant map is the outermost, per-tenant accounting next, then a
// shard's submission queue, then a single write's completion slot.
// lock-order: router.tenants < tenant.usage < router.queue < router.slot

/// A queued write: its full (tenant-prefixed) key and the slot its
/// submitter waits on for the store's answer.
#[derive(Debug)]
enum WriteOp {
    Put {
        key: Vec<u8>,
        value: Vec<u8>,
        waiter: Arc<Waiter<usize>>,
    },
    Delete {
        key: Vec<u8>,
        waiter: Arc<Waiter<bool>>,
    },
}

impl WriteOp {
    fn key(&self) -> &[u8] {
        match self {
            WriteOp::Put { key, .. } | WriteOp::Delete { key, .. } => key,
        }
    }

    /// Apply the write to `store` and acknowledge it.
    fn apply(self, store: &TieredStore) {
        match self {
            WriteOp::Put { key, value, waiter } => {
                waiter.complete(store.set(&key, &value).map_err(ServeError::from));
            }
            WriteOp::Delete { key, waiter } => {
                waiter.complete(store.delete(&key).map_err(ServeError::from));
            }
        }
    }

    /// Fail the write with [`ServeError::Shutdown`].
    fn fail(self) {
        match self {
            WriteOp::Put { waiter, .. } => waiter.complete(Err(ServeError::Shutdown)),
            WriteOp::Delete { waiter, .. } => waiter.complete(Err(ServeError::Shutdown)),
        }
    }
}

/// One submitter's completion slot.
#[derive(Debug)]
struct Waiter<T> {
    slot: Mutex<Option<Result<T>>>,
    done: Condvar,
}

impl<T> Waiter<T> {
    fn new() -> Arc<Waiter<T>> {
        Arc::new(Waiter {
            slot: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn complete(&self, result: Result<T>) {
        let mut slot = self.slot.lock();
        *slot = Some(result);
        self.done.notify_one();
    }

    fn wait(&self) -> Result<T> {
        let mut slot = self.slot.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            self.done.wait(&mut slot);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunMode {
    Run,
    /// Apply everything queued, then exit (graceful shutdown).
    Drain,
    /// Fail everything queued with [`ServeError::Shutdown`], then exit
    /// (crash-shaped shutdown; the WAL crash tests drive this).
    Abort,
}

#[derive(Debug)]
struct QueueState {
    pending: VecDeque<WriteOp>,
    mode: RunMode,
}

/// One shard: a bounded submission queue and its applier's wakeup.
#[derive(Debug)]
struct ShardQueue {
    queue: Mutex<QueueState>,
    work: Condvar,
}

/// What the applier should do with one drained batch.
enum BatchAction {
    Apply(Vec<WriteOp>),
    Fail(Vec<WriteOp>),
    Exit,
}

/// State shared between the router handle and its applier threads.
struct Shared {
    store: Arc<TieredStore>,
    config: ServeConfig,
    obs: ServeObs,
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
    shards: Vec<ShardQueue>,
    /// Mirrors the summed queue lengths for the gauge and for
    /// [`Router::queue_depth`].
    total_depth: AtomicUsize,
}

/// The serving front end. See the module docs above.
///
/// Dropping the router performs a graceful [`Router::shutdown`]: queued
/// writes are applied, appliers joined.
pub struct Router {
    shared: Arc<Shared>,
    /// Applier handles, drained (and joined) by the first shutdown-shaped
    /// call; behind a mutex so shutdown works through a shared handle.
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.shared.shards.len())
            .field("queue_depth", &self.queue_depth())
            .field("tenants", &self.shared.tenants_len())
            .finish()
    }
}

impl Shared {
    fn tenants_len(&self) -> usize {
        self.tenants.read().len()
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

    fn shard_for(&self, key: &[u8]) -> &ShardQueue {
        &self.shards[pbc_tier::shard_of(key, self.shards.len())]
    }

    /// The lock-free backpressure gate every write passes first.
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

    /// Enqueue a write on its shard, enforcing the queue bound exactly.
    fn try_enqueue(&self, op: WriteOp) -> Result<()> {
        let shard = self.shard_for(op.key());
        {
            let mut state = shard.queue.lock();
            if state.mode != RunMode::Run {
                return Err(ServeError::Shutdown);
            }
            if state.pending.len() >= self.config.queue_capacity {
                return Err(ServeError::Busy {
                    reason: BusyReason::QueueFull,
                    retry_after: self.config.retry_after,
                });
            }
            state.pending.push_back(op);
            // Still under the queue lock: the applier drains (and
            // decrements) under this same mutex, so every decrement is
            // covered by an increment that happened-before it and the
            // counter can never transiently under-count (which would
            // underflow note_drained's subtraction).
            let depth = self.total_depth.fetch_add(1, Ordering::Relaxed) + 1;
            self.obs.queue_depth.set(depth as u64);
        }
        shard.work.notify_one();
        Ok(())
    }

    /// Block until the shard has work (or is shutting down) and decide
    /// what to do with it.
    fn next_batch(&self, index: usize) -> BatchAction {
        let shard = &self.shards[index];
        let mut state = shard.queue.lock();
        loop {
            match state.mode {
                RunMode::Abort => {
                    let drained: Vec<WriteOp> = state.pending.drain(..).collect();
                    self.note_drained(drained.len());
                    drop(state);
                    return if drained.is_empty() {
                        BatchAction::Exit
                    } else {
                        BatchAction::Fail(drained)
                    };
                }
                RunMode::Run | RunMode::Drain => {
                    if !state.pending.is_empty() {
                        let take = state.pending.len().min(self.config.max_batch);
                        let drained: Vec<WriteOp> = state.pending.drain(..take).collect();
                        self.note_drained(drained.len());
                        drop(state);
                        return BatchAction::Apply(drained);
                    }
                    if state.mode == RunMode::Drain {
                        return BatchAction::Exit;
                    }
                    shard.work.wait(&mut state);
                }
            }
        }
    }

    /// Account for `n` writes leaving a shard queue. Must be called with
    /// that shard's queue lock held (see the matching increment in
    /// [`Shared::try_enqueue`]): the lock guarantees the increments for
    /// the drained writes happened-before this subtraction, so the
    /// counter never underflows. Saturating arithmetic keeps the gauge
    /// sane even if that invariant is ever broken.
    fn note_drained(&self, n: usize) {
        if n > 0 {
            let depth = self
                .total_depth
                .fetch_sub(n, Ordering::Relaxed)
                .saturating_sub(n);
            self.obs.queue_depth.set(depth as u64);
        }
    }

    /// Apply one drained batch back-to-back and acknowledge each write.
    fn apply_batch(&self, batch: Vec<WriteOp>) {
        self.obs.batches.inc();
        self.obs.batch_records.record(batch.len() as u64);
        for op in batch {
            op.apply(&self.store);
        }
    }

    fn applier_loop(&self, index: usize) {
        loop {
            match self.next_batch(index) {
                BatchAction::Apply(batch) => self.apply_batch(batch),
                BatchAction::Fail(batch) => batch.into_iter().for_each(WriteOp::fail),
                BatchAction::Exit => return,
            }
        }
    }
}

impl Router {
    /// Start a router over `store`: spawns one applier thread per shard.
    pub fn start(store: Arc<TieredStore>, config: ServeConfig) -> Result<Router> {
        let obs = ServeObs::new(store.metrics());
        let shards = (0..config.shards.max(1))
            .map(|_| ShardQueue {
                queue: Mutex::new(QueueState {
                    pending: VecDeque::new(),
                    mode: RunMode::Run,
                }),
                work: Condvar::new(),
            })
            .collect();
        let shared = Arc::new(Shared {
            store,
            config,
            obs,
            tenants: RwLock::new(BTreeMap::new()),
            shards,
            total_depth: AtomicUsize::new(0),
        });
        let mut workers = Vec::with_capacity(shared.shards.len());
        for index in 0..shared.shards.len() {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("pbc-serve-applier-{index}"))
                .spawn(move || worker_shared.applier_loop(index));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Unwind the already-spawned appliers instead of
                    // leaking them parked on their condvars: the queues
                    // are still empty, so Drain makes each exit at once.
                    for shard in &shared.shards {
                        let mut state = shard.queue.lock();
                        state.mode = RunMode::Drain;
                        drop(state);
                        shard.work.notify_all();
                    }
                    for worker in workers {
                        // pbc-allow(panic): an applier panic this early means the router never existed; surfacing it beats leaking
                        worker.join().expect("router applier panicked");
                    }
                    return Err(e.into());
                }
            }
        }
        Ok(Router {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Register a tenant. Fails on duplicate or invalid names.
    pub fn create_tenant(&self, name: &str, quota: TenantQuota) -> Result<()> {
        validate_name(name)?;
        let mut tenants = self.shared.tenants.write();
        if tenants.contains_key(name) {
            return Err(ServeError::TenantExists {
                tenant: name.to_string(),
            });
        }
        tenants.insert(name.to_string(), Arc::new(Tenant::new(name, quota)));
        self.shared.obs.tenants.set(tenants.len() as u64);
        Ok(())
    }

    /// Store a value for `tenant`. Blocks until the shard applier has
    /// applied (and, with a WAL, made durable) the write. Returns the
    /// hot-tier stored size. See the module docs for the
    /// rejection and acknowledgement contract.
    pub fn put(&self, tenant: &str, key: &[u8], value: &[u8]) -> Result<usize> {
        self.submit(tenant, key, Some(value), |key, waiter| WriteOp::Put {
            key,
            value: value.to_vec(),
            waiter,
        })
    }

    /// Delete a key for `tenant`; returns whether it existed. Queued and
    /// acknowledged exactly like [`Router::put`].
    pub fn delete(&self, tenant: &str, key: &[u8]) -> Result<bool> {
        self.submit(tenant, key, None, |key, waiter| WriteOp::Delete {
            key,
            waiter,
        })
    }

    /// The one write path behind [`Router::put`] (`value` is `Some`) and
    /// [`Router::delete`]: resolve the tenant, pass the pressure gate,
    /// charge the tenant, enqueue the write `op` builds from the full key
    /// and a fresh waiter, and block for its acknowledgement. A write the
    /// queue refuses or the store fails has its charge rolled back.
    fn submit<T>(
        &self,
        tenant: &str,
        key: &[u8],
        value: Option<&[u8]>,
        op: impl FnOnce(Vec<u8>, Arc<Waiter<T>>) -> WriteOp,
    ) -> Result<T> {
        let shared = &self.shared;
        let tenant = shared.tenant(tenant)?;
        if let Err(busy) = shared.check_pressure() {
            shared.obs.admission_rejections.inc();
            return Err(busy);
        }
        let admitted = match value {
            Some(value) => tenant.admit_put(key, value.len()),
            None => tenant.admit_delete(key),
        };
        let charge = match admitted {
            Ok(charge) => charge,
            Err(e) => {
                shared.obs.quota_rejections.inc();
                return Err(e);
            }
        };
        let waiter = Waiter::new();
        let started = Instant::now();
        if let Err(refused) = shared.try_enqueue(op(tenant.full_key(key), Arc::clone(&waiter))) {
            tenant.rollback(key, charge);
            if matches!(refused, ServeError::Busy { .. }) {
                shared.obs.admission_rejections.inc();
            }
            return Err(refused);
        }
        match waiter.wait() {
            Ok(acked) => {
                shared
                    .obs
                    .write_wait_ns
                    .record(started.elapsed().as_nanos() as u64);
                match value {
                    Some(_) => shared.obs.puts.inc(),
                    None => shared.obs.deletes.inc(),
                }
                Ok(acked)
            }
            Err(e) => {
                tenant.rollback(key, charge);
                Err(e)
            }
        }
    }

    /// Fetch `tenant`'s value for `key`. Reads bypass the submission
    /// queues — they take the store's read path directly.
    pub fn get(&self, tenant: &str, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let shared = &self.shared;
        let tenant = shared.tenant(tenant)?;
        if let Err(e) = tenant.admit_read() {
            shared.obs.quota_rejections.inc();
            return Err(e);
        }
        let timer = shared.obs.get_ns.start_timer();
        let value = shared.store.get(&tenant.full_key(key))?;
        timer.observe();
        shared.obs.gets.inc();
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
        let shared = &self.shared;
        let tenant = shared.tenant(tenant)?;
        if let Err(e) = tenant.admit_read() {
            shared.obs.quota_rejections.inc();
            return Err(e);
        }
        let range = tenant.full_key(start)..tenant.prefix_end();
        let rows = shared
            .store
            .range_scan_limited(range, limit)?
            .map(|row| row.map(|(key, value)| (key[tenant.prefix.len()..].to_vec(), value)))
            .collect::<pbc_tier::Result<_>>()?;
        shared.obs.scans.inc();
        Ok(rows)
    }

    /// A tenant's current accounting (exact under per-key serial
    /// submission; see the tenant module docs).
    pub fn usage(&self, tenant: &str) -> Result<TenantUsage> {
        Ok(self.shared.tenant(tenant)?.usage())
    }

    /// Reset a tenant's op window (the external rate-limit driver tick).
    pub fn reset_ops_window(&self, tenant: &str) -> Result<()> {
        self.shared.tenant(tenant)?.reset_ops_window();
        Ok(())
    }

    /// Writes currently queued across all shards (the
    /// `pbc_serve_queue_depth` gauge's source).
    pub fn queue_depth(&self) -> usize {
        self.shared.total_depth.load(Ordering::Relaxed)
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<TieredStore> {
        &self.shared.store
    }

    /// The shared metrics registry (store + router metrics).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.shared.store.metrics()
    }

    fn finish(&self, mode: RunMode) {
        for shard in &self.shared.shards {
            let mut state = shard.queue.lock();
            if state.mode == RunMode::Run {
                state.mode = mode;
            }
            drop(state);
            shard.work.notify_all();
        }
        let handles: Vec<std::thread::JoinHandle<()>> = {
            let mut workers = self.workers.lock();
            workers.drain(..).collect()
        };
        for worker in handles {
            // pbc-allow(panic): an applier panic left its shard's writers unanswered; surfacing it beats a silent shutdown
            worker.join().expect("router applier panicked");
        }
    }

    /// Graceful shutdown: apply everything queued, then stop. New
    /// submissions fail with [`ServeError::Shutdown`]. Idempotent (and
    /// a no-op after [`Router::abort`]); also what `Drop` does.
    pub fn shutdown(&self) {
        self.finish(RunMode::Drain);
    }

    /// Crash-shaped shutdown: queued-but-unapplied writes fail with
    /// [`ServeError::Shutdown`] (never silently dropped), appliers stop
    /// without flushing anything. The WAL crash tests use this to model
    /// a process death with a router batch in flight — acknowledged
    /// writes must still be recoverable from the store's log. The first
    /// shutdown-shaped call wins; later ones are no-ops.
    pub fn abort(&self) {
        self.finish(RunMode::Abort);
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.finish(RunMode::Drain);
    }
}
