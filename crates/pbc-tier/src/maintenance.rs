//! The background maintenance thread: incremental compaction off the hot
//! path.
//!
//! When [`crate::TierConfig::background_compaction`] is on, the store owns
//! one thread running [`maintenance_loop`]. It sleeps on a condvar with a
//! periodic tick, wakes eagerly whenever a spill commits a new segment,
//! asks the [`crate::planner::CompactionPlanner`] whether any trigger
//! threshold is crossed, and runs the planned jobs one bounded merge at a
//! time — reads and spills continue throughout, because jobs operate on a
//! snapshot of the segment set and commit through the same
//! generation-stamped manifest swap as everything else. There is one
//! compactor at a time: each job runs under the store's `compactor` lock.
//! [`crate::TieredStore::compact`] pauses the thread before it takes that
//! lock, so a busy thread cannot starve it;
//! [`crate::TieredStore::run_pending_compactions`] takes the lock only
//! when it is free.
//!
//! Lifecycle: [`MaintSignal::request_shutdown`] (called from the store's
//! `Drop`) wakes the thread and makes it exit after at most one in-flight
//! job; the store then joins the handle, so dropping a `TieredStore` never
//! leaks the thread. Pausing ([`crate::TieredStore::pause_compaction`])
//! raises the pause depth, then takes and drops the `compactor` lock. The
//! thread checks the depth under that lock before every job, so new jobs
//! stop and the pause returns once the current one, if any, has
//! committed: after it returns no background job commits until the
//! matching resume.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::store::TierInner;

/// Wakeup/shutdown/pause coordination between the store and its
/// maintenance thread.
#[derive(Default)]
pub(crate) struct MaintSignal {
    /// Under one mutex, so a notification just before `wait` is never
    /// lost.
    state: Mutex<MaintState>,
    cv: Condvar,
    /// Pause depth: jobs only start at 0. A counter (not a flag) lets
    /// nested pause/resume pairs compose.
    pause_depth: AtomicUsize,
}

#[derive(Default)]
struct MaintState {
    /// Wakeups since the thread last looked.
    pending: u64,
    shutdown: bool,
}

impl MaintSignal {
    /// Wake the thread now (a spill just added a segment).
    pub(crate) fn notify(&self) {
        let mut state = self.state.lock();
        state.pending += 1;
        self.cv.notify_all();
    }

    /// Ask the thread to exit and wake it.
    pub(crate) fn request_shutdown(&self) {
        let mut state = self.state.lock();
        state.shutdown = true;
        self.cv.notify_all();
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.state.lock().shutdown
    }

    pub(crate) fn resume(&self) {
        // Saturating decrement: an unmatched resume is a caller bug, but
        // wrapping to usize::MAX would silently pause the thread forever —
        // ignore the extra call instead (and say so in debug builds).
        let result = self
            .pause_depth
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |depth| {
                depth.checked_sub(1)
            });
        match result {
            Ok(1) => self.notify(), // outermost resume: wake the thread
            Ok(_) => {}
            Err(_) => debug_assert!(false, "resume without matching pause"),
        }
    }

    pub(crate) fn is_paused(&self) -> bool {
        self.pause_depth.load(Ordering::SeqCst) > 0
    }

    /// Sleep until notified, shut down, or `tick` elapses. Returns whether
    /// shutdown was requested.
    fn wait(&self, tick: Duration) -> bool {
        let mut state = self.state.lock();
        if state.shutdown {
            return true;
        }
        if state.pending == 0 {
            self.cv.wait_for(&mut state, tick);
        }
        state.pending = 0; // consume pending wakeups; the pass below re-checks
        state.shutdown
    }
}

/// The `compactor` lock held on the caller's thread with the maintenance
/// thread paused; dropping it resumes the thread, on error paths too.
pub(crate) struct CallerCompactor<'a> {
    maint: &'a MaintSignal,
    _compactor: MutexGuard<'a, ()>,
}

impl Drop for CallerCompactor<'_> {
    fn drop(&mut self) {
        self.maint.resume();
    }
}

impl TierInner {
    /// Stop the maintenance thread from starting new jobs, and return
    /// once its running job, if any, has committed (see the
    /// [module docs](self)).
    pub(crate) fn pause_maintenance(&self) {
        self.maint.pause_depth.fetch_add(1, Ordering::SeqCst);
        drop(self.compactor_guard());
    }

    /// Pause the maintenance thread and take the `compactor` lock, for
    /// [`crate::TieredStore::compact`].
    // lock-wrapper: caller_compactor = store.compactor
    pub(crate) fn caller_compactor(&self) -> CallerCompactor<'_> {
        self.pause_maintenance();
        CallerCompactor {
            maint: &self.maint,
            _compactor: self.compactor_guard(),
        }
    }
}

/// The thread body: tick, plan, run, repeat until shutdown. `inner` is the
/// store's shared state (the thread holds its own `Arc`, released on
/// exit).
///
/// Passes that error (disk full is the likely case — a job writes its
/// output before freeing its inputs) back off exponentially from the base
/// tick up to [`MAX_ERROR_BACKOFF`], so a persistently failing job does
/// not re-run its expensive merge at full tick rate against an already
/// struggling disk. A spill notification still wakes the thread early —
/// new data may change the plan — and the first clean pass resets the
/// backoff.
pub(crate) fn maintenance_loop(inner: std::sync::Arc<TierInner>) {
    let tick = inner.config.maintenance_tick;
    let mut error_streak = 0u32;
    loop {
        let wait = tick
            .saturating_mul(1u32 << error_streak.min(8))
            .min(MAX_ERROR_BACKOFF.max(tick));
        if inner.maint.wait(wait) {
            return;
        }
        // Paused: leave the `compactor` lock alone, so a drain that finds
        // it taken is never turned away by a pass that would do nothing.
        if inner.maint.is_paused() {
            continue;
        }
        if inner.background_pass() {
            error_streak = 0;
        } else {
            error_streak += 1;
        }
    }
}

/// Longest the maintenance thread sleeps between retries of a failing
/// pass (unless the configured tick is even longer).
pub(crate) const MAX_ERROR_BACKOFF: Duration = Duration::from_secs(5);
