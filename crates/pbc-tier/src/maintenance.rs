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
//! generation-stamped manifest swap as everything else. Jobs reserve
//! their key range rather than holding a global compaction lock, so the
//! thread composes with concurrent
//! [`crate::TieredStore::run_pending_compactions`] callers: work over
//! disjoint key ranges runs and commits in parallel, and a plan that
//! loses the reservation race is simply replanned on the next pass.
//!
//! Lifecycle: [`MaintSignal::request_shutdown`] (called from the store's
//! `Drop`) wakes the thread and makes it exit after at most one in-flight
//! job; the store then joins the handle, so dropping a `TieredStore` never
//! leaks the thread. Pausing ([`crate::TieredStore::pause_compaction`])
//! stops *new* jobs from starting and returns once the current one, if
//! any, has committed: after it returns the generation holds still.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// Wakeup/shutdown/pause coordination between the store and its
/// maintenance thread.
#[derive(Default)]
pub(crate) struct MaintSignal {
    /// Under one mutex, so a notification just before `wait` is never
    /// lost and a pause never misses a pass that is starting.
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
    /// A background pass is running (see [`MaintSignal::start_pass`]).
    busy: bool,
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

    /// Stop new passes, then wait for the running one (its current job
    /// included) to end.
    pub(crate) fn pause(&self) {
        self.pause_depth.fetch_add(1, Ordering::SeqCst);
        let mut state = self.state.lock();
        while state.busy {
            self.cv.wait(&mut state);
        }
    }

    /// Mark a background pass as running, unless paused. The pass ends
    /// when the guard drops. `busy` is set before the pause check and
    /// read after the pause count rises, so [`Self::pause`] either waits
    /// for this pass or this pass sees the pause.
    fn start_pass(&self) -> Option<PassGuard<'_>> {
        self.state.lock().busy = true;
        let guard = PassGuard(self);
        (!self.is_paused()).then_some(guard)
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

/// A running background pass; dropping it wakes any waiting pause.
struct PassGuard<'a>(&'a MaintSignal);

impl Drop for PassGuard<'_> {
    fn drop(&mut self) {
        self.0.state.lock().busy = false;
        self.0.cv.notify_all();
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
pub(crate) fn maintenance_loop(inner: std::sync::Arc<crate::store::TierInner>) {
    let tick = inner.config.maintenance_tick;
    let mut error_streak = 0u32;
    loop {
        let wait = tick
            .saturating_mul(1u32 << error_streak.min(8))
            .min(MAX_ERROR_BACKOFF.max(tick));
        if inner.maint.wait(wait) {
            return;
        }
        let Some(_pass) = inner.maint.start_pass() else {
            continue;
        };
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
