//! Key-range reservations. Owns which compaction jobs may run at the same
//! time: active ranges and waiting claims exclude new overlapping work,
//! and ticket order queues blocking waiters instead of deadlocking them.

use parking_lot::{Condvar, Mutex};

use crate::planner::KeyRange;

/// In-flight compaction key-range reservations. A job reserves the union
/// interval of its inputs (and therefore of its outputs) before merging;
/// jobs with disjoint intervals touch disjoint segments, so they run and
/// commit concurrently.
///
/// A blocking waiter registers its claim as **pending** before it waits:
/// pending claims conflict with new `try_reserve` calls (so a stream of
/// background jobs cannot starve a full compaction forever) but a waiter
/// itself only waits on active reservations and on pending claims with
/// an *older* ticket — ticket order makes two blocking waiters queue
/// instead of deadlocking on each other's claims.
#[derive(Default)]
pub(crate) struct ReservationTable {
    inner: Mutex<ReservedSet>,
    released: Condvar,
}

#[derive(Default)]
struct ReservedSet {
    next_ticket: u64,
    /// Ranges held by running jobs.
    active: Vec<(u64, KeyRange)>,
    /// Claims of blocked `reserve_blocking` callers, awaiting their turn.
    pending: Vec<(u64, KeyRange)>,
}

impl ReservedSet {
    /// Whether `range` conflicts as seen by a *new* claim: active
    /// reservations and every pending claim block it.
    fn conflicts_any(&self, range: &KeyRange) -> bool {
        self.active.iter().any(|(_, r)| r.overlaps(range))
            || self.pending.iter().any(|(_, r)| r.overlaps(range))
    }

    /// Whether the pending claim `ticket` must keep waiting: active
    /// reservations, plus pending claims queued before it.
    fn blocks_pending(&self, ticket: u64, range: &KeyRange) -> bool {
        self.active.iter().any(|(_, r)| r.overlaps(range))
            || self
                .pending
                .iter()
                .any(|(t, r)| *t < ticket && r.overlaps(range))
    }

    fn claim_ticket(&mut self) -> u64 {
        self.next_ticket += 1;
        self.next_ticket
    }
}

/// RAII release for one reserved range.
pub(crate) struct ReservationGuard<'a> {
    table: &'a ReservationTable,
    ticket: u64,
}

impl Drop for ReservationGuard<'_> {
    fn drop(&mut self) {
        self.table
            .inner
            .lock()
            .active
            .retain(|(ticket, _)| *ticket != self.ticket);
        self.table.released.notify_all();
    }
}

impl ReservationTable {
    /// Reserve `range` if it conflicts with no in-flight reservation and
    /// no waiting claim (waiters would starve otherwise).
    pub(crate) fn try_reserve(&self, range: KeyRange) -> Option<ReservationGuard<'_>> {
        let mut set = self.inner.lock();
        if set.conflicts_any(&range) {
            return None;
        }
        let ticket = set.claim_ticket();
        set.active.push((ticket, range));
        Some(ReservationGuard {
            table: self,
            ticket,
        })
    }

    /// Reserve `range`, waiting for conflicting reservations to release
    /// (used by the full [`crate::TieredStore::compact`], which needs the
    /// whole key space). The claim is registered immediately, so new
    /// `try_reserve` calls over the range fail while this caller waits.
    pub(crate) fn reserve_blocking(&self, range: KeyRange) -> ReservationGuard<'_> {
        let mut set = self.inner.lock();
        let ticket = set.claim_ticket();
        set.pending.push((ticket, range.clone()));
        while set.blocks_pending(ticket, &range) {
            self.released.wait(&mut set);
        }
        set.pending.retain(|(t, _)| *t != ticket);
        set.active.push((ticket, range));
        ReservationGuard {
            table: self,
            ticket,
        }
    }

    /// Every claimed range, active and pending alike (what the planner
    /// must avoid proposing jobs over).
    pub(crate) fn snapshot(&self) -> Vec<KeyRange> {
        let set = self.inner.lock();
        set.active
            .iter()
            .chain(set.pending.iter())
            .map(|(_, r)| r.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn range(min: &[u8], max: &[u8]) -> KeyRange {
        KeyRange::bounded(min.to_vec(), max.to_vec())
    }

    #[test]
    fn disjoint_reservations_coexist_and_overlapping_ones_exclude() {
        let table = ReservationTable::default();
        let a = table.try_reserve(range(b"a", b"f")).expect("first");
        let b = table.try_reserve(range(b"g", b"k")).expect("disjoint");
        assert!(
            table.try_reserve(range(b"e", b"h")).is_none(),
            "overlaps both in-flight ranges"
        );
        assert_eq!(table.snapshot().len(), 2);
        drop(a);
        let c = table
            .try_reserve(range(b"e", b"f"))
            .expect("released range is free again");
        drop(b);
        drop(c);
        assert!(table.snapshot().is_empty());
    }

    #[test]
    fn blocking_reservation_waits_for_conflicts_to_release() {
        let table = Arc::new(ReservationTable::default());
        let guard = table.try_reserve(KeyRange::everything()).expect("free");
        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let _all = table.reserve_blocking(KeyRange::everything());
                // Reserved only after the conflicting guard dropped.
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "waiter must block while reserved");
        drop(guard);
        waiter.join().expect("waiter completes after release");
    }

    #[test]
    fn a_waiting_claim_blocks_new_try_reserves_so_it_cannot_starve() {
        let table = Arc::new(ReservationTable::default());
        let job = table.try_reserve(range(b"a", b"f")).expect("free");
        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let _all = table.reserve_blocking(KeyRange::everything());
            })
        };
        // Wait until the whole-key-space claim is registered as pending.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while table.snapshot().len() < 2 {
            assert!(std::time::Instant::now() < deadline, "claim registered");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // A stream of new jobs can no longer slip past the waiter — even
        // over ranges disjoint from every *active* reservation.
        assert!(
            table.try_reserve(range(b"x", b"z")).is_none(),
            "pending whole-key-space claim blocks new reservations"
        );
        drop(job);
        waiter
            .join()
            .expect("waiter acquires once active work drains");
        let after = table.try_reserve(range(b"x", b"z"));
        assert!(after.is_some(), "released claim frees the range again");
    }
}
