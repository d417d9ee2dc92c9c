//! Runtime statistics of a compressor instance.
//!
//! The production integration (Section 7.5) monitors the share of records
//! that fail to match any pattern; when it exceeds a threshold, re-sampling
//! and re-training is triggered. A shared compressor is used concurrently
//! from a store's worker threads, so the counters must not become the one
//! cache line every compress writes: each thread counts in its own
//! cache-line-aligned slot (a thread picks its slot once, round robin, and
//! threads beyond the slot count share slots, still exactly, through
//! atomic adds). [`CompressionStats::snapshot`] sums the slots and
//! [`CompressionStats::reset`] zeroes all of them.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Slots per [`CompressionStats`]: enough that the threads of one store
/// seldom share one.
const SLOTS: usize = 16;

/// Hands out slot indices, one per thread, round robin.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The slot this thread counts in, in every [`CompressionStats`].
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
}

/// One thread's counters, alone on its cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Slot {
    records: AtomicU64,
    outliers: AtomicU64,
}

/// Atomic counters describing the work a [`crate::compressor::PbcCompressor`]
/// has performed since creation (or the last [`CompressionStats::reset`]).
#[derive(Debug)]
pub struct CompressionStats {
    slots: Box<[Slot]>,
}

impl Default for CompressionStats {
    fn default() -> Self {
        CompressionStats {
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
        }
    }
}

/// A plain snapshot of [`CompressionStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Records compressed.
    pub records: u64,
    /// Records stored as outliers (no matching pattern).
    pub outliers: u64,
}

impl StatsSnapshot {
    /// Fraction of records stored as outliers.
    pub fn outlier_rate(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.outliers as f64 / self.records as f64
        }
    }
}

impl CompressionStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one compressed record.
    pub fn record(&self, outlier: bool) {
        let slot = &self.slots[SLOT.with(|&slot| slot)];
        slot.records.fetch_add(1, Ordering::Relaxed);
        if outlier {
            slot.outliers.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Take a consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.slots.iter().fold(
            StatsSnapshot {
                records: 0,
                outliers: 0,
            },
            |sum, slot| StatsSnapshot {
                records: sum.records + slot.records.load(Ordering::Relaxed),
                outliers: sum.outliers + slot.outliers.load(Ordering::Relaxed),
            },
        )
    }

    /// Zero all counters (used after re-training).
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.records.store(0, Ordering::Relaxed);
            slot.outliers.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// `threads` threads each recording `per_thread` records, every other
    /// one an outlier.
    fn record_concurrently(stats: &Arc<CompressionStats>, threads: usize, per_thread: usize) {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let stats = Arc::clone(stats);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        stats.record(i % 2 == 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = CompressionStats::new();
        stats.record(false);
        stats.record(true);
        let snap = stats.snapshot();
        assert_eq!(snap.records, 2);
        assert_eq!(snap.outliers, 1);
        assert!((snap.outlier_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_neutral_ratios() {
        let snap = CompressionStats::new().snapshot();
        assert_eq!(snap.outlier_rate(), 0.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let stats = CompressionStats::new();
        stats.record(true);
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(snap.records, 0);
        assert_eq!(snap.outliers, 0);
    }

    #[test]
    fn counters_are_safe_under_concurrent_updates() {
        let stats = Arc::new(CompressionStats::new());
        record_concurrently(&stats, 4, 1000);
        let snap = stats.snapshot();
        assert_eq!(snap.records, 4000);
        assert_eq!(snap.outliers, 2000);
    }

    #[test]
    fn more_threads_than_slots_still_count_exactly() {
        let stats = Arc::new(CompressionStats::new());
        record_concurrently(&stats, SLOTS + 3, 100);
        let snap = stats.snapshot();
        assert_eq!(snap.records, (SLOTS as u64 + 3) * 100);
        assert_eq!(snap.outliers, (SLOTS as u64 + 3) * 50);
    }

    #[test]
    fn reset_after_concurrent_updates_reads_zero() {
        let stats = Arc::new(CompressionStats::new());
        record_concurrently(&stats, 4, 1000);
        assert_eq!(stats.snapshot().records, 4000);
        stats.reset();
        assert_eq!(
            stats.snapshot(),
            StatsSnapshot {
                records: 0,
                outliers: 0
            }
        );
        // The slots still count after a reset.
        record_concurrently(&stats, 2, 10);
        assert_eq!(stats.snapshot().records, 20);
    }
}
