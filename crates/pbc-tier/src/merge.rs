//! The newest-wins k-way merge, driven by range scans and compaction jobs
//! alike. Its sources are ranked by recency, as point lookups rank them:
//! the hot cut (scans only), one chain per L0 segment newest first (L0
//! segments may overlap, so all are merged at once), then one chain of L1
//! partitions ascending (disjoint, so at most one is open at a time and
//! later ones are opened only when the merge reaches them).
//!
//! Each round the smallest key held by any source wins from its
//! lowest-ranked (newest) holder: [`Merge::head`] lends that row out, and
//! [`Merge::step`] steps past it and every later holder of the key, whose
//! shadowed versions are never copied. What happens to the winner is the
//! caller's: a scan copies a live one out, a job writes it into its run,
//! and both drop a winning tombstone.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pbc_archive::Scan;
use pbc_store::RangeSnapshot;

use crate::commit::ColdSegment;
use crate::error::Result;
use crate::store::TierInner;

/// The winning row's value, borrowed from its source.
pub(crate) enum Head<'r> {
    /// From the hot cut: the codec-encoded value, `None` for a tombstone.
    Hot(Option<&'r [u8]>),
    /// From a cold segment: the stored value, liveness marker first.
    Cold(&'r [u8]),
}

/// How a chain gets its segments' decoded blocks.
pub(crate) enum Fetch<'a> {
    /// Through the store's cache, as range scans read
    /// ([`TierInner::scan_block`]: the `scan_*` counters, and a publish
    /// only while the pinned `generation` is live); `decoded_blocks`
    /// counts the owning scan's disk decodes.
    Cached {
        inner: &'a TierInner,
        generation: u64,
        decoded_blocks: Arc<AtomicU64>,
    },
    /// Straight from each segment's reader, as compaction jobs read: no
    /// cache admission, no scan counters.
    Direct,
}

/// One ranked merge input, positioned on its current head entry.
pub(crate) enum Source<'a> {
    /// The hot cut: presorted, unique and bounded.
    Hot {
        snapshot: RangeSnapshot,
        /// One past the head row of `snapshot` (0 = not yet on a row).
        next: usize,
    },
    /// Cold segments opened lazily in order, one cursor live at a time,
    /// each bounded to the shared `[start, end]` (`end` inclusive, `None`
    /// unbounded above).
    Chain {
        pending: VecDeque<Arc<ColdSegment>>,
        cursor: Option<Scan<'a>>,
        start: Arc<[u8]>,
        end: Option<Arc<[u8]>>,
        fetch: Fetch<'a>,
    },
}

impl<'a> Source<'a> {
    /// A chain over `pending`, not yet on an entry.
    pub(crate) fn chain(
        pending: VecDeque<Arc<ColdSegment>>,
        start: Arc<[u8]>,
        end: Option<Arc<[u8]>>,
        fetch: Fetch<'a>,
    ) -> Self {
        Source::Chain {
            pending,
            cursor: None,
            start,
            end,
            fetch,
        }
    }

    /// The head entry; `None` once the source is drained.
    fn head(&self) -> Option<(&[u8], Head<'_>)> {
        match self {
            Source::Hot { snapshot, next } => snapshot
                .get(next.checked_sub(1)?)
                .map(|(key, stored)| (key, Head::Hot(stored))),
            Source::Chain { cursor, .. } => cursor
                .as_ref()?
                .current()
                .map(|(key, stored)| (key, Head::Cold(stored))),
        }
    }

    fn key(&self) -> Option<&[u8]> {
        self.head().map(|(key, _)| key)
    }

    /// Step onto the next entry.
    fn advance(&mut self) -> Result<()> {
        match self {
            Source::Hot { next, .. } => *next += 1,
            Source::Chain {
                pending,
                cursor,
                start,
                end,
                fetch,
            } => loop {
                if let Some(open) = cursor {
                    if open.advance()? {
                        break;
                    }
                    *cursor = None;
                }
                let Some(segment) = pending.pop_front() else {
                    break;
                };
                *cursor = Some(fetch.open(segment, Arc::clone(start), end.clone())?);
            },
        }
        Ok(())
    }
}

impl<'a> Fetch<'a> {
    /// A cursor over `segment`'s entries in `[start, end]`, owning the
    /// segment.
    fn open(
        &self,
        segment: Arc<ColdSegment>,
        start: Arc<[u8]>,
        end: Option<Arc<[u8]>>,
    ) -> Result<Scan<'a>> {
        let fetched = Arc::clone(&segment);
        Ok(match self {
            Fetch::Cached {
                inner,
                generation,
                decoded_blocks,
            } => {
                let (inner, generation) = (*inner, *generation);
                let decoded_blocks = Arc::clone(decoded_blocks);
                let cursor = segment.reader.scan_range_with(start, end, move |block| {
                    let (decoded, from_disk) = inner.scan_block(&fetched, block, generation)?;
                    decoded_blocks.fetch_add(u64::from(from_disk), Ordering::Relaxed);
                    Ok(decoded)
                })?;
                inner.obs.scan_segments_opened.inc();
                cursor
            }
            Fetch::Direct => segment.reader.scan_range_with(start, end, move |block| {
                fetched.reader.read_block(block).map(Arc::new)
            })?,
        })
    }
}

/// The merge over ranked sources (see the [module docs](self)).
#[derive(Default)]
pub(crate) struct Merge<'a> {
    /// Ordered by precedence, newest first.
    sources: Vec<Source<'a>>,
    /// The source holding the current winner; `None` once all are drained.
    winner: Option<usize>,
}

impl<'a> Merge<'a> {
    /// Position every source on its first entry.
    pub(crate) fn new(mut sources: Vec<Source<'a>>) -> Result<Self> {
        for source in &mut sources {
            source.advance()?;
        }
        let mut merge = Merge {
            sources,
            winner: None,
        };
        merge.select();
        Ok(merge)
    }

    /// Pick the first source holding the smallest key: sources are in
    /// precedence order and the comparison is strict, so it is the newest
    /// holder. Keys are compared by reference.
    fn select(&mut self) {
        let mut winner: Option<(usize, &[u8])> = None;
        for (i, source) in self.sources.iter().enumerate() {
            if let Some(key) = source.key() {
                if winner.is_none_or(|(_, best)| key < best) {
                    winner = Some((i, key));
                }
            }
        }
        self.winner = winner.map(|(i, _)| i);
    }

    /// The smallest pending key and its newest version, borrowed; `None`
    /// once every source is drained.
    pub(crate) fn head(&self) -> Option<(&[u8], Head<'_>)> {
        self.sources[self.winner?].head()
    }

    /// Step past the winning row and every shadowed version of its key;
    /// returns how many holders it shadowed.
    pub(crate) fn step(&mut self) -> Result<u64> {
        let Some(idx) = self.winner else {
            return Ok(0);
        };
        // Sources before the winner hold larger keys.
        let (head, later) = self.sources.split_at_mut(idx + 1);
        let winner = &mut head[idx];
        let mut shadowed = 0;
        if let Some(key) = winner.key() {
            for source in later.iter_mut().filter(|source| source.key() == Some(key)) {
                source.advance()?;
                shadowed += 1;
            }
        }
        winner.advance()?;
        self.select();
        Ok(shadowed)
    }
}
