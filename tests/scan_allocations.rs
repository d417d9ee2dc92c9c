//! Allocation bound for a range scan through the router: each returned
//! row costs one key copy and one value copy, plus a constant per scan.
//!
//! The store holds all three kinds of source a scan merges — hot rows
//! (some of them tombstones), one L0 spill segment over part of the range,
//! and L1 partitions under all of it — so the bound covers the hot cut,
//! the cold cursors and the merge that shadows and deletes across them.
//! The router strips the tenant prefix from the store's copy of each key
//! in place, so that copy is the one the caller gets.
//!
//! This file holds exactly one test: the counting allocator is a
//! process-global, and a second concurrently-running test would pollute
//! the count.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use pbc::serve::{Router, ServeConfig, TenantQuota};
use pbc::tier::{TierConfig, TieredStore};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{CountingAllocator, ALLOCATIONS};

mod support;
use support::temp_dir;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const TENANT: &str = "acme";

fn key(i: usize) -> Vec<u8> {
    format!("user:{i:08}").into_bytes()
}

fn value(i: usize, version: &str) -> Vec<u8> {
    format!(
        "{version}|uid={}|dev=android-13|ip=10.0.{}.{}",
        10_000_000 + i * 7,
        i % 256,
        (i * 7) % 256
    )
    .into_bytes()
}

#[test]
fn a_router_scan_allocates_two_per_row_plus_a_constant() {
    const KEYS: usize = 2_000;
    const ROWS: usize = 100;
    // What a scan allocates once, however many rows it returns, counted
    // against the scan below (one hot cut, one L0 segment, one L1
    // partition reached): 17.
    //   router:  the full start key, the tenant's range end, the result
    //            vector pre-sized from the limit                       3
    //   tier:    the scan's one copy of each bound                     2
    //   hot cut: the shard guards, the heap of shard heads, the
    //            snapshot's key buffer and row table, and one doubling
    //            of each when the tombstones in the cut outrun the
    //            limit they were sized from                            6
    //   merge:   the source list, the decode counter, one segment
    //            queue per chain (L0, L1), one boxed block fetch per
    //            opened cursor (L0, L1)                                6
    // The bound allows three more: the trace ring's deque grows now and
    // then while it fills, and a range that crosses an L1 partition
    // boundary opens a second L1 cursor.
    const PER_SCAN: usize = 20;

    let (dir, _guard) = temp_dir("scan-allocations");
    // No maintenance thread, no WAL: this thread is the only one
    // allocating. The cache holds every block, so a warmed scan decodes
    // nothing and its count is the scan's own.
    let config = TierConfig::new(&dir).with_cache_capacity(64 << 20);
    let store = Arc::new(TieredStore::open(config).unwrap());
    let router = Router::start(Arc::clone(&store), ServeConfig::default()).unwrap();
    router
        .create_tenant(TENANT, TenantQuota::unlimited())
        .unwrap();

    // L1: every key, merged down.
    for i in 0..KEYS {
        router.put(TENANT, &key(i), &value(i, "l1")).unwrap();
    }
    store.flush_all().unwrap();
    store.compact().unwrap();
    // L0: every third key rewritten, spilled over the L1 partitions.
    for i in (0..KEYS).step_by(3) {
        router.put(TENANT, &key(i), &value(i, "l0")).unwrap();
    }
    store.flush_all().unwrap();
    // Hot: two in five keys rewritten and one in eleven deleted.
    for i in 0..KEYS {
        if i % 5 < 2 {
            router.put(TENANT, &key(i), &value(i, "hot")).unwrap();
        } else if i % 11 == 0 {
            router.delete(TENANT, &key(i)).unwrap();
        }
    }
    let stats = store.stats();
    assert!(
        stats.l0_segments == 1 && stats.l1_partitions >= 1,
        "{stats:?}"
    );
    assert!(store.hot_len() > 0);

    let start = key(KEYS / 2);
    let expected: Vec<(Vec<u8>, Vec<u8>)> = (KEYS / 2..KEYS)
        .filter(|i| i % 5 < 2 || i % 11 != 0)
        .take(ROWS)
        .map(|i| {
            let version = match i {
                i if i % 5 < 2 => "hot",
                i if i % 3 == 0 => "l0",
                _ => "l1",
            };
            (key(i), value(i, version))
        })
        .collect();
    // Warm the cache with the same scan, and check what it returns.
    assert_eq!(router.scan(TENANT, &start, ROWS).unwrap(), expected);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let rows = router.scan(TENANT, &start, ROWS).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(rows, expected);
    let bound = 2 * rows.len() + PER_SCAN;
    assert!(
        allocations <= bound,
        "{allocations} allocations for a {}-row scan, bound {bound} ({:.2} per row)",
        rows.len(),
        allocations as f64 / rows.len() as f64
    );
}
