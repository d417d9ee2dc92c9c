//! Admission-control lifecycle: saturate the router until backpressure
//! engages, verify the discipline (typed `Busy`, bounded queues, no
//! silent drops), drain the backlog, and verify writes flow again.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pbc_serve::{BusyReason, Router, ServeConfig, ServeError, TenantQuota};
use pbc_tier::{TierConfig, TieredStore};

#[path = "../../../tests/support/mod.rs"]
mod support;
use support::temp_dir;

const L0_LIMIT: u64 = 4;
const SHARDS: usize = 2;
const QUEUE_CAPACITY: usize = 64;

fn saturating_router(dir: &Path) -> Router {
    // Tiny watermark so writes spill constantly; no background compaction,
    // so L0 segments pile up until the router's backlog gate trips.
    let store = Arc::new(
        TieredStore::open(
            TierConfig::new(dir)
                .with_watermark(8 * 1024)
                .with_background_compaction(false),
        )
        .expect("open store"),
    );
    let config = ServeConfig::default()
        .with_shards(SHARDS)
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_max_batch(8)
        .with_l0_backpressure(L0_LIMIT)
        .with_retry_after(Duration::from_millis(2));
    Router::start(store, config).expect("start router")
}

#[test]
fn saturation_engages_admission_then_recovers() {
    let (dir, _guard) = temp_dir("lifecycle");
    let router = Arc::new(saturating_router(&dir));
    router
        .create_tenant("tenant", TenantQuota::unlimited())
        .expect("create tenant");

    // Phase 1 — saturate: concurrent writers push ~250-byte values at a
    // store that spills every ~8 KiB. Each thread records exactly which
    // keys were acknowledged and how many writes bounced.
    let stop_sampling = Arc::new(AtomicBool::new(false));
    let max_depth = {
        let router = Arc::clone(&router);
        let stop = Arc::clone(&stop_sampling);
        std::thread::spawn(move || {
            let mut max_depth = 0usize;
            while !stop.load(Ordering::Relaxed) {
                max_depth = max_depth.max(router.queue_depth());
                std::thread::yield_now();
            }
            max_depth
        })
    };
    let mut acked: Vec<Vec<u8>> = Vec::new();
    let mut busy = 0u64;
    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for thread in 0..6 {
            let router = Arc::clone(&router);
            clients.push(scope.spawn(move || {
                let value = vec![b'v'; 250];
                let mut acked = Vec::new();
                let mut busy = 0u64;
                for i in 0..300u32 {
                    let key = format!("k-{thread}-{i:05}").into_bytes();
                    match router.put("tenant", &key, &value) {
                        Ok(_) => acked.push(key),
                        Err(ServeError::Busy {
                            reason,
                            retry_after,
                        }) => {
                            busy += 1;
                            assert!(
                                matches!(
                                    reason,
                                    BusyReason::ColdBacklog
                                        | BusyReason::MemoryPressure
                                        | BusyReason::QueueFull
                                ),
                                "unexpected busy reason {reason:?}"
                            );
                            assert!(retry_after > Duration::ZERO, "retry hint must be usable");
                        }
                        Err(other) => panic!("only Ok or Busy expected, got {other}"),
                    }
                }
                (acked, busy)
            }));
        }
        for client in clients {
            let (client_acked, client_busy) = client.join().expect("client thread");
            acked.extend(client_acked);
            busy += client_busy;
        }
    });
    stop_sampling.store(true, Ordering::Relaxed);
    let max_depth = max_depth.join().expect("sampler thread");

    assert!(busy > 0, "the saturation load must trip admission control");
    assert!(
        !acked.is_empty(),
        "some writes must land before the backlog builds"
    );
    assert!(
        max_depth <= SHARDS * QUEUE_CAPACITY,
        "queue depth {max_depth} exceeded the configured bound"
    );

    // No silent drops: every acknowledged write is readable; rejections
    // were surfaced as typed errors AND counted in the metric.
    for key in &acked {
        assert!(
            router.get("tenant", key).expect("get acked key").is_some(),
            "acked key {:?} must be readable",
            String::from_utf8_lossy(key)
        );
    }
    let snapshot = router.metrics().snapshot();
    assert_eq!(
        snapshot.counters["pbc_serve_admission_rejections_total"], busy,
        "every Busy must be counted, nothing double-counted"
    );
    assert_eq!(
        snapshot.counters["pbc_serve_puts_total"],
        acked.len() as u64
    );
    assert!(snapshot.counters["pbc_serve_batches_total"] > 0);

    // Phase 2 — drain: compact the L0 backlog away (what the background
    // maintenance thread would do in a real deployment; the full merge
    // clears L0 in one deterministic step).
    let store = Arc::clone(router.store());
    store.compact().expect("compact backlog");
    assert!(
        store.write_pressure().l0_segments < L0_LIMIT,
        "compaction must clear the L0 backlog"
    );

    // Phase 3 — recovered: a modest follow-up load (too small to rebuild
    // the backlog) is admitted in full.
    let value = vec![b'w'; 100];
    for i in 0..50u32 {
        let key = format!("post-{i:04}").into_bytes();
        router
            .put("tenant", &key, &value)
            .expect("writes must flow again after the backlog drains");
    }
    assert_eq!(router.queue_depth(), 0, "acked writes leave no residue");

    let snapshot = router.metrics().snapshot();
    assert_eq!(snapshot.gauges["pbc_serve_queue_depth"], 0);

    router.shutdown();
}

#[test]
fn rejections_have_no_side_effects() {
    let (dir, _guard) = temp_dir("no-side-effects");
    let router = saturating_router(&dir);
    router
        .create_tenant("tenant", TenantQuota::unlimited())
        .expect("create tenant");

    // Build an L0 backlog past the gate with direct store writes (the
    // router's own writes would start bouncing part-way).
    let store = Arc::clone(router.store());
    let value = vec![b'x'; 400];
    for i in 0..200u32 {
        store
            .set(format!("raw-{i:05}").as_bytes(), &value)
            .expect("direct store write");
    }
    assert!(
        store.write_pressure().l0_segments >= L0_LIMIT,
        "setup must exceed the backlog gate"
    );

    let before = router.usage("tenant").expect("usage");
    let err = router.put("tenant", b"bounced", b"value").unwrap_err();
    assert!(matches!(err, ServeError::Busy { .. }), "got {err}");
    let after = router.usage("tenant").expect("usage");
    assert_eq!(
        before, after,
        "a Busy rejection must not change quota accounting"
    );
    assert_eq!(
        router.get("tenant", b"bounced").expect("get"),
        None,
        "a Busy rejection must not reach the store"
    );
    router.shutdown();
}
