//! The shutdown contract: writes from several threads race
//! `Router::shutdown` (or `Router::abort`), and each one ends in exactly
//! one of two ways — `Ok`, and the write is readable; or `Shutdown`, and
//! the key is as before. Once the call has returned (and, for `abort`,
//! the writers it raced have returned), nothing is in flight and every
//! later write is refused.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use pbc_serve::{Router, ServeConfig, ServeError, TenantQuota};
use pbc_tier::{Durability, TierConfig, TieredStore, WalOptions};

#[path = "../../../tests/support/mod.rs"]
mod support;
use support::temp_dir;

const CLIENTS: usize = 4;
const KEYS_PER_CLIENT: usize = 16;
/// Far more writes than a client makes before the race's call lands; a
/// router that never refuses fails here instead of spinning forever.
const MAX_ROUNDS: usize = 20_000;

fn key(client: usize, i: usize) -> Vec<u8> {
    format!("c{client}-k{i:03}").into_bytes()
}

/// What one client saw: its keys' final values and how many of its
/// writes were refused.
struct ClientRun {
    model: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    refused: u64,
}

/// One client: alternate puts and deletes over its own keys until the
/// router refuses it, checking after every write that it either landed
/// or left the key as it was, and that a write begun after the race's
/// `finish` call returned was refused.
fn client(router: &Router, client: usize, acked: &AtomicUsize, finished: &AtomicBool) -> ClientRun {
    let mut run = ClientRun {
        model: (0..KEYS_PER_CLIENT)
            .map(|i| (key(client, i), Some(b"initial".to_vec())))
            .collect(),
        refused: 0,
    };
    for round in 0..MAX_ROUNDS {
        let k = key(client, round % KEYS_PER_CLIENT);
        let before = run.model[&k].clone();
        let late = finished.load(Ordering::SeqCst);
        let (result, after) = if round % 3 == 2 {
            (router.delete("tenant", &k).map(|_| ()), None)
        } else {
            let value = format!("c{client}-r{round}").into_bytes();
            (router.put("tenant", &k, &value).map(|_| ()), Some(value))
        };
        let expected = match result {
            Ok(()) if late => {
                panic!("client {client} round {round}: a write after the call was acked")
            }
            Ok(()) => {
                acked.fetch_add(1, Ordering::Relaxed);
                run.model.insert(k.clone(), after.clone());
                after
            }
            Err(ServeError::Shutdown) => {
                run.refused += 1;
                before
            }
            Err(other) => panic!("only Ok or Shutdown expected, got {other}"),
        };
        assert_eq!(
            router.get("tenant", &k).expect("get"),
            expected,
            "client {client} round {round}: the write must land on Ok and leave no trace on Shutdown"
        );
        if run.refused == 3 {
            return run;
        }
    }
    panic!("client {client}: {MAX_ROUNDS} writes and never refused");
}

/// Race `CLIENTS` writers against `finish`, then check every outcome.
fn race(name: &str, finish: fn(&Router)) {
    let (dir, _guard) = temp_dir(name);
    // PerBatch: each write waits for an fsync, so writes are in flight
    // when `finish` lands.
    let store = Arc::new(
        TieredStore::open(
            TierConfig::new(&dir).with_wal(WalOptions::with_durability(Durability::PerBatch)),
        )
        .expect("open store"),
    );
    let router = Router::start(store, ServeConfig::default().with_shards(2)).expect("start");
    router
        .create_tenant("tenant", TenantQuota::unlimited())
        .expect("create tenant");
    for client in 0..CLIENTS {
        for i in 0..KEYS_PER_CLIENT {
            router
                .put("tenant", &key(client, i), b"initial")
                .expect("setup put");
        }
    }

    let acked = AtomicUsize::new(0);
    let finished = AtomicBool::new(false);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let (router, acked, finished) = (&router, &acked, &finished);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(router, c, acked, finished)))
            .collect();
        while acked.load(Ordering::Relaxed) < 50 {
            std::thread::yield_now();
        }
        finish(router);
        finished.store(true, Ordering::SeqCst);
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    assert_eq!(
        router.queue_depth(),
        0,
        "nothing in flight once the race is over"
    );
    assert_eq!(
        router.metrics().snapshot().gauges["pbc_serve_queue_depth"],
        0
    );

    // Every key holds exactly what its client's acked writes left there:
    // no refused write landed after its client checked it.
    for run in &runs {
        for (k, v) in &run.model {
            assert_eq!(
                &router.get("tenant", k).expect("get"),
                v,
                "key {}",
                String::from_utf8_lossy(k)
            );
        }
    }

    // Every later write is refused and changes nothing.
    let k = key(0, 0);
    let value = router.get("tenant", &k).expect("get");
    assert!(matches!(
        router.put("tenant", &k, b"late"),
        Err(ServeError::Shutdown)
    ));
    assert!(matches!(
        router.delete("tenant", &k),
        Err(ServeError::Shutdown)
    ));
    assert!(matches!(
        router.put("tenant", b"new-key", b"late"),
        Err(ServeError::Shutdown)
    ));
    assert_eq!(router.get("tenant", &k).expect("get"), value);
    assert_eq!(router.get("tenant", b"new-key").expect("get"), None);
}

#[test]
fn writes_racing_shutdown_land_or_leave_no_trace() {
    race("race-shutdown", |router| {
        router.shutdown();
        assert_eq!(
            router.queue_depth(),
            0,
            "shutdown returns only once every admitted write has returned"
        );
    });
}

#[test]
fn writes_racing_abort_land_or_leave_no_trace() {
    race("race-abort", Router::abort);
}
