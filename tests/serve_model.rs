//! Property test: random interleaved multi-tenant op sequences through
//! the [`pbc::serve::Router`] are observationally identical to
//! independent per-tenant `BTreeMap` oracles.
//!
//! Three tenants share one store and reuse the same user keys, and every
//! op's outcome (value, existence, scanned rows) must match an oracle
//! that never shares anything. That proves two things at once: no
//! cross-tenant leakage (each oracle is private), and acknowledged
//! writes are always readable. The store runs with a tiny watermark so
//! sequences cross the hot/cold boundary mid-run.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use pbc::serve::{Router, ServeConfig, TenantQuota};
use pbc::tier::{TierConfig, TieredStore};

mod support;
use support::temp_dir;

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn router_matches_per_tenant_oracles(
        ops in vec((0usize..3, 0u8..8, 0usize..24, 0usize..120), 20..120)
    ) {
        let (dir, _guard) = temp_dir("serve-model");
        let store = Arc::new(
            TieredStore::open(
                TierConfig::new(&dir).with_watermark(2 * 1024), // spills mid-sequence
            )
            .unwrap(),
        );
        // Generous admission thresholds: this test isolates tenant
        // semantics, so backpressure must never fire (ops are sequential,
        // so at most one write is ever in flight).
        let router = Router::start(
            Arc::clone(&store),
            ServeConfig::default()
                .with_shards(3)
                .with_l0_backpressure(10_000)
                .with_memory_slack(1_000.0),
        )
        .unwrap();
        let mut oracles: BTreeMap<&str, BTreeMap<Vec<u8>, Vec<u8>>> = BTreeMap::new();
        for tenant in TENANTS {
            router.create_tenant(tenant, TenantQuota::unlimited()).unwrap();
            oracles.insert(tenant, BTreeMap::new());
        }

        for (step, &(tenant_idx, action, key_idx, value_len)) in ops.iter().enumerate() {
            let tenant = TENANTS[tenant_idx];
            let oracle = oracles.get_mut(tenant).unwrap();
            let key = format!("key-{key_idx:02}").into_bytes();
            let ctx = format!("step {step}, tenant {tenant}");
            match action {
                // Puts dominate so overwrites and spills get exercised.
                0..=3 => {
                    let value = vec![b'a' + (key_idx % 26) as u8; value_len];
                    router.put(tenant, &key, &value).unwrap();
                    oracle.insert(key, value);
                }
                4 | 5 => {
                    let value = router.get(tenant, &key).unwrap();
                    prop_assert_eq!(
                        value.as_deref(),
                        oracle.get(&key).map(|v| v.as_slice()),
                        "{}: get disagrees with the oracle", ctx
                    );
                }
                6 => {
                    let existed = router.delete(tenant, &key).unwrap();
                    prop_assert_eq!(
                        existed, oracle.remove(&key).is_some(),
                        "{}: delete disagrees with the oracle", ctx
                    );
                }
                _ => {
                    // A bounded scan from this key: the rows at or after
                    // it, in order, and only this tenant's.
                    let limit = value_len % 8 + 1;
                    let rows = router.scan(tenant, &key, limit).unwrap();
                    let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                        .range(key.clone()..)
                        .take(limit)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(rows, want, "{}: scan disagrees with the oracle", ctx);
                }
            }
        }

        // Full-state read-back: each tenant sees exactly its own oracle's
        // contents — every acked write, nothing deleted, and (since all
        // tenants reuse the same user keys) nothing leaked across
        // namespaces.
        for tenant in TENANTS {
            let rows = router.scan(tenant, b"", 1_000).unwrap();
            let want: Vec<(Vec<u8>, Vec<u8>)> = oracles[tenant]
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(rows, want, "{} scan disagrees with its oracle", tenant);
        }
        router.shutdown();
    }
}
