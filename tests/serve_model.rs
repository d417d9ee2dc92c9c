//! Property test: random interleaved multi-tenant op sequences through
//! the [`pbc::serve::Router`] are observationally identical to
//! independent per-tenant `BTreeMap` oracles.
//!
//! Three tenants share one store — one unlimited, one byte-capped, one
//! op-capped with periodic window resets — and every op's outcome
//! (value, existence, *and* quota verdict) must match an oracle that
//! never shares anything. That proves three things at once: no
//! cross-tenant leakage (each oracle is private), acknowledged writes
//! are always readable, and quota accounting is exact to the byte/op.
//! The store runs with a tiny watermark so sequences cross the
//! hot/cold boundary mid-run.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use pbc::serve::{QuotaKind, Router, ServeConfig, ServeError, TenantQuota};
use pbc::tier::{TierConfig, TieredStore};

mod support;
use support::temp_dir;

/// What a quota-checked op should do, per the oracle.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Admit,
    RejectOps,
    RejectBytes,
}

/// An independent single-tenant oracle mirroring the router's documented
/// quota semantics exactly: ops checked before bytes, overwrites charge
/// the delta, deletes credit the freed size, rejections change nothing.
struct TenantOracle {
    data: BTreeMap<Vec<u8>, Vec<u8>>,
    max_bytes: Option<u64>,
    max_ops: Option<u64>,
    live_bytes: u64,
    ops: u64,
}

impl TenantOracle {
    fn new(max_bytes: Option<u64>, max_ops: Option<u64>) -> TenantOracle {
        TenantOracle {
            data: BTreeMap::new(),
            max_bytes,
            max_ops,
            live_bytes: 0,
            ops: 0,
        }
    }

    fn ops_available(&self) -> bool {
        self.max_ops.is_none_or(|max| self.ops < max)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Verdict {
        if !self.ops_available() {
            return Verdict::RejectOps;
        }
        let charge = (key.len() + value.len()) as u64;
        let previous = self.data.get(key).map(|v| (key.len() + v.len()) as u64);
        let projected = self.live_bytes - previous.unwrap_or(0) + charge;
        if self.max_bytes.is_some_and(|max| projected > max) {
            return Verdict::RejectBytes;
        }
        self.ops += 1;
        self.live_bytes = projected;
        self.data.insert(key.to_vec(), value.to_vec());
        Verdict::Admit
    }

    fn read(&mut self) -> Verdict {
        if !self.ops_available() {
            return Verdict::RejectOps;
        }
        self.ops += 1;
        Verdict::Admit
    }

    /// `Some(existed)` if admitted.
    fn delete(&mut self, key: &[u8]) -> Option<bool> {
        if !self.ops_available() {
            return None;
        }
        self.ops += 1;
        match self.data.remove(key) {
            Some(value) => {
                self.live_bytes -= (key.len() + value.len()) as u64;
                Some(true)
            }
            None => Some(false),
        }
    }
}

fn assert_quota_error(err: &ServeError, want: &Verdict, ctx: &str) {
    match (err, want) {
        (
            ServeError::QuotaExceeded {
                kind: QuotaKind::Ops,
                ..
            },
            Verdict::RejectOps,
        )
        | (
            ServeError::QuotaExceeded {
                kind: QuotaKind::Bytes,
                ..
            },
            Verdict::RejectBytes,
        ) => {}
        _ => panic!("{ctx}: oracle says {want:?} but router said {err}"),
    }
}

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
const BETA_MAX_BYTES: u64 = 600;
const GAMMA_MAX_OPS: u64 = 12;

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
        // Generous admission thresholds: this test isolates tenant/quota
        // semantics, so backpressure must never fire (ops are sequential,
        // so queues hold at most one write anyway).
        let router = Router::start(
            Arc::clone(&store),
            ServeConfig::default()
                .with_shards(3)
                .with_max_batch(4)
                .with_l0_backpressure(10_000)
                .with_memory_slack(1_000.0),
        )
        .unwrap();
        let mut oracles: BTreeMap<&str, TenantOracle> = BTreeMap::new();
        router.create_tenant("alpha", TenantQuota::unlimited()).unwrap();
        oracles.insert("alpha", TenantOracle::new(None, None));
        router
            .create_tenant("beta", TenantQuota::unlimited().with_max_bytes(BETA_MAX_BYTES))
            .unwrap();
        oracles.insert("beta", TenantOracle::new(Some(BETA_MAX_BYTES), None));
        router
            .create_tenant("gamma", TenantQuota::unlimited().with_max_ops(GAMMA_MAX_OPS))
            .unwrap();
        oracles.insert("gamma", TenantOracle::new(None, Some(GAMMA_MAX_OPS)));

        for (step, &(tenant_idx, action, key_idx, value_len)) in ops.iter().enumerate() {
            let tenant = TENANTS[tenant_idx];
            let oracle = oracles.get_mut(tenant).unwrap();
            let key = format!("key-{key_idx:02}").into_bytes();
            let ctx = format!("step {step}, tenant {tenant}");
            match action {
                // Puts dominate so byte quotas and overwrites get exercised.
                0..=3 => {
                    let value = vec![b'a' + (key_idx % 26) as u8; value_len];
                    let verdict = oracle.put(&key, &value);
                    match router.put(tenant, &key, &value) {
                        Ok(_) => prop_assert_eq!(
                            &verdict, &Verdict::Admit,
                            "{}: router admitted a put the oracle rejects", ctx
                        ),
                        Err(e) => assert_quota_error(&e, &verdict, &ctx),
                    }
                }
                4 | 5 => {
                    let verdict = oracle.read();
                    match router.get(tenant, &key) {
                        Ok(value) => {
                            prop_assert_eq!(&verdict, &Verdict::Admit, "{}", ctx);
                            prop_assert_eq!(
                                value.as_deref(),
                                oracle.data.get(&key).map(|v| v.as_slice()),
                                "{}: get disagrees with the oracle", ctx
                            );
                        }
                        Err(e) => assert_quota_error(&e, &verdict, &ctx),
                    }
                }
                6 => {
                    let expect = oracle.delete(&key);
                    match router.delete(tenant, &key) {
                        Ok(existed) => prop_assert_eq!(
                            Some(existed), expect,
                            "{}: delete disagrees with the oracle", ctx
                        ),
                        Err(e) => {
                            prop_assert!(expect.is_none(), "{}: unexpected {}", ctx, e);
                            assert_quota_error(&e, &Verdict::RejectOps, &ctx);
                        }
                    }
                }
                _ => {
                    // The rate-limit driver's tick: fresh op window.
                    router.reset_ops_window(tenant).unwrap();
                    oracle.ops = 0;
                }
            }
        }

        // Quota accounting must be exact, to the byte and to the op.
        for tenant in TENANTS {
            let oracle = &oracles[tenant];
            let usage = router.usage(tenant).unwrap();
            prop_assert_eq!(usage.live_bytes, oracle.live_bytes, "{} bytes", tenant);
            prop_assert_eq!(usage.live_keys, oracle.data.len() as u64, "{} keys", tenant);
            prop_assert_eq!(usage.ops_admitted, oracle.ops, "{} ops", tenant);
        }

        // Full-state read-back: each tenant sees exactly its own oracle's
        // contents — every acked write, nothing deleted, and (since all
        // tenants reuse the same user keys) nothing leaked across
        // namespaces. Fresh op windows first so gamma can scan.
        for tenant in TENANTS {
            router.reset_ops_window(tenant).unwrap();
            let rows = router.scan(tenant, b"", 1_000).unwrap();
            let want: Vec<(Vec<u8>, Vec<u8>)> = oracles[tenant]
                .data
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(rows, want, "{} scan disagrees with its oracle", tenant);
        }
        router.shutdown();
    }
}
