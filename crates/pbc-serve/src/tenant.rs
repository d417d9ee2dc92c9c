//! Multi-tenant namespaces: per-tenant key prefixes and byte/op quotas.
//!
//! Every tenant owns a disjoint slice of the shared store's keyspace:
//! user keys are stored under `name ++ 0x00` (names cannot contain NUL,
//! so no tenant's prefix is a prefix of another's), which keeps each
//! tenant's keys contiguous and in user-key order — range scans over a
//! tenant are range scans over the store.
//!
//! Quotas are budgets, checked and charged *before* a request is queued
//! so a rejected request has zero side effects:
//!
//! * **bytes** — live stored bytes (user key + value, summed over the
//!   tenant's live keys). Overwrites re-charge the delta; deletes credit
//!   the freed size back. The router keeps a per-key size map, so the
//!   accounting is exact — what the model test asserts against an
//!   independent oracle.
//! * **ops** — a cumulative admitted-operation budget (puts, deletes,
//!   gets, and scans all consume one). An external rate-limit window
//!   driver tops it up or resets it ([`crate::Router::reset_ops_window`]);
//!   with no driver it is simply a hard cap.
//!
//! Accounting is charged at admission (before the write is queued) and
//! rolled back if the store later fails the write, so under per-key
//! serial submission usage always equals the live state. Two clients
//! racing *the same key* of the same tenant may transiently record the
//! loser's size — the same last-writer-wins ambiguity the store itself
//! has.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use crate::error::{QuotaKind, Result, ServeError};

/// Per-tenant budgets. `None` means unlimited.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantQuota {
    /// Cap on live stored bytes (user key + value, summed over live
    /// keys).
    pub max_bytes: Option<u64>,
    /// Cap on cumulative admitted operations since the last
    /// [`crate::Router::reset_ops_window`].
    pub max_ops: Option<u64>,
}

impl TenantQuota {
    /// No limits at all.
    pub fn unlimited() -> Self {
        TenantQuota::default()
    }

    /// Cap live stored bytes.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Cap admitted operations per window.
    pub fn with_max_ops(mut self, max_ops: u64) -> Self {
        self.max_ops = Some(max_ops);
        self
    }
}

/// A point-in-time view of one tenant's accounting
/// ([`crate::Router::usage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantUsage {
    /// Live stored bytes (user key + value over live keys).
    pub live_bytes: u64,
    /// Live keys.
    pub live_keys: u64,
    /// Operations admitted in the current window.
    pub ops_admitted: u64,
}

/// The mutable accounting state behind one tenant.
#[derive(Debug, Default)]
struct UsageState {
    live_bytes: u64,
    ops_admitted: u64,
    /// Charged size per live user key — what makes overwrite and delete
    /// accounting exact without a read-before-write on the store.
    sizes: BTreeMap<Vec<u8>, u64>,
}

/// Undo information for a charged-but-not-yet-applied put.
#[derive(Debug)]
pub(crate) struct PutCharge {
    /// The key's previous charged size (`None` = the key was new).
    previous: Option<u64>,
}

/// Undo information for a charged-but-not-yet-applied delete.
#[derive(Debug)]
pub(crate) struct DeleteCharge {
    /// The size the delete credited back (`None` = the key was absent).
    freed: Option<u64>,
}

/// One registered tenant: its namespace prefix, quota, and accounting.
#[derive(Debug)]
pub(crate) struct Tenant {
    pub(crate) name: String,
    /// `name ++ 0x00` — prepended to every user key.
    pub(crate) prefix: Vec<u8>,
    quota: TenantQuota,
    usage: Mutex<UsageState>,
}

/// Tenant names are path-safe identifiers: 1–64 chars of `[a-zA-Z0-9_-]`.
pub(crate) fn validate_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(ServeError::InvalidTenantName {
            tenant: name.to_string(),
        })
    }
}

impl Tenant {
    pub(crate) fn new(name: &str, quota: TenantQuota) -> Tenant {
        let mut prefix = name.as_bytes().to_vec();
        prefix.push(0);
        Tenant {
            name: name.to_string(),
            prefix,
            quota,
            usage: Mutex::new(UsageState::default()),
        }
    }

    /// The stored key for one of this tenant's user keys.
    pub(crate) fn full_key(&self, key: &[u8]) -> Vec<u8> {
        let mut full = Vec::with_capacity(self.prefix.len() + key.len());
        full.extend_from_slice(&self.prefix);
        full.extend_from_slice(key);
        full
    }

    /// The exclusive upper bound of this tenant's key range: the prefix
    /// with its trailing NUL bumped to 0x01.
    pub(crate) fn prefix_end(&self) -> Vec<u8> {
        let mut end = self.prefix.clone();
        // pbc-allow(panic): prefix always ends with the 0x00 pushed in `new`
        *end.last_mut().expect("prefix is never empty") = 1;
        end
    }

    fn check_ops(&self, state: &UsageState) -> Result<()> {
        if let Some(max_ops) = self.quota.max_ops {
            if state.ops_admitted + 1 > max_ops {
                return Err(ServeError::QuotaExceeded {
                    tenant: self.name.clone(),
                    kind: QuotaKind::Ops,
                    limit: max_ops,
                    requested: state.ops_admitted + 1,
                });
            }
        }
        Ok(())
    }

    /// Admit a read-shaped op (get/scan): consumes one op credit.
    pub(crate) fn admit_read(&self) -> Result<()> {
        let mut state = self.usage.lock();
        self.check_ops(&state)?;
        state.ops_admitted += 1;
        Ok(())
    }

    /// Admit a put of `key` with `value_len` value bytes: checks the op
    /// budget, then the projected live-bytes total, then charges both.
    /// The returned [`PutCharge`] undoes the charge if the store fails
    /// the write.
    pub(crate) fn admit_put(&self, key: &[u8], value_len: usize) -> Result<PutCharge> {
        let charge = (key.len() + value_len) as u64;
        let mut state = self.usage.lock();
        self.check_ops(&state)?;
        let previous = state.sizes.get(key).copied();
        // Saturating for the same reason as admit_delete below.
        let projected = state.live_bytes.saturating_sub(previous.unwrap_or(0)) + charge;
        if let Some(max_bytes) = self.quota.max_bytes {
            if projected > max_bytes {
                return Err(ServeError::QuotaExceeded {
                    tenant: self.name.clone(),
                    kind: QuotaKind::Bytes,
                    limit: max_bytes,
                    requested: projected,
                });
            }
        }
        state.ops_admitted += 1;
        state.live_bytes = projected;
        state.sizes.insert(key.to_vec(), charge);
        Ok(PutCharge { previous })
    }

    /// Undo an [`admit_put`](Tenant::admit_put) whose store write failed.
    pub(crate) fn rollback_put(&self, key: &[u8], charge: PutCharge) {
        let mut state = self.usage.lock();
        let charged = match charge.previous {
            Some(previous) => state.sizes.insert(key.to_vec(), previous),
            None => state.sizes.remove(key),
        };
        state.live_bytes =
            state.live_bytes.saturating_sub(charged.unwrap_or(0)) + charge.previous.unwrap_or(0);
        state.ops_admitted = state.ops_admitted.saturating_sub(1);
    }

    /// Admit a delete of `key`: checks the op budget, then credits the
    /// key's charged size back. The returned [`DeleteCharge`] undoes it
    /// if the store fails the delete.
    pub(crate) fn admit_delete(&self, key: &[u8]) -> Result<DeleteCharge> {
        let mut state = self.usage.lock();
        self.check_ops(&state)?;
        state.ops_admitted += 1;
        let freed = state.sizes.remove(key);
        // Saturating like the rollback paths: a same-key race between a
        // rollback and concurrent admissions (the documented
        // last-writer-wins ambiguity) may transiently leave live_bytes
        // below the sum of tracked sizes, and that misaccounting must
        // stay misaccounting rather than escalate to an underflow panic.
        state.live_bytes = state.live_bytes.saturating_sub(freed.unwrap_or(0));
        Ok(DeleteCharge { freed })
    }

    /// Undo an [`admit_delete`](Tenant::admit_delete) whose store delete
    /// failed.
    pub(crate) fn rollback_delete(&self, key: &[u8], charge: DeleteCharge) {
        let mut state = self.usage.lock();
        if let Some(freed) = charge.freed {
            state.sizes.insert(key.to_vec(), freed);
            state.live_bytes += freed;
        }
        state.ops_admitted = state.ops_admitted.saturating_sub(1);
    }

    /// Current accounting.
    pub(crate) fn usage(&self) -> TenantUsage {
        let state = self.usage.lock();
        TenantUsage {
            live_bytes: state.live_bytes,
            live_keys: state.sizes.len() as u64,
            ops_admitted: state.ops_admitted,
        }
    }

    /// Start a fresh op window (the external rate-limit driver's tick).
    pub(crate) fn reset_ops_window(&self) {
        self.usage.lock().ops_admitted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_validate() {
        assert!(validate_name("alpha-1_B").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("has space").is_err());
        assert!(validate_name(&"x".repeat(65)).is_err());
    }

    #[test]
    fn prefixes_are_disjoint_and_ordered() {
        let a = Tenant::new("alpha", TenantQuota::unlimited());
        let b = Tenant::new("alphab", TenantQuota::unlimited());
        // `alpha\0...` sorts entirely before `alphab\0...` and neither
        // range contains the other, NUL-termination being the point.
        assert!(a.prefix_end() <= b.prefix);
        assert!(a.full_key(b"zz") < b.full_key(b""));
    }

    #[test]
    fn byte_quota_charges_overwrites_and_deletes_exactly() {
        let t = Tenant::new("t", TenantQuota::unlimited().with_max_bytes(100));
        t.admit_put(b"k", 40).unwrap(); // 1 + 40 = 41
        assert_eq!(t.usage().live_bytes, 41);
        t.admit_put(b"k", 60).unwrap(); // overwrite: 61, not 102
        assert_eq!(t.usage().live_bytes, 61);
        let err = t.admit_put(b"j", 60).unwrap_err(); // 61 + 61 > 100
        assert!(matches!(
            err,
            ServeError::QuotaExceeded {
                kind: QuotaKind::Bytes,
                ..
            }
        ));
        assert_eq!(t.usage().live_bytes, 61, "rejection has no side effects");
        t.admit_delete(b"k").unwrap();
        assert_eq!(t.usage().live_bytes, 0);
    }

    #[test]
    fn rollbacks_restore_prior_accounting() {
        let t = Tenant::new("t", TenantQuota::unlimited());
        let first = t.admit_put(b"k", 10).unwrap();
        assert_eq!(t.usage().live_bytes, 11);
        let second = t.admit_put(b"k", 20).unwrap();
        t.rollback_put(b"k", second);
        assert_eq!(t.usage().live_bytes, 11);
        assert_eq!(t.usage().ops_admitted, 1);
        t.rollback_put(b"k", first);
        assert_eq!(
            t.usage(),
            TenantUsage {
                live_bytes: 0,
                live_keys: 0,
                ops_admitted: 0
            }
        );

        let _committed = t.admit_put(b"k", 10).unwrap();
        let del = t.admit_delete(b"k").unwrap();
        t.rollback_delete(b"k", del);
        assert_eq!(t.usage().live_bytes, 11);
    }

    #[test]
    fn op_budget_counts_every_admitted_op_and_resets() {
        let t = Tenant::new("t", TenantQuota::unlimited().with_max_ops(3));
        t.admit_put(b"a", 1).unwrap();
        t.admit_read().unwrap();
        t.admit_delete(b"a").unwrap();
        assert!(matches!(
            t.admit_read().unwrap_err(),
            ServeError::QuotaExceeded {
                kind: QuotaKind::Ops,
                ..
            }
        ));
        t.reset_ops_window();
        t.admit_read().unwrap();
        assert_eq!(t.usage().ops_admitted, 1);
    }
}
