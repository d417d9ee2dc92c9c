//! Multi-tenant namespaces: one key prefix per tenant.
//!
//! Every tenant owns a disjoint slice of the shared store's keyspace:
//! user keys are stored under `name ++ 0x00` (names cannot contain NUL,
//! so no tenant's prefix is a prefix of another's), which keeps each
//! tenant's keys contiguous and in user-key order — range scans over a
//! tenant are range scans over the store.

use crate::error::{Result, ServeError};

/// Per-tenant budgets: none. A field-less placeholder that
/// [`crate::Router::create_tenant`] still takes, so existing callers
/// keep compiling; the router enforces nothing with it.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantQuota;

impl TenantQuota {
    /// No limits at all (the only kind there is).
    pub fn unlimited() -> Self {
        TenantQuota
    }
}

/// One registered tenant: its name and namespace prefix.
#[derive(Debug)]
pub(crate) struct Tenant {
    /// `name ++ 0x00` — prepended to every user key.
    pub(crate) prefix: Vec<u8>,
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
    pub(crate) fn new(name: &str) -> Tenant {
        let mut prefix = name.as_bytes().to_vec();
        prefix.push(0);
        Tenant { prefix }
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
        let a = Tenant::new("alpha");
        let b = Tenant::new("alphab");
        // `alpha\0...` sorts entirely before `alphab\0...` and neither
        // range contains the other, NUL-termination being the point.
        assert!(a.prefix_end() <= b.prefix);
        assert!(a.full_key(b"zz") < b.full_key(b""));
    }
}
