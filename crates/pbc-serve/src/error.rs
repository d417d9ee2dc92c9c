//! Typed errors for the serving layer.
//!
//! [`ServeError::Busy`] is *server* pressure — the engine is falling
//! behind and the request should be retried after the hinted delay.
//! Neither it nor any other refusal is a silent drop: a refused write
//! was never applied (see the router docs for the exact guarantee).

use std::fmt;
use std::time::Duration;

use pbc_tier::TierError;

/// Which backpressure signal refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyReason {
    /// The write's router shard already has
    /// [`crate::ServeConfig::queue_capacity`] writes in flight.
    QueueFull,
    /// Committed L0 spill segments exceed the configured limit:
    /// compaction is falling behind and more writes would only deepen
    /// the read-amplification hole.
    ColdBacklog,
    /// Hot memory is far past the spill watermark — spills themselves
    /// are falling behind the write rate.
    MemoryPressure,
}

impl fmt::Display for BusyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusyReason::QueueFull => write!(f, "shard queue full"),
            BusyReason::ColdBacklog => write!(f, "L0 compaction backlog"),
            BusyReason::MemoryPressure => write!(f, "hot memory over watermark"),
        }
    }
}

/// Everything a router request can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control refused the request; retry after the hint.
    /// Guarantee: the operation was **not** applied —
    /// a `Busy` rejection has no side effects on the store.
    Busy {
        /// The signal that tripped.
        reason: BusyReason,
        /// How long the client should back off before retrying.
        retry_after: Duration,
    },
    /// No tenant with that name was registered.
    UnknownTenant {
        /// The name looked up.
        tenant: String,
    },
    /// [`crate::Router::create_tenant`] for a name that already exists.
    TenantExists {
        /// The duplicate name.
        tenant: String,
    },
    /// A tenant name failed validation (empty, too long, or a character
    /// outside `[a-zA-Z0-9_-]`).
    InvalidTenantName {
        /// The rejected name.
        tenant: String,
    },
    /// The router was shut down or aborted before the write was
    /// admitted. Not applied.
    Shutdown,
    /// The underlying tiered store failed.
    Tier(TierError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Busy {
                reason,
                retry_after,
            } => {
                write!(f, "busy ({reason}); retry after {retry_after:?}")
            }
            ServeError::UnknownTenant { tenant } => write!(f, "unknown tenant `{tenant}`"),
            ServeError::TenantExists { tenant } => {
                write!(f, "tenant `{tenant}` already exists")
            }
            ServeError::InvalidTenantName { tenant } => {
                write!(
                    f,
                    "invalid tenant name `{tenant}` (want 1-64 chars of [a-zA-Z0-9_-])"
                )
            }
            ServeError::Shutdown => write!(f, "router is shutting down"),
            ServeError::Tier(e) => write!(f, "store failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Tier(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TierError> for ServeError {
    fn from(e: TierError) -> Self {
        ServeError::Tier(e)
    }
}

/// `Result` alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
