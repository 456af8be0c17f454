//! Error types of the service layer.

use std::fmt;

use crate::snapshot::SnapshotError;

/// Everything that can go wrong inside the service layer.
#[derive(Debug)]
pub enum ServiceError {
    /// A submission or lookup named a scenario that was never registered.
    UnknownScenario(String),
    /// A registration re-used an existing scenario name.
    DuplicateScenario(String),
    /// A registration, restore or shipment re-used a cache namespace over
    /// an incompatible substrate/task (different fingerprint) — sharing
    /// evaluations across such spaces poisons valuations, so it is
    /// rejected and nothing is recorded or merged.
    NamespaceConflict {
        /// The contested cache namespace (`key <hex>` when only its hashed
        /// key is known).
        namespace: String,
        /// The least-named scenario registered under the namespace, or the
        /// earlier restore that recorded its fingerprint.
        registered_by: String,
    },
    /// A poll referenced a ticket the service never issued — or one whose
    /// completed outcome has already been evicted by the retention policy
    /// (`ServiceConfig::completed_retention`).
    UnknownTicket(u64),
    /// A submission arrived after [`crate::Service::shutdown`]: nothing
    /// will ever drain it, so accepting it would strand the ticket in the
    /// queue forever.
    Stopped,
    /// Persisting or restoring an evaluation-cache snapshot failed.
    Snapshot(SnapshotError),
    /// A cluster routing table was malformed (empty or multi-token names,
    /// duplicate scenarios).
    InvalidClusterSpec(String),
    /// A cluster operation could not reach a shard daemon (connect, send
    /// or receive failed) — the request may be retried once the shard is
    /// back or rewired to a new address.
    ShardUnavailable {
        /// The unreachable shard's name.
        shard: String,
        /// What failed.
        reason: String,
    },
    /// A cluster topology change named an unknown shard, or would leave
    /// the cluster without any shard.
    InvalidTopology(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownScenario(name) => write!(f, "unknown scenario {name:?}"),
            ServiceError::DuplicateScenario(name) => {
                write!(f, "scenario {name:?} is already registered")
            }
            ServiceError::NamespaceConflict {
                namespace,
                registered_by,
            } => write!(
                f,
                "cache namespace {namespace:?} already belongs to scenario \
                 {registered_by:?} over an incompatible substrate/task"
            ),
            ServiceError::UnknownTicket(id) => write!(f, "unknown ticket {id}"),
            ServiceError::Stopped => write!(f, "service is shut down"),
            ServiceError::Snapshot(err) => write!(f, "snapshot error: {err}"),
            ServiceError::InvalidClusterSpec(reason) => {
                write!(f, "invalid cluster spec: {reason}")
            }
            ServiceError::ShardUnavailable { shard, reason } => {
                write!(f, "shard {shard:?} unavailable: {reason}")
            }
            ServiceError::InvalidTopology(reason) => write!(f, "invalid topology: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Snapshot(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ServiceError {
    fn from(err: SnapshotError) -> Self {
        ServiceError::Snapshot(err)
    }
}
