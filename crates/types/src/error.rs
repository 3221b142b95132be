//! The common error type for the LIFL reproduction.

use crate::ids::{AggregatorId, ClientId, NodeId, ObjectKey};
use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, LiflError>;

/// Errors produced by the LIFL platform and its substrates.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LiflError {
    /// A shared-memory object key was not found in the object store.
    ObjectNotFound(ObjectKey),
    /// The shared-memory store does not have room for an allocation of the given size.
    OutOfSharedMemory {
        /// Requested allocation size in bytes.
        requested: u64,
        /// Bytes currently available.
        available: u64,
    },
    /// A route lookup failed for the given aggregator.
    RouteNotFound(AggregatorId),
    /// The aggregator is not registered on the node.
    UnknownAggregator(AggregatorId),
    /// The worker node is not part of the cluster.
    UnknownNode(NodeId),
    /// The client is not part of the population.
    UnknownClient(ClientId),
    /// Placement failed because the cluster has insufficient residual capacity.
    InsufficientCapacity {
        /// Updates that needed to be placed.
        demanded: u64,
        /// Total residual capacity available.
        capacity: u64,
    },
    /// An operation was attempted against a terminated instance.
    InstanceTerminated,
    /// Configuration was invalid.
    InvalidConfig(String),
    /// Model updates had mismatched dimensions during aggregation.
    DimensionMismatch {
        /// Expected vector length.
        expected: usize,
        /// Length actually provided.
        actual: usize,
    },
    /// The aggregation goal was invalid (for example zero).
    InvalidAggregationGoal(u64),
    /// An encoded model update could not be parsed or produced.
    Codec(String),
    /// A simulation invariant was violated.
    Simulation(String),
    /// The node hosting the top aggregator died; the whole in-progress round
    /// is lost and the global model must restart from the latest checkpoint.
    AggregatorFailure {
        /// Index of the failed node within the cluster.
        node: u64,
    },
    /// A strict ingest found the round already holding every update its tree
    /// aggregates, with no admission queue (or no queue budget) left to park
    /// the offer in.
    RoundFull {
        /// Updates one round of the backend's tree aggregates.
        capacity: usize,
    },
}

impl fmt::Display for LiflError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiflError::ObjectNotFound(key) => write!(f, "shared-memory object {key} not found"),
            LiflError::OutOfSharedMemory {
                requested,
                available,
            } => write!(
                f,
                "out of shared memory: requested {requested} bytes, {available} available"
            ),
            LiflError::RouteNotFound(agg) => write!(f, "no route registered for {agg}"),
            LiflError::UnknownAggregator(agg) => write!(f, "unknown aggregator {agg}"),
            LiflError::UnknownNode(node) => write!(f, "unknown worker node {node}"),
            LiflError::UnknownClient(client) => write!(f, "unknown client {client}"),
            LiflError::InsufficientCapacity { demanded, capacity } => write!(
                f,
                "insufficient cluster capacity: {demanded} updates demanded, {capacity} available"
            ),
            LiflError::InstanceTerminated => write!(f, "operation on a terminated instance"),
            LiflError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            LiflError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "model dimension mismatch: expected {expected}, got {actual}"
                )
            }
            LiflError::InvalidAggregationGoal(goal) => {
                write!(f, "invalid aggregation goal {goal}")
            }
            LiflError::Codec(msg) => write!(f, "codec error: {msg}"),
            LiflError::Simulation(msg) => write!(f, "simulation error: {msg}"),
            LiflError::AggregatorFailure { node } => {
                write!(f, "top aggregator host node {node} failed, round lost")
            }
            LiflError::RoundFull { capacity } => write!(
                f,
                "round is full: it already holds the {capacity} updates its tree aggregates \
                 and no admission queue budget is left to park the offer"
            ),
        }
    }
}

impl std::error::Error for LiflError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_period() {
        let err = LiflError::ObjectNotFound(ObjectKey::from_words(1, 2));
        let text = err.to_string();
        assert!(text.starts_with("shared-memory object"));
        assert!(!text.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LiflError>();
    }

    #[test]
    fn round_full_keeps_its_wording_and_capacity() {
        let text = LiflError::RoundFull { capacity: 8 }.to_string();
        assert!(text.contains("round is full"), "{text}");
        assert!(text.contains('8'), "{text}");
    }

    #[test]
    fn capacity_error_reports_numbers() {
        let err = LiflError::InsufficientCapacity {
            demanded: 120,
            capacity: 100,
        };
        assert!(err.to_string().contains("120"));
        assert!(err.to_string().contains("100"));
    }
}
