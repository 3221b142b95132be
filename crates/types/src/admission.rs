//! Typed admission-control vocabulary for the streaming ingress path.
//!
//! A bounded session accepts client updates through `try_ingest`, which
//! answers with an [`AdmissionOutcome`] instead of an error: the update was
//! folded into the open round (`Admitted`), parked in a bounded per-leaf
//! queue awaiting the next round (`Queued`), or turned away because the
//! queue's slot or byte budget is exhausted (`Rejected`, carrying a
//! retry-after hint for the client's backoff loop).
//!
//! [`AdmissionConfig`] carries the queue caps plus the round-close policy:
//! `Exact` reproduces the legacy exact-fill behaviour (a round only closes
//! when every topology slot is filled), while `Quorum` closes a round once a
//! configurable minimum number of updates has landed, matching the paper's
//! partial-participation rounds.

use crate::error::{LiflError, Result};
use crate::time::SimDuration;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// Answer from a bounded `try_ingest`: what happened to the offered update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionOutcome {
    /// The update was folded into the currently open round.
    Admitted,
    /// The round is full; the update was parked in a bounded queue and will
    /// compete (by utility score) for a slot in the next round. `depth` is
    /// the occupancy of the target queue after enqueueing, so successive
    /// `Queued` outcomes on one queue report monotonically increasing depth.
    Queued {
        /// Occupancy of the target leaf queue after this update was parked.
        depth: usize,
    },
    /// Both the round and the target queue are full; the update was dropped
    /// and the client should retry after the hinted backoff.
    Rejected {
        /// Suggested client-side backoff before re-offering the update.
        retry_after: SimDuration,
    },
}

impl AdmissionOutcome {
    /// True for the `Admitted` arm.
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionOutcome::Admitted)
    }

    /// True for the `Queued` arm.
    pub fn is_queued(&self) -> bool {
        matches!(self, AdmissionOutcome::Queued { .. })
    }

    /// True for the `Rejected` arm.
    pub fn is_rejected(&self) -> bool {
        matches!(self, AdmissionOutcome::Rejected { .. })
    }
}

/// When an admission-controlled round is allowed to close.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RoundClose {
    /// Legacy behaviour: the round closes only when every topology slot is
    /// filled, and driving a partial round is an error.
    Exact,
    /// Partial participation: the round may close once `min_updates` have
    /// been admitted; stragglers past that point are cut off rather than
    /// waited for.
    Quorum {
        /// Minimum number of admitted updates before the round may close.
        min_updates: u32,
    },
}

impl RoundClose {
    /// The quorum for a round with `capacity` slots: `capacity` for `Exact`,
    /// the configured minimum (capped at `capacity`) for `Quorum`.
    pub fn required_updates(&self, capacity: usize) -> usize {
        match *self {
            RoundClose::Exact => capacity,
            RoundClose::Quorum { min_updates } => (min_updates as usize).min(capacity).max(1),
        }
    }

    /// Checks that a round of `ingested` updates over `topology` may close
    /// under this rule — the one check `Session::drive` and `Cluster::drive`
    /// make before running a round. `capacity` is what the round holds: the
    /// topology's total, unless a fleet re-split changed a node's subtree.
    ///
    /// # Errors
    /// [`LiflError::InvalidConfig`] when an exact round is not filled
    /// ([`Topology::validate`]'s error while the built shape stands) or a
    /// quorum is not met.
    pub fn check(&self, topology: &Topology, capacity: usize, ingested: usize) -> Result<()> {
        let required = self.required_updates(capacity);
        match self {
            RoundClose::Exact if capacity == topology.total_updates() => {
                topology.validate(ingested)
            }
            RoundClose::Exact if ingested != capacity => Err(LiflError::InvalidConfig(format!(
                "cluster round incomplete: the scaled fleet aggregates {capacity} updates, \
                 got {ingested}"
            ))),
            RoundClose::Quorum { .. } if ingested < required => Err(LiflError::InvalidConfig(
                format!("quorum not met: round has {ingested} of {required} required updates"),
            )),
            _ => Ok(()),
        }
    }
}

/// Knobs for the bounded admission path: per-leaf queue caps and the
/// round-close policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Maximum parked updates per leaf queue.
    pub queue_slots: usize,
    /// Maximum total payload bytes parked per leaf queue.
    pub queue_bytes: usize,
    /// Backoff hint returned with every `Rejected` outcome.
    pub retry_after: SimDuration,
    /// When the round is allowed to close.
    pub round_close: RoundClose,
}

impl AdmissionConfig {
    /// A conservative default: 64 parked updates / 16 MiB per leaf queue, a
    /// one-second retry hint, and legacy exact-fill round close.
    pub fn bounded(queue_slots: usize, queue_bytes: usize) -> AdmissionConfig {
        AdmissionConfig {
            queue_slots,
            queue_bytes,
            retry_after: SimDuration::from_secs(1.0),
            round_close: RoundClose::Exact,
        }
    }

    /// Switches the round-close policy to a quorum of `min_updates`.
    pub fn with_quorum(mut self, min_updates: u32) -> AdmissionConfig {
        self.round_close = RoundClose::Quorum { min_updates };
        self
    }

    /// Overrides the `Rejected` backoff hint.
    pub fn with_retry_after(mut self, retry_after: SimDuration) -> AdmissionConfig {
        self.retry_after = retry_after;
        self
    }

    /// Validates the caps: both budgets must be nonzero, and a quorum must
    /// ask for at least one update.
    pub fn validate(&self) -> Result<()> {
        if self.queue_slots == 0 {
            return Err(LiflError::InvalidConfig(
                "admission queue_slots must be nonzero".to_string(),
            ));
        }
        if self.queue_bytes == 0 {
            return Err(LiflError::InvalidConfig(
                "admission queue_bytes must be nonzero".to_string(),
            ));
        }
        if let RoundClose::Quorum { min_updates } = self.round_close {
            if min_updates == 0 {
                return Err(LiflError::InvalidConfig(
                    "admission quorum must require at least one update".to_string(),
                ));
            }
        }
        Ok(())
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::bounded(64, 16 * 1024 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates() {
        assert!(AdmissionOutcome::Admitted.is_admitted());
        assert!(AdmissionOutcome::Queued { depth: 3 }.is_queued());
        let r = AdmissionOutcome::Rejected {
            retry_after: SimDuration::from_secs(2.0),
        };
        assert!(r.is_rejected());
        assert!(!r.is_admitted());
    }

    #[test]
    fn quorum_required_updates_caps_at_capacity() {
        assert_eq!(RoundClose::Exact.required_updates(8), 8);
        assert_eq!(RoundClose::Quorum { min_updates: 6 }.required_updates(8), 6);
        assert_eq!(
            RoundClose::Quorum { min_updates: 99 }.required_updates(8),
            8
        );
        assert_eq!(RoundClose::Quorum { min_updates: 0 }.required_updates(8), 1);
    }

    #[test]
    fn validate_rejects_zero_budgets() {
        assert!(AdmissionConfig::bounded(0, 1024).validate().is_err());
        assert!(AdmissionConfig::bounded(8, 0).validate().is_err());
        assert!(AdmissionConfig::bounded(8, 1024).validate().is_ok());
        assert!(AdmissionConfig::bounded(8, 1024)
            .with_quorum(0)
            .validate()
            .is_err());
        assert!(AdmissionConfig::bounded(8, 1024)
            .with_quorum(4)
            .validate()
            .is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = AdmissionConfig::bounded(16, 4096)
            .with_quorum(12)
            .with_retry_after(SimDuration::from_millis(250.0));
        let json = serde_json::to_string(&cfg).unwrap();
        let back: AdmissionConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
