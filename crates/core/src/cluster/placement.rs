//! Live top placement (§5.2): which node hosts the global top aggregator.
//!
//! Under the default [`TopPlacement::MostLoaded`] policy every node keeps an
//! [`EwmaEstimator`] of its observed load — each round's per-node ingest
//! counts, plus the out-of-band signals [`Cluster::observe_node_load`] feeds
//! in — and at every round boundary the top moves to the most-loaded node,
//! so the largest intermediate never crosses machines. A move is a warm-state
//! handoff priced like any other remote hop; the aggregate is unchanged,
//! because codec streams derive from tree positions, not hosts.

use super::{Cluster, Pricing};
use crate::ewma::EwmaEstimator;
use lifl_dataplane::TransferCost;
use lifl_types::{LiflError, NodeId, Result};

/// How a [`Cluster`] chooses the node hosting the global top aggregator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopPlacement {
    /// Pin the top to a fixed node for the cluster's whole life (the
    /// pre-live-placement behaviour; useful as an experimental control).
    Pinned(usize),
    /// Live placement (§5.2): host the top on the node with the highest
    /// EWMA-smoothed load estimate, re-evaluated at every round boundary.
    /// Ties keep the incumbent, so a uniformly loaded cluster never churns.
    MostLoaded {
        /// EWMA smoothing coefficient α in `[0, 1]` (the paper uses 0.7).
        alpha: f64,
    },
}

impl Default for TopPlacement {
    fn default() -> Self {
        TopPlacement::MostLoaded { alpha: 0.7 }
    }
}

/// A top re-placement performed at a round boundary: the warm top state (the
/// current global intermediate) handed off from the old host to the new,
/// most-loaded one.
#[derive(Debug, Clone)]
pub struct TopMove {
    /// The node that hosted the top until this round.
    pub from: NodeId,
    /// The node hosting the top from this round on.
    pub to: NodeId,
    /// Bytes of warm top state shipped (zero before any round has produced
    /// a global intermediate).
    pub state_bytes: u64,
    /// The modelled transport cost of the handoff (always a cross-machine
    /// transfer).
    pub cost: TransferCost,
}

/// The top's host, the per-node load estimates that move it, and the warm
/// state a move ships.
#[derive(Debug)]
pub(super) struct Placement {
    policy: TopPlacement,
    top: usize,
    estimators: Vec<EwmaEstimator>,
    /// Bytes of the last committed global model: what a move (or a fleet
    /// re-split) hands off.
    warm_bytes: u64,
}

impl Placement {
    /// Placement over `nodes` nodes: a pinned top where the policy pins it,
    /// node 0 until load signals differ otherwise.
    ///
    /// # Errors
    /// [`LiflError::InvalidConfig`] for a pinned node outside the cluster or
    /// a smoothing coefficient that is not a number in `[0, 1]`.
    pub(super) fn new(policy: TopPlacement, nodes: usize) -> Result<Placement> {
        let (top, alpha) = match policy {
            TopPlacement::Pinned(node) if node >= nodes => {
                return Err(LiflError::InvalidConfig(format!(
                    "pinned top node {node} outside the cluster's {nodes} nodes"
                )))
            }
            TopPlacement::Pinned(node) => (node, 0.7),
            TopPlacement::MostLoaded { alpha } if !(0.0..=1.0).contains(&alpha) => {
                return Err(LiflError::InvalidConfig(format!(
                    "top placement EWMA alpha must be in [0, 1], got {alpha}"
                )))
            }
            TopPlacement::MostLoaded { alpha } => (0, alpha),
        };
        Ok(Placement {
            policy,
            top,
            estimators: vec![EwmaEstimator::new(alpha); nodes],
            warm_bytes: 0,
        })
    }

    /// The node hosting the top.
    pub(super) fn top(&self) -> usize {
        self.top
    }

    /// Records the round's committed global model of `dim` parameters: the
    /// warm state the next handoff ships.
    pub(super) fn committed(&mut self, dim: usize) {
        self.warm_bytes = dim as u64 * 4;
    }

    /// Re-evaluates the top's host at a round boundary: feeds each node's
    /// `loads` into its EWMA, then (under live placement) moves the top to
    /// the most-loaded node unless the incumbent already ties it. Returns
    /// the priced handoff when the top moved.
    pub(super) fn place(
        &mut self,
        loads: impl Iterator<Item = u64>,
        pricing: Pricing,
    ) -> Option<TopMove> {
        for (estimator, load) in self.estimators.iter_mut().zip(loads) {
            estimator.observe(load as f64);
        }
        if !matches!(self.policy, TopPlacement::MostLoaded { .. }) {
            return None;
        }
        let estimates: Vec<f64> = (self.estimators.iter())
            .map(|e| e.estimate().unwrap_or(0.0))
            .collect();
        let best = estimates.iter().copied().fold(f64::MIN, f64::max);
        // Incumbent-wins tie-breaking: equal load never churns the top.
        if estimates[self.top] >= best {
            return None;
        }
        let to = estimates.iter().position(|&e| e == best)?;
        let from = NodeId::new(self.top as u64);
        self.top = to;
        Some(TopMove {
            from,
            to: NodeId::new(to as u64),
            state_bytes: self.warm_bytes,
            cost: pricing.hop(false, self.warm_bytes),
        })
    }
}

impl Cluster {
    /// The node currently hosting the global top aggregator.
    pub fn top_node(&self) -> NodeId {
        NodeId::new(self.placement.top as u64)
    }

    /// Feeds an external load observation (e.g. a node's reported pending
    /// queue depth, as the coordinator's metric reports do) into the node's
    /// EWMA load estimator. Ingest routing already feeds each round's
    /// per-node update counts automatically; this adds out-of-band signals
    /// so placement can react to load the cluster ingress does not see.
    ///
    /// A queue depth is a finite, non-negative count: any other observation
    /// (NaN, ±∞, negative) is ignored, so one hostile report can neither
    /// pin the top on a node for good nor stall placement.
    pub fn observe_node_load(&mut self, node: NodeId, pending: f64) {
        let estimator = self.placement.estimators.get_mut(node.index() as usize);
        if let Some(estimator) = estimator.filter(|_| pending.is_finite() && pending >= 0.0) {
            estimator.observe(pending);
        }
    }

    /// The smoothed per-node load estimates live placement decides over, in
    /// node order (zero until a node has been observed).
    #[cfg(test)]
    pub(crate) fn load_estimates(&self) -> Vec<(NodeId, f64)> {
        (self.placement.estimators.iter().enumerate())
            .map(|(k, e)| (NodeId::new(k as u64), e.estimate().unwrap_or(0.0)))
            .collect()
    }
}
