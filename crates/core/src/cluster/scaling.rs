//! KPA fleet scaling: at every round boundary each node's admission-queue
//! depth feeds a per-node [`FleetController`](lifl_serverless::FleetController)
//! control loop, and a node whose desired leaf count changed gets its subtree
//! re-split before the next round's backlog drains. The controller runs on a
//! synthetic per-round clock, so the same arrival trace always produces the
//! same spawn/retire sequence.

use super::Cluster;
use lifl_serverless::FleetDecision;
use lifl_types::{Result, Topology};

/// One fleet-scaling action applied at a round boundary: a node's subtree
/// re-split to the controller's desired leaf count.
#[derive(Debug, Clone)]
pub struct ScalingAction {
    /// The controller's decision (observed depth, current and desired
    /// leaves, panic state).
    pub decision: FleetDecision,
}

impl Cluster {
    /// Applies the KPA fleet decisions of one round boundary: every node
    /// whose desired leaf count changed gets its subtree re-split to a
    /// two-level tree of that many leaves at the node's existing leaf
    /// fan-in. Returns one action per node (resize or hold) so scaling traces are complete, and
    /// none without fleet scaling.
    pub(super) fn scale_fleet(&mut self) -> Vec<ScalingAction> {
        let Some(fleet) = self.fleet.as_mut() else {
            return Vec::new();
        };
        let mut depths: Vec<f64> = self.ingress.depths().iter().map(|&d| d as f64).collect();
        depths.resize(self.children.len(), 0.0);
        let current = self.children.iter().map(|c| c.topology().leaves() as u32);
        let decisions = fleet.observe_round(&depths, &current.collect::<Vec<u32>>());
        let mut actions = Vec::with_capacity(decisions.len());
        for decision in decisions {
            if decision.is_resize() {
                // A failed rebuild (impossible for in-bounds leaf counts)
                // keeps the old subtree; the decision still lands in the
                // trace so divergence is visible.
                let _ = self.resize_node(decision.node, decision.desired_leaves as usize);
            }
            actions.push(ScalingAction { decision });
        }
        actions
    }

    /// Re-splits one node's subtree to `desired_leaves` leaf aggregators at
    /// the node's existing leaf fan-in (the [`Topology::split_top`]-style
    /// re-split, applied per node). The rebuilt session keeps the node's
    /// tree position, codec seed, fold policy and pool, so scaled rounds
    /// stay deterministic.
    pub(super) fn resize_node(&mut self, node: usize, desired_leaves: usize) -> Result<()> {
        let fan_in = self.children[node].topology().fan_in(0);
        let topology = Topology::two_level(desired_leaves.max(1), fan_in);
        self.children[node] = self.sessions.build(topology, 0, node)?;
        Ok(())
    }
}
