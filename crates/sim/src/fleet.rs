//! Heterogeneous worker-node fleets.
//!
//! The paper's testbed is homogeneous ("our testbed nodes are homogeneous,
//! hence all MC_i are the same") but the design explicitly allows
//! heterogeneous nodes: "with heterogeneous nodes, MC_i may vary" (§6.1,
//! footnote 6). The residual-capacity formulation of §5.1 already handles
//! that; this module provides the fleet description the placement engine and
//! hierarchy planner need when nodes differ — per-node core counts, clock
//! speeds and maximum service capacities — plus the offline MC_i estimation
//! procedure of Appendix E.

use crate::config::NodeConfig;
use crate::placement::NodeCapacity;
use lifl_types::{LiflError, NodeId, Result, SimDuration};
use serde::{Deserialize, Serialize};

/// A fleet of (possibly heterogeneous) worker nodes available for aggregation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeFleet {
    nodes: Vec<(NodeId, NodeConfig)>,
}

impl NodeFleet {
    /// Builds a heterogeneous fleet from explicit per-node configurations.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] for an empty fleet or a node with
    /// zero capacity or zero cores.
    pub fn heterogeneous(nodes: Vec<NodeConfig>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(LiflError::InvalidConfig(
                "fleet must contain at least one node".into(),
            ));
        }
        for (i, node) in nodes.iter().enumerate() {
            if node.cores == 0 || node.max_service_capacity == 0 {
                return Err(LiflError::InvalidConfig(format!(
                    "node {i} must have non-zero cores and service capacity"
                )));
            }
        }
        Ok(NodeFleet {
            nodes: nodes
                .into_iter()
                .enumerate()
                .map(|(i, cfg)| (NodeId::new(i as u64), cfg))
                .collect(),
        })
    }

    /// Number of nodes in the fleet.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The configuration of `node`.
    ///
    /// # Errors
    /// Returns [`LiflError::UnknownNode`] for a node outside the fleet.
    pub fn node(&self, node: NodeId) -> Result<&NodeConfig> {
        self.nodes
            .iter()
            .find(|(id, _)| *id == node)
            .map(|(_, cfg)| cfg)
            .ok_or(LiflError::UnknownNode(node))
    }

    /// Total service capacity Σ MC_i.
    pub fn total_capacity(&self) -> u64 {
        self.nodes
            .iter()
            .map(|(_, cfg)| cfg.max_service_capacity as u64)
            .sum()
    }

    /// Fresh per-node placement state (empty assignment, per-node MC_i),
    /// ready for [`PlacementEngine::place_batch`](crate::placement::PlacementEngine::place_batch).
    pub fn capacities(&self) -> Vec<NodeCapacity> {
        self.nodes
            .iter()
            .map(|(id, cfg)| NodeCapacity::new(*id, cfg.max_service_capacity))
            .collect()
    }

    /// Whether every node has the same configuration.
    pub fn is_homogeneous(&self) -> bool {
        match self.nodes.first() {
            Some((_, first)) => self.nodes.iter().all(|(_, cfg)| cfg == first),
            None => true,
        }
    }
}

/// Offline estimation of a node's maximum service capacity MC_i (Appendix E):
/// the arrival rate is increased until the average execution time inflates
/// noticeably; MC_i = k'_i × E'_i at that point.
///
/// `base_exec_time` is the per-update aggregation time on an unloaded node and
/// `cores` the cores available for aggregation. The execution-time inflation
/// model is an M/M/c-style slowdown: beyond `cores` concurrent updates the
/// execution time grows linearly with the over-subscription factor.
pub fn estimate_max_capacity(base_exec_time: SimDuration, cores: u32, inflation_limit: f64) -> u32 {
    let cores = cores.max(1);
    let limit = inflation_limit.max(1.0);
    let base = base_exec_time.as_secs().max(1e-9);
    let mut best = 1u32;
    for k in 1..=(cores * 64) {
        // Execution time once k updates run concurrently on `cores` cores.
        let oversubscription = (k as f64 / cores as f64).max(1.0);
        let exec = base * oversubscription;
        if exec > base * limit {
            break;
        }
        best = k;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, PlacementPolicy};
    use crate::placement::PlacementEngine;

    fn small_node(capacity: u32, cores: u32) -> NodeConfig {
        NodeConfig {
            cores,
            max_service_capacity: capacity,
            ..NodeConfig::default()
        }
    }

    #[test]
    fn homogeneous_fleet_matches_cluster_config() {
        let cluster = ClusterConfig::default();
        let nodes = vec![cluster.node; cluster.aggregation_nodes as usize];
        let fleet = NodeFleet::heterogeneous(nodes).unwrap();
        assert_eq!(fleet.len(), 5);
        assert!(fleet.is_homogeneous());
        assert_eq!(fleet.total_capacity(), 5 * 20);
        assert_eq!(fleet.capacities().len(), 5);
        assert!(fleet.node(NodeId::new(0)).is_ok());
        assert!(fleet.node(NodeId::new(99)).is_err());
    }

    #[test]
    fn heterogeneous_fleet_reports_per_node_capacity() {
        let fleet = NodeFleet::heterogeneous(vec![
            small_node(20, 64),
            small_node(8, 16),
            small_node(40, 128),
        ])
        .unwrap();
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_homogeneous());
        assert_eq!(fleet.total_capacity(), 68);
        assert_eq!(fleet.node(NodeId::new(1)).unwrap().max_service_capacity, 8);
    }

    #[test]
    fn invalid_fleets_are_rejected() {
        assert!(NodeFleet::heterogeneous(vec![]).is_err());
        assert!(NodeFleet::heterogeneous(vec![small_node(0, 4)]).is_err());
        assert!(NodeFleet::heterogeneous(vec![small_node(4, 0)]).is_err());
    }

    #[test]
    fn placement_respects_heterogeneous_capacities() {
        // Node 1 is tiny; BestFit must never assign it more than its MC_i.
        let fleet = NodeFleet::heterogeneous(vec![
            small_node(20, 64),
            small_node(4, 8),
            small_node(20, 64),
        ])
        .unwrap();
        let engine = PlacementEngine::new(PlacementPolicy::BestFit);
        let mut capacities = fleet.capacities();
        let outcome = engine.place_batch(fleet.total_capacity(), &mut capacities);
        assert_eq!(outcome.overflow, 0);
        let assigned_to_small = outcome
            .assignments
            .iter()
            .filter(|n| **n == NodeId::new(1))
            .count();
        assert!(
            assigned_to_small <= 4,
            "small node got {assigned_to_small} > MC_i=4"
        );
        // Every update was placed.
        assert_eq!(outcome.assignments.len() as u64, fleet.total_capacity());
    }

    #[test]
    fn best_fit_prefers_filling_small_nodes_first() {
        let fleet = NodeFleet::heterogeneous(vec![small_node(20, 64), small_node(4, 8)]).unwrap();
        let engine = PlacementEngine::new(PlacementPolicy::BestFit);
        let mut capacities = fleet.capacities();
        let outcome = engine.place_batch(4, &mut capacities);
        // All four fit on the small node, leaving the big node untouched.
        assert!(outcome.assignments.iter().all(|n| *n == NodeId::new(1)));
        assert_eq!(outcome.nodes_used, 1);
    }

    #[test]
    fn capacity_estimation_matches_core_count_scaling() {
        let base = SimDuration::from_secs(1.0);
        // With a 1.5x inflation budget, capacity lands at 1.5x the core count.
        let capacity = estimate_max_capacity(base, 16, 1.5);
        assert_eq!(capacity, 24);
        // More cores => proportionally more capacity.
        assert!(estimate_max_capacity(base, 64, 1.5) > capacity);
        // A tight inflation budget pins capacity to the core count.
        assert_eq!(estimate_max_capacity(base, 8, 1.0), 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::PlacementPolicy;
    use crate::placement::PlacementEngine;
    use proptest::prelude::*;

    fn arbitrary_fleet() -> impl Strategy<Value = NodeFleet> {
        proptest::collection::vec((1u32..40, 1u32..128), 1..8).prop_map(|nodes| {
            NodeFleet::heterogeneous(
                nodes
                    .into_iter()
                    .map(|(capacity, cores)| NodeConfig {
                        max_service_capacity: capacity,
                        cores,
                        ..NodeConfig::default()
                    })
                    .collect(),
            )
            .expect("non-empty fleet with positive capacities")
        })
    }

    proptest! {
        #[test]
        fn placement_never_exceeds_any_nodes_capacity(
            fleet in arbitrary_fleet(),
            policy in proptest::sample::select(vec![
                PlacementPolicy::BestFit,
                PlacementPolicy::FirstFit,
                PlacementPolicy::WorstFit,
            ]),
        ) {
            let engine = PlacementEngine::new(policy);
            let demand = fleet.total_capacity();
            let mut capacities = fleet.capacities();
            let outcome = engine.place_batch(demand, &mut capacities);
            prop_assert_eq!(outcome.overflow, 0);
            prop_assert_eq!(outcome.assignments.len() as u64, demand);
            for cap in &capacities {
                let mc = fleet.node(cap.node).unwrap().max_service_capacity;
                prop_assert!(cap.assigned <= mc, "{} assigned > MC {}", cap.assigned, mc);
            }
        }

        #[test]
        fn capacity_estimate_is_monotone_in_cores(
            cores_a in 1u32..64,
            cores_b in 1u32..64,
            limit in 1.0f64..4.0,
        ) {
            let base = SimDuration::from_secs(0.5);
            let (lo, hi) = if cores_a <= cores_b { (cores_a, cores_b) } else { (cores_b, cores_a) };
            prop_assert!(estimate_max_capacity(base, lo, limit) <= estimate_max_capacity(base, hi, limit));
        }
    }
}
