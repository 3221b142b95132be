//! Locality-aware placement and load balancing (§5.1).
//!
//! Incoming model updates are mapped to worker nodes by a bin-packing policy
//! over residual service capacity `RC_i = MC_i − k_i·E_i`. LIFL uses BestFit
//! to concentrate load onto the fewest nodes (maximising shared-memory use and
//! minimising inter-node transfers); WorstFit reproduces Knative's
//! "least connection" spreading; FirstFit minimises search cost.

use lifl_types::{LiflError, NodeId, PlacementPolicy, Result};

/// Mutable view of one node's placement state during a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCapacity {
    /// The node.
    pub node: NodeId,
    /// Maximum service capacity MC_i (updates aggregated simultaneously).
    pub max_capacity: u32,
    /// Updates already assigned in this round (k_i·E_i, in update units).
    pub assigned: u32,
}

impl NodeCapacity {
    /// A fresh, empty node.
    pub fn new(node: NodeId, max_capacity: u32) -> Self {
        NodeCapacity {
            node,
            max_capacity,
            assigned: 0,
        }
    }

    /// Residual service capacity RC_i.
    pub fn residual(&self) -> u32 {
        self.max_capacity.saturating_sub(self.assigned)
    }
}

/// The result of placing a batch of updates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlacementOutcome {
    /// Node chosen for each update, in input order.
    pub assignments: Vec<NodeId>,
    /// Number of distinct nodes used.
    pub nodes_used: usize,
    /// Updates that could not be placed because every node was full.
    pub overflow: u64,
}

/// The placement engine.
#[derive(Debug, Clone)]
pub struct PlacementEngine {
    policy: PlacementPolicy,
}

impl PlacementEngine {
    /// Creates an engine for the given policy.
    pub fn new(policy: PlacementPolicy) -> Self {
        PlacementEngine { policy }
    }

    /// The engine's policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Places one update given the current per-node state, returning the
    /// chosen node and updating its assignment count.
    ///
    /// # Errors
    /// Returns [`LiflError::InsufficientCapacity`] when every node is full.
    pub fn place_one(&self, nodes: &mut [NodeCapacity]) -> Result<NodeId> {
        let candidate = match self.policy {
            PlacementPolicy::BestFit => nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.residual() > 0)
                // Smallest residual that still fits => pack tightly.
                .min_by_key(|(_, n)| (n.residual(), n.node.index()))
                .map(|(i, _)| i),
            PlacementPolicy::WorstFit => nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.residual() > 0)
                // Largest residual => spread like least-connection.
                .max_by_key(|(_, n)| (n.residual(), std::cmp::Reverse(n.node.index())))
                .map(|(i, _)| i),
            PlacementPolicy::FirstFit => nodes.iter().position(|n| n.residual() > 0),
        };
        match candidate {
            Some(idx) => {
                nodes[idx].assigned += 1;
                Ok(nodes[idx].node)
            }
            None => Err(LiflError::InsufficientCapacity {
                demanded: 1,
                capacity: 0,
            }),
        }
    }

    /// Places `count` updates over `nodes`, assigning overflow updates (beyond
    /// total capacity) round-robin so they queue rather than being dropped.
    pub fn place_batch(&self, count: u64, nodes: &mut [NodeCapacity]) -> PlacementOutcome {
        let mut outcome = PlacementOutcome::default();
        for i in 0..count {
            match self.place_one(nodes) {
                Ok(node) => outcome.assignments.push(node),
                Err(_) => {
                    outcome.overflow += 1;
                    if !nodes.is_empty() {
                        let idx = (i % nodes.len() as u64) as usize;
                        nodes[idx].assigned += 1;
                        outcome.assignments.push(nodes[idx].node);
                    }
                }
            }
        }
        let mut used: Vec<NodeId> = outcome.assignments.clone();
        used.sort();
        used.dedup();
        outcome.nodes_used = used.len();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u64, cap: u32) -> Vec<NodeCapacity> {
        (0..n)
            .map(|i| NodeCapacity::new(NodeId::new(i), cap))
            .collect()
    }

    #[test]
    fn bestfit_concentrates_on_fewest_nodes() {
        // Fig. 8(d): 20, 60, 100 updates over 5 nodes of capacity 20 should
        // use 1, 3 and 5 nodes respectively.
        for (updates, expected_nodes) in [(20u64, 1usize), (60, 3), (100, 5)] {
            let engine = PlacementEngine::new(PlacementPolicy::BestFit);
            let mut caps = nodes(5, 20);
            let outcome = engine.place_batch(updates, &mut caps);
            assert_eq!(outcome.nodes_used, expected_nodes, "{updates} updates");
            assert_eq!(outcome.overflow, 0);
        }
    }

    #[test]
    fn worstfit_spreads_across_all_nodes() {
        // SL-H's least-connection behaviour: even 20 updates land on all 5 nodes.
        let engine = PlacementEngine::new(PlacementPolicy::WorstFit);
        let mut caps = nodes(5, 20);
        let outcome = engine.place_batch(20, &mut caps);
        assert_eq!(outcome.nodes_used, 5);
    }

    #[test]
    fn firstfit_fills_in_order() {
        let engine = PlacementEngine::new(PlacementPolicy::FirstFit);
        let mut caps = nodes(3, 2);
        let outcome = engine.place_batch(4, &mut caps);
        assert_eq!(
            outcome.assignments,
            vec![
                NodeId::new(0),
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(1)
            ]
        );
    }

    #[test]
    fn capacity_is_never_exceeded_without_overflow() {
        let engine = PlacementEngine::new(PlacementPolicy::BestFit);
        let mut caps = nodes(5, 20);
        engine.place_batch(100, &mut caps);
        assert!(caps.iter().all(|c| c.assigned <= c.max_capacity));
    }

    #[test]
    fn overflow_beyond_total_capacity_still_assigns() {
        let engine = PlacementEngine::new(PlacementPolicy::BestFit);
        let mut caps = nodes(2, 5);
        let outcome = engine.place_batch(12, &mut caps);
        assert_eq!(outcome.assignments.len(), 12);
        assert_eq!(outcome.overflow, 2);
    }

    #[test]
    fn place_one_errors_when_full() {
        let engine = PlacementEngine::new(PlacementPolicy::FirstFit);
        let mut caps = nodes(1, 1);
        engine.place_one(&mut caps).unwrap();
        assert!(engine.place_one(&mut caps).is_err());
    }

    #[test]
    fn residual_accounts_assignment() {
        let mut cap = NodeCapacity::new(NodeId::new(0), 10);
        assert_eq!(cap.residual(), 10);
        cap.assigned = 4;
        assert_eq!(cap.residual(), 6);
        cap.assigned = 20;
        assert_eq!(cap.residual(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use lifl_types::PlacementPolicy;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn capacity_respected_and_all_updates_placed(
            updates in 1u64..120,
            nodes in 1u64..8,
            capacity in 1u32..40,
        ) {
            for policy in [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit] {
                let engine = PlacementEngine::new(policy);
                let mut caps: Vec<NodeCapacity> =
                    (0..nodes).map(|i| NodeCapacity::new(NodeId::new(i), capacity)).collect();
                let outcome = engine.place_batch(updates, &mut caps);
                prop_assert_eq!(outcome.assignments.len() as u64, updates);
                let total_capacity = nodes * capacity as u64;
                if updates <= total_capacity {
                    prop_assert_eq!(outcome.overflow, 0);
                    prop_assert!(caps.iter().all(|c| c.assigned <= c.max_capacity));
                }
            }
        }

        #[test]
        fn bestfit_never_uses_more_nodes_than_worstfit(updates in 1u64..100, nodes in 2u64..8) {
            let capacity = 20u32;
            let run = |policy| {
                let engine = PlacementEngine::new(policy);
                let mut caps: Vec<NodeCapacity> =
                    (0..nodes).map(|i| NodeCapacity::new(NodeId::new(i), capacity)).collect();
                engine.place_batch(updates, &mut caps).nodes_used
            };
            prop_assert!(run(PlacementPolicy::BestFit) <= run(PlacementPolicy::WorstFit));
        }
    }
}
