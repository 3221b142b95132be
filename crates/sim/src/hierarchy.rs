//! Hierarchy-aware autoscaling (§5.2): the planner that builds a k-ary
//! aggregation tree on each node, sized to the estimated load (the EWMA of
//! the pending queue length, `lifl_core::ewma`) — two-level by default as in
//! the paper, deeper when an interior fan-in cap is configured
//! (`LiflConfig::max_interior_fan_in`).

use lifl_types::{NodeId, Topology};

/// The aggregation tree planned for one node: `leaves` leaf aggregators
/// feeding the node's interior levels (§5.2 plans one "central" middle;
/// with a capped interior fan-in, heavy nodes grow additional middle
/// levels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeHierarchy {
    /// The node this hierarchy lives on.
    pub node: NodeId,
    /// Number of model updates expected at this node.
    pub pending_updates: u32,
    /// Client updates per leaf the subtree was planned with (I, §5.2).
    pub leaf_fan_in: u32,
    /// The full subtree shape (the shape an in-process `Session` — or one
    /// node of a `Cluster` — would instantiate for this node's load). The
    /// leaf and middle counts derive from it, so the plan cannot hold an
    /// inconsistent triple.
    pub subtree: Topology,
}

impl NodeHierarchy {
    /// Number of leaf aggregators.
    pub fn leaves(&self) -> u32 {
        self.subtree.leaves() as u32
    }

    /// Whether at least one middle aggregator is needed (more than one leaf).
    pub fn middle(&self) -> bool {
        self.subtree.levels() > 1
    }

    /// Total aggregators in this node's subtree (every level's width).
    pub fn aggregators(&self) -> u32 {
        self.subtree.aggregators() as u32
    }

    /// This subtree as a [`Topology`]. Always agrees with
    /// [`NodeHierarchy::aggregators`] because it *is* the planned shape.
    pub fn topology(&self) -> Topology {
        self.subtree.clone()
    }
}

/// The cluster-wide hierarchy plan: per-node trees plus the node hosting the
/// top aggregator that updates the global model.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HierarchyPlan {
    /// Per-node subtrees (nodes with zero pending updates are omitted).
    pub nodes: Vec<NodeHierarchy>,
    /// The node chosen to host the top aggregator.
    pub top_node: Option<NodeId>,
}

impl HierarchyPlan {
    /// Plans the hierarchy from the per-node pending-update estimates.
    ///
    /// `leaf_fan_in` is the number of client updates per leaf aggregator
    /// (I, kept small — 2 — to maximise parallelism, §5.2). The top aggregator
    /// is placed on the node with the most pending updates so that the largest
    /// intermediate never crosses nodes.
    pub fn plan(pending_per_node: &[(NodeId, u32)], leaf_fan_in: u32) -> HierarchyPlan {
        Self::plan_capped(pending_per_node, leaf_fan_in, 0)
    }

    /// [`HierarchyPlan::plan`] with a cap on every interior aggregator's
    /// fan-in (`LiflConfig::max_interior_fan_in`; 0 = uncapped): heavily
    /// loaded nodes grow deeper-than-two-level subtrees instead of one wide
    /// middle, so cross-machine rounds can run 3+ levels end to end.
    pub fn plan_capped(
        pending_per_node: &[(NodeId, u32)],
        leaf_fan_in: u32,
        max_interior_fan_in: u32,
    ) -> HierarchyPlan {
        let mut nodes = Vec::new();
        let mut top_node = None;
        let mut top_load = 0u32;
        for &(node, pending) in pending_per_node {
            if pending == 0 {
                continue;
            }
            // The per-node subtree shape comes from the one shared
            // tree-sizing rule (§5.2) in `Topology::for_load_capped`.
            let subtree = Topology::for_load_capped(
                pending as usize,
                leaf_fan_in as usize,
                max_interior_fan_in as usize,
            );
            nodes.push(NodeHierarchy {
                node,
                pending_updates: pending,
                leaf_fan_in,
                subtree,
            });
            if pending > top_load || top_node.is_none() {
                top_load = pending;
                top_node = Some(node);
            }
        }
        HierarchyPlan { nodes, top_node }
    }

    /// Total aggregators in the plan (leaves + middles + the top).
    pub fn total_aggregators(&self) -> u32 {
        let subtree: u32 = self.nodes.iter().map(NodeHierarchy::aggregators).sum();
        subtree + u32::from(self.top_node.is_some())
    }

    /// The subtree planned on `node`, if any.
    pub fn on_node(&self, node: NodeId) -> Option<&NodeHierarchy> {
        self.nodes.iter().find(|h| h.node == node)
    }

    /// Total pending updates covered by the plan.
    pub fn total_updates(&self) -> u32 {
        self.nodes.iter().map(|h| h.pending_updates).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_all_updates_once() {
        let pending = vec![
            (NodeId::new(0), 20),
            (NodeId::new(1), 7),
            (NodeId::new(2), 0),
        ];
        let plan = HierarchyPlan::plan(&pending, 2);
        assert_eq!(plan.total_updates(), 27);
        assert_eq!(plan.nodes.len(), 2);
        let n0 = plan.on_node(NodeId::new(0)).unwrap();
        assert_eq!(n0.leaves(), 10);
        assert!(n0.middle());
        let n1 = plan.on_node(NodeId::new(1)).unwrap();
        assert_eq!(n1.leaves(), 4);
        assert!(plan.on_node(NodeId::new(2)).is_none());
        // Top on the most loaded node.
        assert_eq!(plan.top_node, Some(NodeId::new(0)));
        assert_eq!(plan.total_aggregators(), 10 + 1 + 4 + 1 + 1);
    }

    #[test]
    fn node_subtree_converts_to_topology() {
        let plan = HierarchyPlan::plan(&[(NodeId::new(0), 20), (NodeId::new(1), 2)], 2);
        let big = plan.on_node(NodeId::new(0)).unwrap().topology();
        assert_eq!(big.levels(), 2);
        assert_eq!(big.leaves(), 10);
        assert_eq!(big.fan_in(0), 2);
        let small = plan.on_node(NodeId::new(1)).unwrap().topology();
        assert_eq!(small.levels(), 1, "one leaf's load plans a flat subtree");
        // The derived topology always agrees with the plan's own counts.
        let node = plan.on_node(NodeId::new(0)).unwrap();
        assert_eq!(big.aggregators() as u32, node.aggregators());
    }

    #[test]
    fn capped_plan_grows_deep_subtrees() {
        let pending = vec![(NodeId::new(0), 40), (NodeId::new(1), 4)];
        let plan = HierarchyPlan::plan_capped(&pending, 2, 4);
        let heavy = plan.on_node(NodeId::new(0)).unwrap();
        assert!(heavy.subtree.levels() > 2, "{}", heavy.subtree);
        assert!(heavy.subtree.fan_ins()[1..].iter().all(|f| *f <= 4));
        assert_eq!(heavy.aggregators(), heavy.subtree.aggregators() as u32);
        // Light nodes keep the paper's two-level (or flat) shape.
        let light = plan.on_node(NodeId::new(1)).unwrap();
        assert_eq!(light.subtree.levels(), 2);
        // Uncapped planning is the classic plan.
        assert_eq!(
            HierarchyPlan::plan_capped(&pending, 2, 0),
            HierarchyPlan::plan(&pending, 2)
        );
    }

    #[test]
    fn single_leaf_needs_no_middle() {
        let plan = HierarchyPlan::plan(&[(NodeId::new(3), 2)], 2);
        let h = plan.on_node(NodeId::new(3)).unwrap();
        assert_eq!(h.leaves(), 1);
        assert!(!h.middle());
        assert_eq!(h.aggregators(), 1);
    }

    #[test]
    fn empty_plan() {
        let plan = HierarchyPlan::plan(&[], 2);
        assert_eq!(plan.total_aggregators(), 0);
        assert!(plan.top_node.is_none());
    }

    #[test]
    fn fan_in_of_zero_is_clamped() {
        let plan = HierarchyPlan::plan(&[(NodeId::new(0), 5)], 0);
        assert_eq!(plan.on_node(NodeId::new(0)).unwrap().leaves(), 5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn plan_covers_every_update_with_bounded_fan_in(
            pending in proptest::collection::vec(0u32..60, 1..8),
            fan_in in 1u32..6,
        ) {
            let input: Vec<(NodeId, u32)> = pending
                .iter()
                .enumerate()
                .map(|(i, p)| (NodeId::new(i as u64), *p))
                .collect();
            let plan = HierarchyPlan::plan(&input, fan_in);
            let expected: u32 = pending.iter().sum();
            prop_assert_eq!(plan.total_updates(), expected);
            for node in &plan.nodes {
                prop_assert!(node.pending_updates > 0);
                // Leaves suffice for the load and never exceed it by more than one leaf.
                prop_assert!(node.leaves() * fan_in >= node.pending_updates);
                prop_assert!((node.leaves() - 1) * fan_in < node.pending_updates);
            }
            if expected > 0 {
                prop_assert!(plan.top_node.is_some());
            }
        }
    }
}
