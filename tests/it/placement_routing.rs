//! Consistency between placement, the hierarchy plan, the TAG and routing.

use lifl_sim::hierarchy::HierarchyPlan;
use lifl_sim::placement::{NodeCapacity, PlacementEngine};
use lifl_sim::tag::{Role, TopologyAbstractionGraph};
use lifl_sim::RoutingTable;
use lifl_types::{AggregatorId, AggregatorRole, NodeId, PlacementPolicy};

#[test]
fn placement_feeds_hierarchy_plan_and_routes() {
    // Place 24 updates over 3 nodes of capacity 20 with BestFit.
    let engine = PlacementEngine::new(PlacementPolicy::BestFit);
    let mut caps: Vec<NodeCapacity> = (0..3)
        .map(|i| NodeCapacity::new(NodeId::new(i), 20))
        .collect();
    let outcome = engine.place_batch(24, &mut caps);
    assert_eq!(outcome.assignments.len(), 24);
    assert_eq!(outcome.nodes_used, 2);

    // Build the per-node pending counts and plan the hierarchy.
    let mut pending: Vec<(NodeId, u32)> = Vec::new();
    for cap in &caps {
        pending.push((cap.node, cap.assigned));
    }
    let plan = HierarchyPlan::plan(&pending, 2);
    assert_eq!(plan.total_updates(), 24);
    let top = plan.top_node.unwrap();

    // Build a TAG from the plan and check routing tables on every node.
    let mut tag = TopologyAbstractionGraph::new();
    let mut next_id = 0u64;
    let mut middles = Vec::new();
    for node_plan in &plan.nodes {
        let mut leaf_ids = Vec::new();
        for _ in 0..node_plan.leaves() {
            let id = AggregatorId::new(next_id);
            next_id += 1;
            tag.add_role(Role {
                aggregator: id,
                role: AggregatorRole::Leaf,
                node: node_plan.node,
                group: format!("node-{}", node_plan.node.index()),
            });
            leaf_ids.push(id);
        }
        let mid = AggregatorId::new(next_id);
        next_id += 1;
        tag.add_role(Role {
            aggregator: mid,
            role: AggregatorRole::Middle,
            node: node_plan.node,
            group: format!("node-{}", node_plan.node.index()),
        });
        for leaf in leaf_ids {
            assert!(tag.connect(leaf, mid).is_some());
        }
        middles.push((node_plan.node, mid));
    }
    let top_agg = AggregatorId::new(next_id);
    tag.add_role(Role {
        aggregator: top_agg,
        role: AggregatorRole::Top,
        node: top,
        group: format!("node-{}", top.index()),
    });
    for (_, mid) in &middles {
        assert!(tag.connect(*mid, top_agg).is_some());
    }

    // Every middle can resolve its next hop to the top from its own node.
    for (node, mid) in &middles {
        let mut table = RoutingTable::new(*node);
        table.apply_tag(&tag);
        let hop = table.next_hop(*mid, top_agg).expect("route to top");
        if *node == top {
            assert!(matches!(hop, lifl_sim::routing::NextHop::Local(_)));
        } else {
            assert!(matches!(hop, lifl_sim::routing::NextHop::Remote { .. }));
        }
    }
    // Intra-node channels never cross the gateway.
    assert_eq!(
        tag.inter_node_channels(),
        middles.iter().filter(|(n, _)| *n != top).count()
    );
}
