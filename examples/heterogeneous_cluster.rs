//! Heterogeneous worker fleets (§6.1 footnote 6, Appendix E): per-node MC_i
//! varies, the selector's bin-packing respects it, and the hierarchy planner
//! sizes each node's aggregation subtree to the load it actually received.
//!
//! Run with: `cargo run -p lifl-examples --example heterogeneous_cluster`

use lifl_fl::client::ClientAvailability;
use lifl_fl::population::{Population, PopulationConfig};
use lifl_sim::config::NodeConfig;
use lifl_sim::fleet::{estimate_max_capacity, NodeFleet};
use lifl_sim::hierarchy::HierarchyPlan;
use lifl_sim::selector::{SelectorConfig, SelectorService};
use lifl_simcore::SimRng;
use lifl_types::SimDuration;

fn main() {
    // Three node classes: one big 64-core node and two smaller 16-core nodes.
    // MC_i is estimated offline from per-update execution time and core count
    // (Appendix E), instead of assuming the paper's homogeneous MC = 20.
    let base_exec = SimDuration::from_secs(0.5);
    let nodes: Vec<NodeConfig> = [(64u32, 2.8), (16, 2.4), (16, 2.4)]
        .iter()
        .map(|&(cores, clock)| NodeConfig {
            cores,
            clock_ghz: clock,
            max_service_capacity: estimate_max_capacity(base_exec, cores, 1.5),
            ..NodeConfig::default()
        })
        .collect();
    for (i, node) in nodes.iter().enumerate() {
        println!(
            "node-{i}: {} cores -> estimated MC_i = {}",
            node.cores, node.max_service_capacity
        );
    }
    let fleet = NodeFleet::heterogeneous(nodes).expect("valid fleet");
    println!(
        "fleet: {} nodes, total service capacity {}\n",
        fleet.len(),
        fleet.total_capacity()
    );

    // Select a round's clients and map them onto the fleet's gateways.
    let mut rng = SimRng::from_seed(17);
    let population = Population::generate(
        PopulationConfig {
            total_clients: 500,
            active_per_round: 100,
            availability: ClientAvailability::Hibernating { max_secs: 60.0 },
            mean_samples: 80,
            speed_spread: 0.5,
        },
        &mut rng,
    );
    let selector = SelectorService::new(SelectorConfig {
        aggregation_goal: 100,
        expected_dropout: 0.1,
        ..SelectorConfig::default()
    })
    .expect("valid selector config");
    let assignment = selector.assign_round(population.clients(), &fleet, &mut rng);
    println!(
        "selected {} clients ({} over-provisioned, {} waiting for capacity)",
        assignment.selected(),
        assignment.over_provisioned,
        assignment.unassigned
    );
    for (node, pending) in &assignment.pending_per_node {
        let mc = fleet
            .node(*node)
            .expect("node in fleet")
            .max_service_capacity;
        println!("  {node}: {pending} updates queued (MC_i = {mc})");
    }

    // Plan each node's aggregation subtree from its pending load.
    let plan = HierarchyPlan::plan(&assignment.pending_per_node, 2);
    println!(
        "\nhierarchy plan ({} aggregators in total):",
        plan.total_aggregators()
    );
    for node in &plan.nodes {
        println!(
            "  {}: {} leaves{}{}",
            node.node,
            node.leaves(),
            if node.middle() { " + 1 middle" } else { "" },
            if Some(node.node) == plan.top_node {
                " + the top aggregator"
            } else {
                ""
            }
        );
    }
}
