//! Walks the LIFL control-plane loop of Fig. 6: agents drain eBPF sidecar
//! metrics, report load to the metric server, and the coordinator re-plans the
//! per-node aggregation hierarchy from EWMA-smoothed queue estimates.
//!
//! Run with: `cargo run -p lifl-examples --example control_plane_loop`

use lifl_sim::agent::LiflAgent;
use lifl_sim::coordinator::LiflCoordinator;
use lifl_types::{AggregatorId, ClusterConfig, LiflConfig, NodeId, SimDuration, SimTime};

fn main() {
    let cluster = ClusterConfig::default();
    let mut coordinator = LiflCoordinator::new(cluster.clone(), LiflConfig::default());
    let mut agents: Vec<LiflAgent> = (0..cluster.aggregation_nodes as u64)
        .map(|i| LiflAgent::new(NodeId::new(i)))
        .collect();

    // Simulate three reporting periods with shifting load.
    for period in 0..3u64 {
        let now = SimTime::from_secs(120.0 * (period + 1) as f64);
        for (idx, agent) in agents.iter_mut().enumerate() {
            // Load concentrates on lower-numbered nodes and grows over time.
            let arrivals = (3 * (period + 1)).saturating_sub(idx as u64);
            for a in 0..arrivals {
                agent.record_arrival();
                agent.metrics().record_aggregation(
                    AggregatorId::new(a),
                    SimDuration::from_secs(0.5),
                    now,
                );
            }
            let load = agent.report_load(now);
            coordinator.metric_server_mut().report(agent.node(), load);
        }
        if coordinator.replan_due(now) {
            let plan = coordinator.replan(now);
            println!(
                "t={:>5.0}s  plan: {} aggregators over {} nodes, top on {:?}",
                now.as_secs(),
                plan.total_aggregators(),
                plan.nodes.len(),
                plan.top_node
            );
            for node_plan in &plan.nodes {
                println!(
                    "    {}: {} pending -> {} leaves{}",
                    node_plan.node,
                    node_plan.pending_updates,
                    node_plan.leaves(),
                    if node_plan.middle() { " + middle" } else { "" }
                );
            }
        }
    }
    println!("re-plans executed: {}", coordinator.replans());
}
