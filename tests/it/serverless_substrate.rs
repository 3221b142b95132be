//! Integration of the serverless substrate's mechanics with the FL
//! workload: the KPA control loop on an FL arrival trace, the gateway's
//! vertical scaling under the paper's two workload setups, and
//! heterogeneous-fleet placement feeding the hierarchy planner.

use lifl_serverless::kpa::{KpaAutoscaler, KpaConfig};
use lifl_sim::config::{NodeConfig, PlacementPolicy};
use lifl_sim::fleet::NodeFleet;
use lifl_sim::gateway_scaler::{GatewayScaler, GatewayScalerConfig};
use lifl_sim::hierarchy::HierarchyPlan;
use lifl_sim::placement::PlacementEngine;
use lifl_types::{ModelKind, SimTime};

#[test]
fn kpa_tracks_a_bursty_fl_round() {
    // Arrival burst typical of a synchronous round with hibernating clients
    // (Fig. 10(a)): nothing, then a spike of concurrent updates, then nothing.
    // Every 10 s the KPA's desired count becomes the ready count it sees next.
    let mut kpa = KpaAutoscaler::new(KpaConfig::default());
    let (mut ready, mut peak_ready) = (0u32, 0u32);
    for second in 0..600u64 {
        let now = SimTime::from_secs(second as f64);
        let concurrency = if (120..240).contains(&second) {
            12.0
        } else {
            0.0
        };
        kpa.observe(now, concurrency);
        if second % 10 == 0 {
            ready = kpa.evaluate(now, ready).desired_replicas;
            peak_ready = peak_ready.max(ready);
        }
    }
    // The burst forced a scale-up...
    assert!(
        peak_ready >= 4,
        "burst should ask for several replicas, saw {peak_ready}"
    );
    // ...and the idle tail scaled back down to zero.
    assert_eq!(ready, 0, "idle tail should scale to zero");
}

#[test]
fn gateway_vertical_scaling_follows_the_papers_two_workloads() {
    let mut scaler = GatewayScaler::new(GatewayScalerConfig::default()).unwrap();
    // ResNet-18 setup: 120 active mobile clients, bursty but small updates.
    let r18 = scaler.evaluate(SimTime::ZERO, ModelKind::ResNet18, 52.0);
    assert_eq!(
        r18.cores, 1,
        "44 MB updates at ~52/min fit one gateway core"
    );
    assert!(!r18.saturated);
    // ResNet-152 setup at high rate: 232 MB updates need more gateway cores.
    let r152 = scaler.evaluate(SimTime::from_secs(60.0), ModelKind::ResNet152, 120.0);
    assert!(r152.cores > r18.cores);
    assert!(
        !r152.saturated,
        "vertical scaling must keep the gateway off the critical path"
    );
}

#[test]
fn heterogeneous_fleet_placement_feeds_the_hierarchy_planner() {
    // A fleet with one big and two small nodes.
    let fleet = NodeFleet::heterogeneous(vec![
        NodeConfig {
            max_service_capacity: 30,
            ..NodeConfig::default()
        },
        NodeConfig {
            max_service_capacity: 10,
            cores: 16,
            ..NodeConfig::default()
        },
        NodeConfig {
            max_service_capacity: 10,
            cores: 16,
            ..NodeConfig::default()
        },
    ])
    .unwrap();
    assert!(!fleet.is_homogeneous());
    let engine = PlacementEngine::new(PlacementPolicy::BestFit);
    let mut capacities = fleet.capacities();
    let outcome = engine.place_batch(40, &mut capacities);
    assert_eq!(outcome.overflow, 0);
    // Per-node pending counts feed the hierarchy planner.
    let pending: Vec<(lifl_types::NodeId, u32)> =
        capacities.iter().map(|c| (c.node, c.assigned)).collect();
    let plan = HierarchyPlan::plan(&pending, 2);
    assert_eq!(plan.total_updates(), 40);
    // No node was planned beyond its capacity.
    for node in &plan.nodes {
        let mc = fleet.node(node.node).unwrap().max_service_capacity;
        assert!(
            node.pending_updates <= mc,
            "{} > MC {}",
            node.pending_updates,
            mc
        );
    }
    // The top aggregator sits on the most-loaded (big) node, minimising
    // cross-node transfers of intermediates.
    assert_eq!(plan.top_node, Some(lifl_types::NodeId::new(0)));
}
