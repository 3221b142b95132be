//! Integration of the serverless substrate's finer-grained mechanics with the
//! FL workload: the KPA control loop driving pod reconciliation on an FL
//! arrival trace, cascading cold starts versus LIFL's planned hierarchy, the
//! gateway's vertical scaling under the paper's two workload setups, and
//! heterogeneous-fleet placement feeding the hierarchy planner.

use lifl_dataplane::CostModel;
use lifl_serverless::chain::{ChainScaling, FunctionChain};
use lifl_serverless::kpa::{KpaAutoscaler, KpaConfig};
use lifl_serverless::revision::Revision;
use lifl_sim::fleet::NodeFleet;
use lifl_sim::gateway_scaler::{GatewayScaler, GatewayScalerConfig};
use lifl_sim::hierarchy::HierarchyPlan;
use lifl_sim::placement::PlacementEngine;
use lifl_types::{ModelKind, NodeConfig, PlacementPolicy, SimTime, SystemKind};

#[test]
fn kpa_plus_revision_track_a_bursty_fl_round() {
    // Arrival burst typical of a synchronous round with hibernating clients
    // (Fig. 10(a)): nothing, then a spike of concurrent updates, then nothing.
    let mut kpa = KpaAutoscaler::new(KpaConfig::default());
    let mut revision = Revision::new(
        "aggregator-rev-1",
        CostModel::paper_calibrated().startup(SystemKind::Serverless),
    );
    let mut peak_ready = 0u32;
    for second in 0..600u64 {
        let now = SimTime::from_secs(second as f64);
        let concurrency = if (120..240).contains(&second) {
            12.0
        } else {
            0.0
        };
        kpa.observe(now, concurrency);
        if second % 10 == 0 {
            let ready = revision.ready_pods(now);
            let decision = kpa.evaluate(now, ready);
            revision.reconcile(now, decision.desired_replicas);
            peak_ready = peak_ready.max(revision.ready_pods(now));
        }
    }
    // The burst forced a scale-up...
    assert!(
        peak_ready >= 4,
        "burst should create several pods, saw {peak_ready}"
    );
    assert!(revision.stats().pods_created >= 4);
    // ...and the idle tail scaled the revision back down (eventually to zero).
    let end = SimTime::from_secs(600.0);
    assert!(
        revision.ready_pods(end) <= 1,
        "idle tail should scale back down"
    );
    // Every created pod paid a cold start worth of CPU.
    assert!(revision.stats().startup_cpu.as_secs() > 0.0);
}

#[test]
fn planned_hierarchy_avoids_the_cascading_cold_start_of_reactive_chains() {
    let startup_sl = CostModel::paper_calibrated().startup(SystemKind::Serverless);
    let startup_lifl = CostModel::paper_calibrated().startup(SystemKind::Lifl);
    // The serverless baseline scales its leaf->middle->top chain reactively.
    let mut reactive = FunctionChain::aggregation_chain(SystemKind::Serverless, 3, startup_sl);
    let baseline = reactive.scale_for_traffic(SimTime::ZERO, ChainScaling::Reactive);
    // LIFL plans the hierarchy ahead of the arrivals and uses its lightweight runtime.
    let mut planned = FunctionChain::aggregation_chain(SystemKind::Lifl, 3, startup_lifl);
    let lifl = planned.scale_for_traffic(SimTime::ZERO, ChainScaling::PrePlanned);
    assert!(
        lifl.chain_ready_at.as_secs() * 2.0 < baseline.chain_ready_at.as_secs(),
        "planned LIFL chain ({:.1}s) should be well under half the reactive baseline ({:.1}s)",
        lifl.chain_ready_at.as_secs(),
        baseline.chain_ready_at.as_secs()
    );
    assert_eq!(baseline.cold_starts(), 3);
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
