//! Integration tests of the extension features: client-selection strategies,
//! asynchronous aggregation (Fig. 11 / future work) and heartbeat-based
//! failure handling, combined with the core platform.

use lifl_core::heartbeat::{over_provisioned_selection, HeartbeatMonitor};
use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::async_driver::AsyncAggregator;
use lifl_fl::selector::{select_clients, SelectionStrategy};
use lifl_fl::{DenseModel, Population, PopulationConfig};
use lifl_sim::platform::{LiflPlatform, RoundSpec};
use lifl_simcore::SimRng;
use lifl_types::{
    AggregationTiming, ClientId, ClusterConfig, LiflConfig, ModelKind, SimDuration, SimTime,
};

#[test]
fn selection_strategies_feed_the_platform() {
    let mut rng = SimRng::from_seed(11);
    let population = Population::generate(
        PopulationConfig {
            total_clients: 100,
            active_per_round: 30,
            ..PopulationConfig::resnet18_paper()
        },
        &mut rng,
    );
    let mut platform = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
    for strategy in [
        SelectionStrategy::UniformRandom,
        SelectionStrategy::DataSizeWeighted,
        SelectionStrategy::FastestFirst,
    ] {
        let selected = select_clients(
            strategy,
            population.clients(),
            30,
            ModelKind::ResNet18,
            &mut rng,
        );
        let arrivals: Vec<SimTime> = selected
            .iter()
            .map(|c| {
                c.update_arrival(
                    SimTime::ZERO,
                    ModelKind::ResNet18,
                    SimDuration::from_secs(1.0),
                    &mut rng,
                )
            })
            .collect();
        let report = platform.run_round(&RoundSpec::new(ModelKind::ResNet18, arrivals));
        assert_eq!(report.metrics.updates_aggregated, 30, "{strategy:?}");
    }
}

#[test]
fn asynchronous_aggregation_advances_versions_under_streaming_updates() {
    let mut agg = AsyncAggregator::new(4, AggregationTiming::Eager).unwrap();
    let mut committed = 0;
    for i in 0..20u64 {
        let update = ModelUpdate::from_client(
            ClientId::new(i),
            DenseModel::from_vec(vec![i as f32, 1.0]),
            i + 1,
        );
        let base_version = i / 6; // some clients train against stale versions
        if agg
            .submit(update.into(), base_version, SimTime::from_secs(i as f64))
            .unwrap()
            .is_some()
        {
            committed += 1;
        }
    }
    assert_eq!(committed, 5);
    assert_eq!(agg.versions().len(), 5);
    // Staleness is tracked per committed window.
    assert!(agg.versions().iter().any(|v| v.stale_updates > 0));
}

#[test]
fn heartbeats_plus_overprovisioning_keep_the_round_on_goal() {
    // Select enough clients that, after drop-outs flagged by the heartbeat
    // monitor, the aggregation goal is still met.
    let goal = 20u64;
    let selected = over_provisioned_selection(goal, 0.2).unwrap();
    assert!(selected > goal);

    let mut monitor = HeartbeatMonitor::new(SimDuration::from_secs(60.0));
    for i in 0..selected {
        monitor.register(ClientId::new(i), SimTime::ZERO);
    }
    // 20% of clients go silent; the rest heartbeat and deliver.
    let silent = (selected as f64 * 0.2) as u64;
    for i in silent..selected {
        monitor.heartbeat(ClientId::new(i), SimTime::from_secs(90.0));
    }
    let failed = monitor.failed_clients(SimTime::from_secs(120.0));
    assert_eq!(failed.len() as u64, silent);

    let delivered = selected - silent;
    assert!(
        delivered >= goal,
        "{delivered} deliveries still meet the goal of {goal}"
    );
    let mut platform = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
    let arrivals: Vec<SimTime> = (0..delivered)
        .map(|i| SimTime::from_secs(i as f64))
        .collect();
    let report = platform.run_round(&RoundSpec::new(ModelKind::ResNet152, arrivals));
    assert_eq!(report.metrics.updates_aggregated, delivered);
}
