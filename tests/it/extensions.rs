//! Integration tests of the extension features: client-selection strategies,
//! asynchronous aggregation (Fig. 11 / future work) and heartbeat-based
//! failure handling, combined with the core platform.

use lifl_core::heartbeat::{over_provisioned_selection, HeartbeatMonitor};
use lifl_core::session::{Session, SessionBuilder, Update};
use lifl_core::training::{TrainingConfig, TrainingDriver};
use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
use lifl_fl::selector::{select_clients, SelectionStrategy};
use lifl_fl::staleness::StalenessPolicy;
use lifl_fl::{
    ClientAvailability, DenseModel, Ingest, Population, PopulationConfig, RoundAggregate,
};
use lifl_sim::config::{ClusterConfig, LiflConfig};
use lifl_sim::platform::{LiflPlatform, RoundSpec};
use lifl_simcore::SimRng;
use lifl_types::{ClientId, CodecKind, ModelKind, SimDuration, SimTime, Topology};

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

/// A quantizing flat session that records what the training driver hands
/// it: every ingested update, in order, and the bits of every aggregate.
struct Recorder {
    session: Session,
    ingested: Vec<Update>,
    aggregates: Vec<Vec<u32>>,
}

fn bits(model: &DenseModel) -> Vec<u32> {
    model.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn buffer(goal: usize) -> Session {
    SessionBuilder::new()
        .topology(Topology::flat(goal))
        .codec(CodecKind::Uniform8)
        .build()
        .unwrap()
}

impl Ingest for Recorder {
    fn ingest_update(&mut self, update: Update) -> lifl_types::Result<()> {
        self.ingested.push(update.clone());
        self.session.ingest_update(update)
    }

    fn round_capacity(&self) -> usize {
        self.session.round_capacity()
    }

    fn ingress_codec(&self) -> CodecKind {
        self.session.ingress_codec()
    }

    fn aggregate_round(&mut self) -> lifl_types::Result<RoundAggregate> {
        let aggregate = self.session.aggregate_round()?;
        self.aggregates.push(bits(&aggregate.update.model));
        Ok(aggregate)
    }

    fn discard_round(&mut self) {
        self.session.discard_round();
    }
}

/// An asynchronous run is the same session driven by hand: the updates it
/// ingested, staleness-weighted, through a twin session that drives at each
/// fill give every version's model, bit for bit — error feedback included.
#[test]
fn asynchronous_aggregation_advances_versions_under_streaming_updates() {
    let goal = 4;
    let mut rng = SimRng::from_seed(19);
    let dataset = FederatedDataset::generate(
        DatasetConfig {
            num_clients: 24,
            num_features: 10,
            num_classes: 5,
            mean_samples_per_client: 30,
            dirichlet_alpha: 0.5,
            test_samples: 100,
            noise_std: 0.4,
        },
        &mut rng,
    );
    let shards: Vec<u64> = (0..24)
        .map(|c| dataset.shard(ClientId::new(c)).len() as u64)
        .collect();
    let population = Population::generate(
        PopulationConfig {
            total_clients: 24,
            active_per_round: 10,
            availability: ClientAvailability::Hibernating { max_secs: 20.0 },
            mean_samples: 30,
            speed_spread: 0.5,
        },
        &mut rng,
    );
    let recorder = Recorder {
        session: buffer(goal),
        ingested: Vec::new(),
        aggregates: Vec::new(),
    };
    let config = TrainingConfig {
        rounds: 5,
        ..TrainingConfig::default()
    };
    let mut driver = TrainingDriver::new(recorder, dataset, population, config);
    let policy = StalenessPolicy::Polynomial { exponent: 1.0 };
    let versions = driver.run_async(&mut rng, policy).unwrap();
    assert_eq!(versions.len(), 5);
    // Clients kept training against older versions, and it cost them weight.
    assert!(versions.iter().any(|v| v.stale_updates > 0));
    let recorder = driver.backend();
    assert_eq!(recorder.ingested.len(), 5 * goal);
    let weights = recorder.ingested.iter().map(|u| {
        let client = u.client().expect("a client's update");
        (u.weight(), shards[client.index() as usize].max(1))
    });
    assert!(weights.clone().all(|(weight, samples)| weight <= samples));
    assert!(weights.clone().any(|(weight, samples)| weight < samples));
    let mut twin = buffer(goal);
    for (window, version) in recorder.ingested.chunks(goal).zip(&recorder.aggregates) {
        twin.ingest_all(window.iter().cloned()).unwrap();
        assert_eq!(bits(&twin.drive().unwrap().update.model), *version);
    }
    assert_eq!(recorder.aggregates.len(), 5);
    assert_eq!(bits(driver.global_model()), recorder.aggregates[4]);
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
