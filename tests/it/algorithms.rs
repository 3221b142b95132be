//! Cross-crate integration of the algorithm-level extensions with the
//! aggregation substrate: server optimizers driving the synchronous round
//! loop, FedProx updates flowing through hierarchical FedAvg, staleness
//! weighting feeding the cumulative accumulator, and asynchronous training
//! committing a version every `goal` updates.

use lifl_core::session::SessionBuilder;
use lifl_core::training::{TrainingConfig, TrainingDriver};
use lifl_fl::aggregate::{fedavg, CumulativeFedAvg, ModelUpdate};
use lifl_fl::client::ClientAvailability;
use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
use lifl_fl::fedprox::{FedProxConfig, FedProxTrainer};
use lifl_fl::metrics::accuracy_percent;
use lifl_fl::population::{Population, PopulationConfig};
use lifl_fl::server_opt::{ServerOptConfig, ServerOptKind, ServerOptimizer};
use lifl_fl::staleness::StalenessPolicy;
use lifl_fl::trainer::{LocalTrainer, TrainerConfig};
use lifl_fl::DenseModel;
use lifl_simcore::SimRng;
use lifl_types::{ClientId, Topology};

fn small_dataset(rng: &mut SimRng) -> FederatedDataset {
    FederatedDataset::generate(
        DatasetConfig {
            num_clients: 30,
            num_features: 12,
            num_classes: 5,
            mean_samples_per_client: 40,
            dirichlet_alpha: 0.4,
            test_samples: 250,
            noise_std: 0.4,
        },
        rng,
    )
}

#[test]
fn adaptive_server_optimizers_learn_through_the_round_loop() {
    let mut rng = SimRng::from_seed(31);
    let dataset = small_dataset(&mut rng);
    let population = Population::generate(
        PopulationConfig {
            total_clients: 30,
            active_per_round: 10,
            availability: ClientAvailability::AlwaysOn,
            mean_samples: 40,
            speed_spread: 0.3,
        },
        &mut rng,
    );
    let trainer = LocalTrainer::new(
        dataset.num_features,
        dataset.num_classes,
        TrainerConfig {
            batch_size: 16,
            learning_rate: 0.05,
            local_epochs: 2,
        },
    );
    for kind in [ServerOptKind::FedAvg, ServerOptKind::FedAdam] {
        let mut rng = SimRng::from_seed(77);
        let mut optimizer = ServerOptimizer::new(ServerOptConfig::for_kind(kind)).unwrap();
        let mut global = dataset.initial_model();
        let initial = accuracy_percent(&trainer, &global, dataset.test_set());
        for _ in 0..10 {
            let participants = population.select_round(&mut rng);
            let updates: Vec<ModelUpdate> = participants
                .iter()
                .map(|c| {
                    let shard = dataset.shard(c.id);
                    let (local, _) = trainer.train(&global, shard, &mut rng);
                    ModelUpdate::from_client(c.id, local, shard.len().max(1) as u64)
                })
                .collect();
            let aggregate = fedavg(&updates).unwrap();
            optimizer.step(&mut global, &aggregate.model).unwrap();
        }
        let final_acc = accuracy_percent(&trainer, &global, dataset.test_set());
        assert!(
            final_acc > initial + 15.0,
            "{kind}: accuracy should improve materially ({initial:.1} -> {final_acc:.1})"
        );
    }
}

#[test]
fn fedprox_updates_flow_through_hierarchical_fedavg() {
    let mut rng = SimRng::from_seed(5);
    let dataset = small_dataset(&mut rng);
    let trainer = FedProxTrainer::new(
        dataset.num_features,
        dataset.num_classes,
        FedProxConfig {
            mu: 0.1,
            learning_rate: 0.05,
            local_epochs: 2,
            batch_size: 16,
        },
    )
    .unwrap();
    let global = dataset.initial_model();
    let updates: Vec<ModelUpdate> = (0..8u64)
        .map(|c| {
            let shard = dataset.shard(ClientId::new(c));
            let (local, _) = trainer.train(&global, shard, &mut rng);
            ModelUpdate::from_client(ClientId::new(c), local, shard.len().max(1) as u64)
        })
        .collect();
    // Hierarchical aggregation (two leaves + top) matches flat aggregation.
    let flat = fedavg(&updates).unwrap();
    let leaf_a = fedavg(&updates[..4]).unwrap();
    let leaf_b = fedavg(&updates[4..]).unwrap();
    let top = fedavg(&[leaf_a, leaf_b]).unwrap();
    assert_eq!(flat.samples, top.samples);
    for (x, y) in flat.model.as_slice().iter().zip(top.model.as_slice()) {
        assert!((x - y).abs() < 1e-3, "{x} vs {y}");
    }
}

#[test]
fn staleness_weighting_shifts_the_aggregate_toward_fresh_updates() {
    let fresh = ModelUpdate::from_client(ClientId::new(1), DenseModel::from_vec(vec![1.0]), 100);
    let stale = ModelUpdate::from_client(ClientId::new(2), DenseModel::from_vec(vec![-1.0]), 100);
    let policy = StalenessPolicy::Polynomial { exponent: 2.0 };
    // Unweighted: the two cancel out.
    let unweighted = fedavg(&[fresh.clone(), stale.clone()]).unwrap();
    assert!(unweighted.model.as_slice()[0].abs() < 1e-6);
    // Weighted: the stale update (tau = 5) is discounted, pulling the mean
    // toward the fresh update.
    let mut acc = CumulativeFedAvg::new(1);
    for (update, tau) in [(fresh, 0), (stale, 5)] {
        let samples = policy.scaled_samples(update.samples, tau);
        acc.fold(&ModelUpdate { samples, ..update }).unwrap();
    }
    let weighted = acc.finalize().unwrap();
    assert!(
        weighted.model.as_slice()[0] > 0.5,
        "weighted mean {} should lean toward the fresh update",
        weighted.model.as_slice()[0]
    );
}

#[test]
fn algorithm_level_async_driver_matches_platform_async_semantics() {
    // The driver owns no buffer of its own: a flat session of fan-in `goal`
    // commits a version every `goal` ingested updates, and the driver's
    // history must show exactly that across a real training run.
    let goal = 6;

    let mut rng = SimRng::from_seed(13);
    let dataset = small_dataset(&mut rng);
    let population = Population::generate(
        PopulationConfig {
            total_clients: 30,
            active_per_round: 12,
            availability: ClientAvailability::AlwaysOn,
            mean_samples: 40,
            speed_spread: 0.4,
        },
        &mut rng,
    );
    let buffer = SessionBuilder::new()
        .topology(Topology::flat(goal))
        .build()
        .unwrap();
    let config = TrainingConfig {
        trainer: TrainerConfig {
            batch_size: 16,
            learning_rate: 0.05,
            local_epochs: 1,
        },
        rounds: 3,
        eval_every: 1,
        ..TrainingConfig::default()
    };
    let mut driver = TrainingDriver::new(buffer, dataset, population, config);
    let versions = driver
        .run_async(&mut rng, StalenessPolicy::Constant)
        .unwrap();
    assert_eq!(versions.len(), 3);
    assert_eq!(driver.staleness().count(), 18);
    for v in versions {
        assert_eq!(v.round.updates, goal as u64);
    }
}
