//! Cross-crate integration of the algorithm-level extensions with the
//! aggregation substrate: server optimizers as the training driver's commit,
//! FedProx's proximal term in the driver's local step, staleness weighting
//! feeding the cumulative accumulator, and asynchronous training committing
//! a version every `goal` updates.

use lifl_core::cluster::ClusterBuilder;
use lifl_core::session::SessionBuilder;
use lifl_core::training::{TrainingConfig, TrainingDriver};
use lifl_fl::aggregate::{fedavg, CumulativeFedAvg, ModelUpdate};
use lifl_fl::client::ClientAvailability;
use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
use lifl_fl::population::{Population, PopulationConfig};
use lifl_fl::server_opt::{ServerOptConfig, ServerOptKind};
use lifl_fl::staleness::StalenessPolicy;
use lifl_fl::trainer::TrainerConfig;
use lifl_fl::{DenseModel, FlatFedAvg, Ingest};
use lifl_simcore::SimRng;
use lifl_types::{ClientId, CodecKind, Topology};

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

/// The small workload with `active` participants a round, and the
/// generator the driver runs on.
fn small_workload(active: usize) -> (FederatedDataset, Population, SimRng) {
    let mut rng = SimRng::from_seed(31);
    let dataset = small_dataset(&mut rng);
    let population = Population::generate(
        PopulationConfig {
            total_clients: 30,
            active_per_round: active,
            availability: ClientAvailability::AlwaysOn,
            mean_samples: 40,
            speed_spread: 0.3,
        },
        &mut rng,
    );
    (dataset, population, SimRng::from_seed(77))
}

/// Local SGD as the algorithm tests run it, with proximal coefficient `mu`.
fn trainer(mu: f32) -> TrainerConfig {
    TrainerConfig {
        batch_size: 16,
        learning_rate: 0.05,
        local_epochs: 2,
        mu,
    }
}

#[test]
fn adaptive_server_optimizers_learn_through_the_round_loop() {
    for kind in [ServerOptKind::FedAvg, ServerOptKind::FedAdam] {
        let (dataset, population, mut rng) = small_workload(10);
        let config = TrainingConfig {
            trainer: trainer(0.0),
            server: ServerOptConfig::for_kind(kind),
            rounds: 10,
            ..TrainingConfig::default()
        };
        let backend = FlatFedAvg::new(10, CodecKind::Identity);
        let mut driver = TrainingDriver::new(backend, dataset, population, config);
        let initial = driver.evaluate();
        driver.run_all(&mut rng).unwrap();
        let final_acc = driver.evaluate();
        assert!(
            final_acc > initial + 15.0,
            "{kind}: accuracy should improve materially ({initial:.1} -> {final_acc:.1})"
        );
    }
}

/// Three rounds of the small workload over `backend`: every round's loss
/// bits and accuracy, and the global model's bits.
fn proximal_run<B: Ingest>(backend: B, mu: f32) -> (Vec<(u64, f64)>, Vec<u32>) {
    let (dataset, population, mut rng) = small_workload(8);
    let config = TrainingConfig {
        trainer: trainer(mu),
        rounds: 3,
        ..TrainingConfig::default()
    };
    let mut driver = TrainingDriver::new(backend, dataset, population, config);
    let history = driver.run_all(&mut rng).unwrap();
    let rounds = (history.iter())
        .map(|r| (r.train_loss.to_bits(), r.accuracy.unwrap()))
        .collect();
    let model = driver.global_model().as_slice();
    (rounds, model.iter().map(|v| v.to_bits()).collect())
}

/// FedProx is the driver's local step, so its updates take every engine
/// path: over the flat backend it is a flat session's run, and over a
/// `[2, 2, 2]` session it is the same tree as a two-node cluster's run,
/// bit for bit under a lossless and a lossy codec. The term is applied
/// (μ > 0 is not μ = 0's run) and the run still learns.
#[test]
fn fedprox_trains_through_the_driver_over_every_backend() {
    let mu = 0.1;
    let flat = proximal_run(FlatFedAvg::new(8, CodecKind::Identity), mu);
    let flat_session = SessionBuilder::new()
        .topology(Topology::flat(8))
        .build()
        .unwrap();
    assert_eq!(proximal_run(flat_session, mu), flat);
    assert_ne!(
        proximal_run(FlatFedAvg::new(8, CodecKind::Identity), 0.0),
        flat
    );
    for codec in [CodecKind::Identity, CodecKind::Uniform8] {
        let tree = || Topology::new(vec![2, 2, 2]).unwrap();
        let session = SessionBuilder::new()
            .topology(tree())
            .codec(codec)
            .build()
            .unwrap();
        let cluster = ClusterBuilder::new()
            .topology(tree())
            .codec(codec)
            .build()
            .unwrap();
        let over_session = proximal_run(session, mu);
        assert_eq!(proximal_run(cluster, mu), over_session, "{codec}");
        let loss = |round: usize| f64::from_bits(over_session.0[round].0);
        assert!(loss(2) < loss(0), "{codec}: {:?}", over_session.0);
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
            local_epochs: 1,
            ..trainer(0.0)
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
