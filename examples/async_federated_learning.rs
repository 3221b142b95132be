//! Asynchronous FL (Fig. 11 / future work): buffered async aggregation with
//! staleness-weighted FedAvg over a heterogeneous, hibernating client
//! population — the one training driver over a flat session that commits a
//! version every time its 16 slots fill.
//!
//! Run with: `cargo run -p lifl-examples --example async_federated_learning`

use lifl_core::session::SessionBuilder;
use lifl_core::training::{TrainingConfig, TrainingDriver};
use lifl_fl::client::ClientAvailability;
use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
use lifl_fl::population::{Population, PopulationConfig};
use lifl_fl::staleness::StalenessPolicy;
use lifl_fl::trainer::TrainerConfig;
use lifl_simcore::SimRng;
use lifl_types::Topology;

fn main() {
    let mut rng = SimRng::from_seed(2024);
    let dataset = FederatedDataset::generate(
        DatasetConfig {
            num_clients: 80,
            num_features: 16,
            num_classes: 10,
            mean_samples_per_client: 50,
            dirichlet_alpha: 0.3,
            test_samples: 500,
            noise_std: 0.4,
        },
        &mut rng,
    );
    // 32 clients train at once.
    let population = Population::generate(
        PopulationConfig {
            total_clients: 80,
            active_per_round: 32,
            availability: ClientAvailability::Hibernating { max_secs: 45.0 },
            mean_samples: 50,
            speed_spread: 0.6,
        },
        &mut rng,
    );
    let buffer = SessionBuilder::new()
        .topology(Topology::flat(16))
        .build()
        .expect("flat session");
    let config = TrainingConfig {
        trainer: TrainerConfig {
            batch_size: 16,
            learning_rate: 0.05,
            local_epochs: 2,
            mu: 0.0,
        },
        rounds: 12,
        eval_every: 1,
        ..TrainingConfig::default()
    };
    let mut driver = TrainingDriver::new(buffer, dataset, population, config);
    println!("running buffered asynchronous FedAvg (goal = 16 updates per version)...");
    let versions = driver
        .run_async(&mut rng, StalenessPolicy::Polynomial { exponent: 0.5 })
        .expect("async run");
    println!("version  committed(s)  stale  mean-staleness  accuracy(%)");
    for v in &versions {
        println!(
            "{:>7}  {:>11.0}  {:>5}  {:>14.2}  {:>10.1}",
            v.round.round,
            v.committed_at.as_secs(),
            v.stale_updates,
            v.mean_staleness,
            v.round.accuracy.unwrap_or(0.0)
        );
    }
    let tracker = driver.staleness();
    println!(
        "\n{} updates accepted, {:.0}% of them stale (max staleness {}), final accuracy {:.1}%",
        tracker.count(),
        100.0 * tracker.stale_count() as f64 / tracker.count().max(1) as f64,
        tracker.max(),
        driver.evaluate()
    );
}
