//! Swapping the server optimizer on top of LIFL's aggregation: FedAvg versus
//! the adaptive federated optimizers (FedAdagrad / FedAdam / FedYogi) as the
//! one training driver's commit, on the same non-IID workload over the flat
//! backend, a session tree and a 2-node cluster — then FedAdam over the
//! session and over the cluster asserted bit-exact.
//!
//! Run with: `cargo run -p lifl-examples --example server_optimizers`

use lifl_core::cluster::ClusterBuilder;
use lifl_core::session::SessionBuilder;
use lifl_core::training::{TrainingConfig, TrainingDriver};
use lifl_fl::client::ClientAvailability;
use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
use lifl_fl::population::{Population, PopulationConfig};
use lifl_fl::server_opt::{ServerOptConfig, ServerOptKind};
use lifl_fl::trainer::TrainerConfig;
use lifl_fl::{FlatFedAvg, Ingest};
use lifl_simcore::SimRng;
use lifl_types::{CodecKind, Topology};

const ROUNDS: usize = 12;

/// 20 updates a round: leaves of 5, two leaves per node, two nodes.
fn tree() -> Topology {
    Topology::new(vec![5, 2, 2]).expect("topology")
}

/// Trains `ROUNDS` rounds over `backend` with `kind` as the server commit,
/// every backend from the same dataset, population and generator; returns
/// the accuracy after round 2 and after the last round, and the global
/// model's bits.
fn train<B: Ingest>(backend: B, kind: ServerOptKind) -> ((f64, f64), Vec<u32>) {
    let mut rng = SimRng::from_seed(7);
    let dataset = FederatedDataset::generate(
        DatasetConfig {
            num_clients: 60,
            num_features: 16,
            num_classes: 8,
            mean_samples_per_client: 50,
            dirichlet_alpha: 0.3,
            test_samples: 500,
            noise_std: 0.4,
        },
        &mut rng,
    );
    let population = Population::generate(
        PopulationConfig {
            total_clients: 60,
            active_per_round: 20,
            availability: ClientAvailability::AlwaysOn,
            mean_samples: 50,
            speed_spread: 0.4,
        },
        &mut rng,
    );
    let config = TrainingConfig {
        trainer: TrainerConfig {
            batch_size: 16,
            learning_rate: 0.05,
            local_epochs: 2,
            mu: 0.0,
        },
        server: ServerOptConfig::for_kind(kind),
        rounds: ROUNDS,
        eval_every: 1,
    };
    let mut driver = TrainingDriver::new(backend, dataset, population, config);
    driver.run_all(&mut rng).expect("rounds drive");
    let curve = driver.accuracy_curve();
    let bits = driver.global_model().as_slice().iter().map(|v| v.to_bits());
    ((curve[1].1, curve[ROUNDS - 1].1), bits.collect())
}

fn main() {
    let codec = CodecKind::Uniform8;
    println!("accuracy after 2 / {ROUNDS} rounds (session and cluster: {codec})");
    println!("optimizer          flat        session        cluster");
    for kind in ServerOptKind::all() {
        let (flat, _) = train(FlatFedAvg::new(tree().total_updates(), codec), kind);
        let session = SessionBuilder::new()
            .topology(tree())
            .codec(codec)
            .build()
            .expect("session");
        let (over_session, session_bits) = train(session, kind);
        let cluster = ClusterBuilder::new()
            .topology(tree())
            .codec(codec)
            .build()
            .expect("cluster");
        let (over_cluster, cluster_bits) = train(cluster, kind);
        let column = |(early, last): (f64, f64)| format!("{early:>5.1} / {last:>5.1}%");
        println!(
            "{:<12} {}  {}  {}",
            kind.label(),
            column(flat),
            column(over_session),
            column(over_cluster)
        );
        if kind == ServerOptKind::FedAdam {
            let bit_exact = session_bits == cluster_bits;
            println!("  FedAdam over the cluster bit-exact with the session: {bit_exact}");
            assert!(bit_exact, "the federation must not change a FedAdam commit");
        }
    }
}
