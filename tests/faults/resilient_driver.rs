//! The multi-round training driver over a fault-tolerant cluster, through
//! its one round entry, `run_round`: a child kill mid-round costs nothing
//! but a restart that re-delivers the node's stored updates (bit-exact with
//! a failure-free driver), and a top-host kill restores the driver's global
//! model bit-exactly from the latest checkpoint.

use crate::util::assert_bit_exact;
use lifl_core::cluster::{Cluster, ClusterBuilder, FaultToleranceConfig};
use lifl_core::training::{TrainingConfig, TrainingDriver};
use lifl_fl::client::ClientAvailability;
use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
use lifl_fl::population::{Population, PopulationConfig};
use lifl_fl::trainer::TrainerConfig;
use lifl_simcore::SimRng;
use lifl_types::{LiflError, NodeId, Topology};

/// 8 updates per round, split by the cluster into 2 nodes of [2, 2]
/// subtrees.
fn topology() -> Topology {
    Topology::new(vec![2, 2, 2]).expect("topology")
}

fn fixtures(seed: u64) -> (FederatedDataset, Population, SimRng) {
    let mut rng = SimRng::from_seed(seed);
    let dataset = FederatedDataset::generate(
        DatasetConfig {
            num_clients: 24,
            num_features: 12,
            num_classes: 6,
            mean_samples_per_client: 40,
            dirichlet_alpha: 0.5,
            test_samples: 300,
            noise_std: 0.4,
        },
        &mut rng,
    );
    let population = Population::generate(
        PopulationConfig {
            total_clients: 24,
            active_per_round: 8,
            availability: ClientAvailability::AlwaysOn,
            mean_samples: 40,
            speed_spread: 0.3,
        },
        &mut rng,
    );
    (dataset, population, rng)
}

fn driver(cluster: Cluster, seed: u64) -> (TrainingDriver<Cluster>, SimRng) {
    let (dataset, population, rng) = fixtures(seed);
    let driver = TrainingDriver::new(
        cluster,
        dataset,
        population,
        TrainingConfig {
            trainer: TrainerConfig {
                batch_size: 16,
                learning_rate: 0.05,
                local_epochs: 2,
                mu: 0.0,
            },
            rounds: 3,
            eval_every: 1,
            ..TrainingConfig::default()
        },
    );
    (driver, rng)
}

fn fault_cluster(checkpoint_every: u64) -> Cluster {
    ClusterBuilder::new()
        .topology(topology())
        .fault_tolerance(FaultToleranceConfig {
            checkpoint_every,
            ..FaultToleranceConfig::default()
        })
        .build()
        .expect("cluster")
}

/// Acceptance: a child session killed mid-round costs the driver nothing —
/// no re-training, no re-send: the restarted node re-delivers its updates
/// from the cluster's store — and the recovered round is bit-exact with an
/// undisturbed driver on the same seed.
#[test]
fn child_kill_mid_round_recovers_bit_exact_from_cached_updates() {
    let seed = 42;
    let plain = ClusterBuilder::new().topology(topology()).build().unwrap();
    let (mut clean, mut clean_rng) = driver(plain, seed);
    clean.run_round(&mut clean_rng).unwrap();

    let (mut resilient, mut rng) = driver(fault_cluster(1), seed);
    // Node 1 dies after node 0's intermediate already reached the top: the
    // re-plan must dedup the surviving hop and re-deliver only node 1's
    // updates.
    resilient
        .backend_mut()
        .schedule_node_failure(NodeId::new(1), 1)
        .unwrap();
    let round = resilient.run_round(&mut rng).unwrap();
    assert_eq!(round.updates, 8);
    let stats = resilient.backend().fault_stats().unwrap();
    assert_eq!(stats.node_restarts, 1);
    assert_eq!(stats.deduped_hops, 1);
    assert_eq!(stats.lost_updates, 4);
    assert_bit_exact(
        resilient.global_model(),
        clean.global_model(),
        "driver after child kill",
    );
    let clean_round = &clean.history()[0];
    assert_eq!(round.train_loss, clean_round.train_loss);
    assert_eq!(round.accuracy, clean_round.accuracy);
    // The next round needs no restart and runs clean.
    let next = resilient.run_round(&mut rng).unwrap();
    assert_eq!(next.updates, 8);
    assert_eq!(
        resilient.backend().fault_stats().unwrap().node_restarts,
        1,
        "no further restarts"
    );
}

/// Acceptance: a top-host kill loses the in-flight round but the driver
/// adopts the latest checkpoint — bit-exact with both the checkpointed model
/// and the previous committed round — and keeps training from it.
#[test]
fn top_kill_restores_the_drivers_global_model_from_the_checkpoint() {
    let (mut driver, mut rng) = driver(fault_cluster(1), 7);
    // Round 1 commits and checkpoints.
    driver.run_round(&mut rng).unwrap();
    let committed = driver.global_model().clone();
    // Round 2 dies at the top before any hop lands.
    let top = driver.backend().top_node();
    driver.backend_mut().schedule_node_failure(top, 0).unwrap();
    match driver.run_round(&mut rng) {
        Err(LiflError::AggregatorFailure { .. }) => {}
        other => panic!("expected an aggregator failure, got {other:?}"),
    }
    assert_eq!(driver.history().len(), 1, "the lost round is not recorded");
    // The driver's global model was rolled back to the checkpoint, which is
    // the committed round-1 model bit-for-bit.
    assert_bit_exact(driver.global_model(), &committed, "restored checkpoint");
    let (_, latest) = (driver.backend().checkpoint()).expect("round 1 was checkpointed");
    assert_bit_exact(latest, &committed, "checkpointed model");
    assert_eq!(driver.backend().fault_stats().unwrap().top_recoveries, 1);
    // Re-running the round against the restored model succeeds.
    let rerun = driver.run_round(&mut rng).unwrap();
    assert_eq!(rerun.updates, 8);
    assert_eq!(driver.history().len(), 2);
}
