//! The multi-round training-driver tier: one `TrainingDriver` loop runs over
//! any `Ingest` backend — a single-process `Session`, a federated `Cluster`
//! or the flat `FlatFedAvg` — with bit-exact results for every codec, and live top placement re-places the global top between rounds
//! without touching the aggregate. Asynchronous runs (`run_async`) are the
//! same loop: over a flat session they are bit-exact with the flat backend.

use lifl_core::cluster::{Cluster, ClusterBuilder, TopPlacement};
use lifl_core::session::{Session, SessionBuilder, Update};
use lifl_core::training::{AsyncCommit, TrainingConfig, TrainingDriver};
use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::client::ClientAvailability;
use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
use lifl_fl::population::{Population, PopulationConfig};
use lifl_fl::staleness::StalenessPolicy;
use lifl_fl::trainer::TrainerConfig;
use lifl_fl::{DenseModel, FlatFedAvg, Ingest};
use lifl_simcore::SimRng;
use lifl_types::{ClientId, CodecKind, NodeId, Topology};

/// The global tree both backends aggregate over: 8 updates per round, split
/// by the cluster into 2 nodes of [2, 2] subtrees.
fn topology() -> Topology {
    Topology::new(vec![2, 2, 2]).expect("topology")
}

/// Regenerates the identical dataset + population + rng for a given seed, so
/// two driver runs consume identical randomness streams.
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

fn session(codec: CodecKind) -> Session {
    SessionBuilder::new()
        .topology(topology())
        .codec(codec)
        .build()
        .expect("session")
}

fn cluster(codec: CodecKind) -> Cluster {
    ClusterBuilder::new()
        .topology(topology())
        .codec(codec)
        .build()
        .expect("cluster")
}

fn run_driver<B: Ingest>(backend: B, seed: u64, rounds: usize) -> TrainingDriver<B> {
    let (dataset, population, mut rng) = fixtures(seed);
    let mut driver = TrainingDriver::new(
        backend,
        dataset,
        population,
        TrainingConfig {
            trainer: TrainerConfig {
                batch_size: 16,
                learning_rate: 0.05,
                local_epochs: 2,
                mu: 0.0,
            },
            rounds,
            eval_every: 1,
            ..TrainingConfig::default()
        },
    );
    driver.run_all(&mut rng).expect("rounds drive");
    driver
}

/// Acceptance: the cluster-backed driver is **bit-exact** with the
/// session-backed driver — same global model bits, same loss curve, same
/// wire accounting — for every `CodecKind`.
#[test]
fn cluster_driver_bit_exact_with_session_driver_for_every_codec() {
    for codec in CodecKind::ablation_set() {
        let over_session = run_driver(session(codec), 42, 3);
        let over_cluster = run_driver(cluster(codec), 42, 3);
        for (s, c) in over_session
            .history()
            .iter()
            .zip(over_cluster.history().iter())
        {
            assert_eq!(s.round, c.round);
            assert_eq!(s.updates, c.updates, "{codec}");
            assert_eq!(
                s.train_loss, c.train_loss,
                "{codec} round {}: identical local training \
                 must report identical loss",
                s.round
            );
            assert_eq!(
                s.ingress_wire_bytes, c.ingress_wire_bytes,
                "{codec} round {}",
                s.round
            );
            assert_eq!(s.accuracy, c.accuracy, "{codec} round {}", s.round);
        }
        for (a, b) in over_session
            .global_model()
            .as_slice()
            .iter()
            .zip(over_cluster.global_model().as_slice())
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{codec}: cluster driver diverged: {a} vs {b}"
            );
        }
    }
}

/// Acceptance: under a lossy codec the cluster driver's multi-round loss
/// curve is identical to the single-session driver's — error-feedback
/// residuals accumulate identically at both ingresses — and the model still
/// learns through the compressed federated path.
#[test]
fn lossy_cluster_driver_converges_identically_to_session_driver() {
    let rounds = 10;
    let over_session = run_driver(session(CodecKind::Uniform8), 7, rounds);
    let over_cluster = run_driver(cluster(CodecKind::Uniform8), 7, rounds);
    let session_curve: Vec<f64> = over_session
        .history()
        .iter()
        .map(|r| r.train_loss)
        .collect();
    let cluster_curve: Vec<f64> = over_cluster
        .history()
        .iter()
        .map(|r| r.train_loss)
        .collect();
    assert_eq!(session_curve, cluster_curve);
    assert_eq!(over_session.accuracy_curve(), over_cluster.accuracy_curve());
    // The curve is a real convergence curve, not a fixed point: late-round
    // training loss dips well below the first round's.
    let first = session_curve[0];
    let last = *session_curve.last().expect("nonempty curve");
    assert!(
        last < first * 0.8,
        "lossy driver should converge: {first} -> {last}"
    );
    let accuracy = over_cluster.accuracy_curve();
    assert!(
        accuracy.last().expect("evaluated").1 > accuracy.first().expect("evaluated").1 + 10.0,
        "cluster driver should learn through the lossy federated path"
    );
}

fn batch(n: usize, dim: usize, round: usize) -> Vec<ModelUpdate> {
    (0..n)
        .map(|i| {
            let values: Vec<f32> = (0..dim)
                .map(|d| ((i * dim + d * 7 + round * 13) % 101) as f32 * 0.03 - 1.5)
                .collect();
            ModelUpdate::from_client(
                ClientId::new(i as u64),
                DenseModel::from_vec(values),
                (i + 1) as u64,
            )
        })
        .collect()
}

/// Acceptance: a live top move between rounds is bit-exact with never
/// moving. Two identically seeded clusters ingest identical rounds; one is
/// pinned to node 0, the other re-places onto node 1 after an out-of-band
/// load report — every aggregate stays bit-identical, only the hop pricing
/// and the priced handoff differ.
#[test]
fn top_replacement_between_rounds_is_bit_exact_with_not_moving() {
    let codec = CodecKind::Uniform8; // lossy: residual state must survive the move
    let mut live = ClusterBuilder::new()
        .topology(topology())
        .codec(codec)
        .build()
        .unwrap();
    let mut pinned = ClusterBuilder::new()
        .topology(topology())
        .codec(codec)
        .placement(TopPlacement::Pinned(0))
        .build()
        .unwrap();
    for round in 0..3 {
        if round == 1 {
            // A deep pending queue reported for node 1 tips the EWMA: the
            // live cluster moves its top at the next round boundary.
            live.observe_node_load(NodeId::new(1), 64.0);
        }
        let updates = batch(8, 32, round);
        live.ingest_all(updates.iter().cloned().map(Update::Dense))
            .unwrap();
        pinned
            .ingest_all(updates.into_iter().map(Update::Dense))
            .unwrap();
        let live_report = live.drive().unwrap();
        let pinned_report = pinned.drive().unwrap();
        assert_eq!(live_report.update.samples, pinned_report.update.samples);
        for (a, b) in live_report
            .update
            .model
            .as_slice()
            .iter()
            .zip(pinned_report.update.model.as_slice())
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "round {round}: the top move changed the aggregate: {a} vs {b}"
            );
        }
        assert!(pinned_report.replacement.is_none());
        assert_eq!(pinned_report.top_node, NodeId::new(0));
        if round == 1 {
            let moved = live_report.replacement.as_ref().expect("top must move");
            assert_eq!(moved.from, NodeId::new(0));
            assert_eq!(moved.to, NodeId::new(1));
            // The handoff ships round 0's warm global intermediate and is
            // priced as a real cross-machine transfer.
            assert_eq!(moved.state_bytes, 32 * 4);
            assert!(moved.cost.latency > lifl_types::SimDuration::ZERO);
        } else {
            assert!(live_report.replacement.is_none(), "round {round}");
        }
        let expected_top = if round == 0 { 0 } else { 1 };
        assert_eq!(live_report.top_node, NodeId::new(expected_top as u64));
        // Hop pricing follows the live top: exactly the host's hop is local.
        for hop in &live_report.hops {
            assert_eq!(hop.same_node, hop.node == live_report.top_node);
        }
    }
    assert_eq!(live.top_node(), NodeId::new(1));
}

/// The sentence in `training.rs`'s module doc, as a test: under a lossless
/// codec the flat backend and a session over `Topology::flat(n)` are the
/// same round — global model bit for bit, every round.
#[test]
fn flat_backend_is_bit_exact_with_a_flat_session_under_identity() {
    let config = TrainingConfig {
        trainer: TrainerConfig {
            batch_size: 16,
            learning_rate: 0.05,
            local_epochs: 2,
            mu: 0.0,
        },
        ..TrainingConfig::default()
    };
    let (dataset, population, mut flat_rng) = fixtures(42);
    let n = population.active_per_round();
    let mut over_flat = TrainingDriver::new(
        FlatFedAvg::new(n, CodecKind::Identity),
        dataset,
        population,
        config,
    );
    let (dataset, population, mut session_rng) = fixtures(42);
    let flat_session = SessionBuilder::new()
        .topology(Topology::flat(n))
        .build()
        .expect("session");
    let mut over_session = TrainingDriver::new(flat_session, dataset, population, config);
    for round in 1..=4 {
        let f = over_flat.run_round(&mut flat_rng).expect("flat round");
        let s = over_session
            .run_round(&mut session_rng)
            .expect("session round");
        assert_eq!(f, s, "round {round}");
        for (a, b) in over_flat
            .global_model()
            .as_slice()
            .iter()
            .zip(over_session.global_model().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "round {round}: {a} vs {b}");
        }
    }
}

/// An asynchronous run of `versions` versions over `backend`: its commits
/// and the global model's bits.
fn run_async<B: Ingest>(backend: B, versions: usize) -> (Vec<AsyncCommit>, Vec<u32>) {
    let (dataset, population, mut rng) = fixtures(42);
    let config = TrainingConfig {
        trainer: TrainerConfig {
            batch_size: 16,
            learning_rate: 0.05,
            local_epochs: 2,
            mu: 0.0,
        },
        rounds: versions,
        ..TrainingConfig::default()
    };
    let mut driver = TrainingDriver::new(backend, dataset, population, config);
    let policy = StalenessPolicy::Polynomial { exponent: 0.5 };
    let commits = driver.run_async(&mut rng, policy).expect("async run");
    let model = driver.global_model().as_slice();
    (commits, model.iter().map(|v| v.to_bits()).collect())
}

/// The asynchronous twin of the test above: `run_async` over a flat
/// session is `run_async` over the flat backend under a lossless codec —
/// every version's model bit for bit (a run of `k` versions is the first
/// `k` versions of a longer one), loss bits, accuracy and commit time.
#[test]
fn async_over_a_flat_session_is_async_over_the_flat_backend() {
    // Six updates a version while eight clients train: versions go stale.
    let goal = 6;
    for versions in 1..=4 {
        let flat_session = SessionBuilder::new()
            .topology(Topology::flat(goal))
            .build()
            .expect("session");
        let over_session = run_async(flat_session, versions);
        let over_flat = run_async(FlatFedAvg::new(goal, CodecKind::Identity), versions);
        assert_eq!(over_session, over_flat, "{versions} versions");
    }
    let (commits, _) = run_async(FlatFedAvg::new(goal, CodecKind::Identity), 4);
    assert!(commits.iter().any(|c| c.stale_updates > 0));
}

/// FNV-1a over a model's bits.
fn fingerprint(model: &DenseModel) -> u64 {
    model
        .as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, v| {
            (hash ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Every round's `(train_loss` bits, accuracy`)` and the final global
/// model's fingerprint.
fn curve<B: Ingest>(driver: &TrainingDriver<B>) -> (Vec<(u64, f64)>, u64) {
    let rounds = (driver.history().iter())
        .map(|r| (r.train_loss.to_bits(), r.accuracy.expect("evaluated")))
        .collect();
    (rounds, fingerprint(driver.global_model()))
}

/// Local training and evaluation are part of the driver's bit contract: every
/// round's loss bits and accuracy and the final global model's fingerprint
/// below were recorded from the row-major trainer (one serial dot product per
/// logit), before logits moved to class lanes over a transposed weight block.
/// The cluster's `Uniform8` curve was re-recorded once more when stations
/// stopped encoding intermediates that stay on their node (only the node
/// tops' hop exports are quantized since), and again when every encode began
/// drawing its rounding words from its own key (client encodes from
/// (seed, client, encode count), station encodes from (position, round)).
#[test]
fn the_training_curve_is_the_row_major_trainers() {
    let over_cluster = curve(&run_driver(cluster(CodecKind::Uniform8), 42, 5));
    let over_session = curve(&run_driver(session(CodecKind::Identity), 42, 5));
    let cluster_rounds = vec![
        (4_608_562_285_415_642_012, 84.666_666_666_666_67),
        (4_607_485_461_204_734_888, 95.333_333_333_333_33),
        (4_606_491_307_411_292_446, 98.666_666_666_666_67),
        (4_604_562_463_843_551_595, 99.666_666_666_666_67),
        (4_603_788_883_675_645_600, 98.0),
    ];
    let session_rounds = vec![
        (4_608_562_285_415_642_012, 85.0),
        (4_607_482_800_447_036_243, 94.333_333_333_333_33),
        (4_606_492_159_453_095_196, 98.666_666_666_666_67),
        (4_604_564_225_724_823_289, 99.666_666_666_666_67),
        (4_603_788_337_747_039_552, 98.0),
    ];
    assert_eq!(over_cluster, (cluster_rounds, 12_873_225_807_761_787_677));
    assert_eq!(over_session, (session_rounds, 16_195_215_856_438_018_314));
}

/// The algorithm-level round loop's own tests (formerly `lifl_fl::rounds`),
/// on the one driver over the flat backend.
mod flat_rounds {
    use super::*;

    fn small_driver(seed: u64, codec: CodecKind) -> (TrainingDriver<FlatFedAvg>, SimRng) {
        let mut rng = SimRng::from_seed(seed);
        let dataset = FederatedDataset::generate(
            DatasetConfig {
                num_clients: 30,
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
                total_clients: 30,
                active_per_round: 10,
                availability: ClientAvailability::AlwaysOn,
                mean_samples: 40,
                speed_spread: 0.3,
            },
            &mut rng,
        );
        let driver = TrainingDriver::new(
            FlatFedAvg::new(population.active_per_round(), codec),
            dataset,
            population,
            TrainingConfig {
                trainer: TrainerConfig {
                    batch_size: 16,
                    learning_rate: 0.05,
                    local_epochs: 2,
                    mu: 0.0,
                },
                rounds: 15,
                eval_every: 1,
                ..TrainingConfig::default()
            },
        );
        (driver, rng)
    }

    #[test]
    fn accuracy_improves_over_rounds() {
        let (mut driver, mut rng) = small_driver(42, CodecKind::Identity);
        let initial = driver.evaluate();
        driver.run_all(&mut rng).unwrap();
        let final_acc = driver.evaluate();
        assert!(
            final_acc > initial + 10.0,
            "accuracy should improve noticeably: {initial} -> {final_acc}"
        );
        assert_eq!(driver.history().len(), 15);
        let curve = driver.accuracy_curve();
        assert_eq!(curve.len(), 15);
        assert!(curve.last().unwrap().1 >= curve.first().unwrap().1 - 5.0);
    }

    #[test]
    fn rounds_record_participants() {
        let (mut driver, mut rng) = small_driver(7, CodecKind::Identity);
        let outcome = driver.run_round(&mut rng).unwrap();
        assert_eq!(outcome.round, 1);
        assert_eq!(outcome.updates, 10);
        assert!(outcome.accuracy.is_some());
    }

    #[test]
    fn quantized_driver_still_learns() {
        let (mut driver, mut rng) = small_driver(42, CodecKind::Uniform8);
        let initial = driver.evaluate();
        driver.run_all(&mut rng).unwrap();
        let final_acc = driver.evaluate();
        assert!(
            final_acc > initial + 10.0,
            "uniform8 driver should still learn: {initial} -> {final_acc}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut d1, mut r1) = small_driver(9, CodecKind::Identity);
        let (mut d2, mut r2) = small_driver(9, CodecKind::Identity);
        d1.run_round(&mut r1).unwrap();
        d2.run_round(&mut r2).unwrap();
        assert_eq!(d1.global_model(), d2.global_model());
    }
}
