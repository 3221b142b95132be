//! The backend-generic multi-round FL training driver: one training loop
//! that runs over any [`Ingest`] aggregation backend — a single-process
//! [`Session`](crate::session::Session) tree or a multi-node federated
//! [`Cluster`](crate::cluster::Cluster) — with identical results.
//!
//! The flat [`FlatFedAvg`](lifl_fl::FlatFedAvg) backend folds client updates
//! through one accumulator; the tree backends instead take every locally
//! trained update through their polymorphic ingress
//! ([`Ingest::ingest_update`]) and aggregate the round over their tree —
//! stores, codecs, per-client error feedback and (for a cluster) priced
//! inter-node hops all engaged. Because both tree backends apply the same
//! ingress rules with the same seeds, the driver's loss/accuracy curve is
//! **bit-exact** across them for every [`CodecKind`](lifl_types::CodecKind) (enforced by the
//! `tests/it/driver.rs` tier), and matches the flat
//! [`FlatFedAvg`](lifl_fl::FlatFedAvg) under a lossless codec.
//!
//! Asynchronous FL (FedBuff; Fig. 11, §7 future work) is the same driver
//! over the same backends: [`TrainingDriver::run_async`] keeps clients
//! training against whatever version they last pulled and commits a new
//! global model every time the backend's round fills, so a version is a
//! round and shares its ingress, fold, commit and history.
//!
//! An algorithm changes one of two points: the client step (FedProx's
//! proximal μ, in [`TrainerConfig`]) or the server commit (a
//! [`ServerOptimizer`], configured by [`TrainingConfig::server`]). Every
//! round and every version commits through the optimizer at one place.
//!
//! A synchronous round selects exactly the backend's round capacity, draws
//! every participant's epoch shuffles on the caller in participant order,
//! and trains them all as one level on the process's shared worker set —
//! the one the backend runs its stations and ingress encodes on —
//! ingesting each update in participant order as soon as it and every
//! earlier participant are trained, so the ingress's encodes run beside the
//! training rather than after it. The result is the one-client-at-a-time
//! loop's, bit for bit, at any worker count. Over-provisioning the
//! selection is the selector's business (`lifl_sim::selector`), and parking
//! overflow the ingress's (`Session::try_ingest`, `Cluster::try_ingest`).

use crate::stations::Workers;
use lifl_fl::client::Client;
use lifl_fl::dataset::FederatedDataset;
use lifl_fl::metrics::{accuracy_of_count, accuracy_percent, correct_predictions};
use lifl_fl::model::DenseModel;
use lifl_fl::population::Population;
use lifl_fl::server_opt::{ServerOptConfig, ServerOptimizer};
use lifl_fl::staleness::{StalenessPolicy, StalenessTracker};
use lifl_fl::trainer::{LocalTrainer, TrainerConfig};
use lifl_fl::{Ingest, RoundAggregate, Update};
use lifl_simcore::SimRng;
use lifl_types::{ClientId, LiflError, ModelKind, Result, SimTime};
use std::sync::Arc;

/// The workload an asynchronous run prices each client's local training
/// time at: ResNet-18, the model of the paper's asynchronous setup and the
/// only one any asynchronous run has been priced at. Only the simulated
/// clock depends on it; the trained model is the synthetic substrate's.
const ASYNC_MODEL: ModelKind = ModelKind::ResNet18;

/// Configuration of the backend-generic training driver.
///
/// The wire codec is *not* configured here: it is a property of the backend
/// (set when the session or cluster was built) and is reported through
/// [`Ingest::ingress_codec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Local-training configuration: every client's step, FedProx's
    /// proximal μ included ([`TrainerConfig::mu`]; `0.0` is plain local
    /// SGD).
    pub trainer: TrainerConfig,
    /// The server optimizer every round and every asynchronous version
    /// commits through ([`ServerOptimizer::commit`]). The default, FedAvg
    /// with η = 1, adopts the aggregate as the global model unchanged (a
    /// move); every other rule steps the global toward it, FedAdagrad,
    /// FedAdam and FedYogi with moments the driver keeps across rounds.
    pub server: ServerOptConfig,
    /// Number of rounds [`TrainingDriver::run_all`] runs, and of versions
    /// [`TrainingDriver::run_async`] commits.
    pub rounds: usize,
    /// Evaluate accuracy every this many rounds (1 = every round).
    pub eval_every: usize,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            trainer: TrainerConfig::default(),
            server: ServerOptConfig::default(),
            rounds: 50,
            eval_every: 1,
        }
    }
}

/// The outcome of one driven round.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingRound {
    /// Round index (starting at 1).
    pub round: usize,
    /// Client updates the backend aggregated.
    pub updates: u64,
    /// Test accuracy after the round, if evaluated.
    pub accuracy: Option<f64>,
    /// Average local training loss reported by the participating clients.
    pub train_loss: f64,
    /// Data-plane payload bytes the round's ingests occupied in wire form.
    pub ingress_wire_bytes: u64,
}

/// What the first half of a round (select → train → deliver) hands to the
/// second (adopt → evaluate → record).
#[derive(Debug, Default)]
struct Delivery {
    loss_sum: f64,
    trained: usize,
}

/// One global version an asynchronous run committed.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncCommit {
    /// The version as a round: its index (from 1), the updates it folded,
    /// their mean local loss, its accuracy and its wire bytes.
    pub round: TrainingRound,
    /// Simulated time at which the version's last update arrived.
    pub committed_at: SimTime,
    /// Updates of the version trained against an older one.
    pub stale_updates: u64,
    /// Mean staleness (versions behind) of the version's updates.
    pub mean_staleness: f64,
}

/// A client training asynchronously: against which version, until when.
#[derive(Debug)]
struct Training {
    client: Client,
    base_version: usize,
    finish_at: SimTime,
}

impl Training {
    /// `client` pulls version `base_version` at `now`; it finishes after its
    /// hibernation and its training time.
    fn start(client: Client, base_version: usize, now: SimTime, rng: &mut SimRng) -> Training {
        let finish_at = now + client.hibernation(rng) + client.training_time(ASYNC_MODEL);
        Training {
            client,
            base_version,
            finish_at,
        }
    }
}

/// What the open version of an asynchronous run has gathered so far.
#[derive(Debug, Default)]
struct Window {
    delivery: Delivery,
    stale: u64,
    staleness_sum: u64,
}

/// Runs synchronous multi-round FedAvg over any [`Ingest`] backend, and
/// buffered asynchronous FedAvg over the same ones
/// ([`TrainingDriver::run_async`]). FedProx is the local step's μ
/// ([`TrainerConfig::mu`]) and FedAdagrad, FedAdam and FedYogi are the
/// commit ([`TrainingConfig::server`]), so every algorithm takes the same
/// round.
///
/// ```
/// use lifl_core::session::SessionBuilder;
/// use lifl_core::training::{TrainingConfig, TrainingDriver};
/// use lifl_fl::client::ClientAvailability;
/// use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
/// use lifl_fl::population::{Population, PopulationConfig};
/// use lifl_simcore::SimRng;
/// use lifl_types::Topology;
///
/// let mut rng = SimRng::from_seed(7);
/// let dataset = FederatedDataset::generate(
///     DatasetConfig {
///         num_clients: 16,
///         num_features: 8,
///         num_classes: 4,
///         mean_samples_per_client: 20,
///         dirichlet_alpha: 0.5,
///         test_samples: 80,
///         noise_std: 0.4,
///     },
///     &mut rng,
/// );
/// let population = Population::generate(
///     PopulationConfig {
///         total_clients: 16,
///         active_per_round: 8,
///         availability: ClientAvailability::AlwaysOn,
///         mean_samples: 20,
///         speed_spread: 0.3,
///     },
///     &mut rng,
/// );
/// // An 8-update session tree: each round's 8 participants fill it exactly.
/// let session = SessionBuilder::new()
///     .topology(Topology::new(vec![4, 2]).unwrap())
///     .build()
///     .unwrap();
/// let mut driver =
///     TrainingDriver::new(session, dataset, population, TrainingConfig::default());
/// let outcome = driver.run_round(&mut rng).unwrap();
/// assert_eq!(outcome.round, 1);
/// assert_eq!(outcome.updates, 8);
/// ```
#[derive(Debug)]
pub struct TrainingDriver<B: Ingest> {
    backend: B,
    dataset: Arc<FederatedDataset>,
    population: Population,
    trainer: LocalTrainer,
    config: TrainingConfig,
    global: Arc<DenseModel>,
    /// The one commit of every round and version.
    optimizer: ServerOptimizer,
    history: Vec<TrainingRound>,
    staleness: StalenessTracker,
    /// The process's shared worker set — the one the backend runs its
    /// stations and encodes on, when it was built on the shared set — that
    /// a round's local training and an evaluation's count run on.
    workers: Workers,
}

impl<B: Ingest> TrainingDriver<B> {
    /// Creates a driver over `backend` with a zero-initialised global model.
    ///
    /// The population's `active_per_round` must equal the backend's
    /// [`Ingest::round_capacity`] for rounds to drive (checked per round, so
    /// availability dynamics that under-select surface as errors, not
    /// silently skewed aggregates).
    pub fn new(
        backend: B,
        dataset: FederatedDataset,
        population: Population,
        config: TrainingConfig,
    ) -> Self {
        let trainer = LocalTrainer::new(dataset.num_features, dataset.num_classes, config.trainer);
        let global = Arc::new(dataset.initial_model());
        TrainingDriver {
            backend,
            dataset: Arc::new(dataset),
            population,
            trainer,
            config,
            global,
            optimizer: ServerOptimizer::new(config.server),
            history: Vec::new(),
            staleness: StalenessTracker::new(),
            workers: Workers::new(),
        }
    }

    /// The aggregation backend the driver ingests into.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend (e.g. to feed a cluster's placement
    /// policy out-of-band load observations between rounds).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The current global model.
    pub fn global_model(&self) -> &DenseModel {
        &self.global
    }

    /// Completed round outcomes (an asynchronous version is a round).
    pub fn history(&self) -> &[TrainingRound] {
        &self.history
    }

    /// The staleness of every update [`TrainingDriver::run_async`] has
    /// ingested.
    pub fn staleness(&self) -> &StalenessTracker {
        &self.staleness
    }

    /// Current test accuracy of the global model.
    ///
    /// The correct predictions are counted over contiguous chunks of the
    /// test set, one per thread of the worker set, as one level; a count's
    /// sum does not depend on the split, so the accuracy is
    /// [`accuracy_percent`]'s, bit for bit.
    pub fn evaluate(&self) -> f64 {
        let total = self.dataset.test_set().len();
        let chunk = total.div_ceil(self.workers.parallelism()).max(1);
        let (dataset, global, trainer) = (
            Arc::clone(&self.dataset),
            Arc::clone(&self.global),
            self.trainer.clone(),
        );
        let counts = self.workers.run(total.div_ceil(chunk), move |k| {
            let tests = dataset.test_set().chunks(chunk).nth(k).unwrap_or_default();
            Ok(correct_predictions(&trainer, &global, tests))
        });
        match counts.into_iter().sum::<Result<usize>>() {
            Ok(correct) => accuracy_of_count(correct, total),
            // A chunk that panicked on a worker panics here too.
            Err(_) => accuracy_percent(&self.trainer, &self.global, self.dataset.test_set()),
        }
    }

    /// The accuracy-versus-round curve (round index, accuracy percent).
    pub fn accuracy_curve(&self) -> Vec<(usize, f64)> {
        self.history
            .iter()
            .filter_map(|r| r.accuracy.map(|a| (r.round, a)))
            .collect()
    }

    /// Runs one synchronous round: select participants, train them all at
    /// once on the worker set, ingest every update dense through the
    /// backend's ingress in participant order as it is trained (the backend
    /// encodes at ingress under a lossy codec, with per-client error
    /// feedback), aggregate the backend's tree, commit the global aggregate
    /// through the server optimizer and optionally evaluate.
    ///
    /// A fault-tolerant [`Cluster`](crate::cluster::Cluster) backend
    /// survives a child-node kill inside its own aggregation, so the round
    /// completes as if undisturbed.
    ///
    /// # Errors
    /// Fails with [`LiflError::InvalidConfig`] before anyone is selected if
    /// the trainer or server-optimizer configuration is invalid
    /// ([`TrainerConfig::validate`], [`ServerOptConfig::validate`]).
    /// Fails if the selection is not exactly the backend's
    /// [`Ingest::round_capacity`], or on any backend ingest/aggregation
    /// error. The backend's round is discarded on *every* failure path —
    /// including an aggregation failure — so the driver stays reusable. A
    /// round that fails at an ingest has drawn from `rng` exactly what a
    /// successful one draws. A backend that lost the round with its top host
    /// ([`LiflError::AggregatorFailure`]) and restored its latest checkpoint
    /// hands the checkpointed model over ([`Ingest::take_recovered_model`]),
    /// and the driver adopts it as its global model before returning the
    /// error, so a re-run trains against the restored model.
    pub fn run_round(&mut self, rng: &mut SimRng) -> Result<TrainingRound> {
        self.validate()?;
        let delivery = self.deliver_round(rng)?;
        let aggregate = self.aggregate()?;
        self.adopt_round(aggregate, delivery)
    }

    /// Runs buffered asynchronous FedAvg (FedBuff; Fig. 11, §7 future work)
    /// until [`TrainingConfig::rounds`] more versions are committed, and
    /// returns one record per version.
    ///
    /// `population.active_per_round()` clients train at all times, drawn
    /// like a synchronous round's selection. When a client finishes, its
    /// update is down-weighted by `staleness` for the versions committed
    /// since it pulled the global model and ingested dense through the
    /// backend's ingress — codec, store and stations as in any round — and
    /// the client pulls the latest version and trains again. Each time
    /// [`Ingest::round_capacity`] updates are in, the backend aggregates and
    /// the driver adopts the result as it adopts a round, so
    /// [`TrainingDriver::history`], [`TrainingDriver::accuracy_curve`] and
    /// the evaluation cadence cover versions too.
    ///
    /// # Errors
    /// An invalid `staleness` policy or configuration (as in
    /// [`TrainingDriver::run_round`]), before anyone is selected, or the
    /// first ingest or aggregation error, after which the backend's round
    /// is discarded (and a restored checkpoint adopted, as in
    /// [`TrainingDriver::run_round`]); the versions committed before it
    /// stay in the history.
    pub fn run_async(
        &mut self,
        rng: &mut SimRng,
        staleness: StalenessPolicy,
    ) -> Result<Vec<AsyncCommit>> {
        self.validate()?;
        staleness.validate()?;
        let goal = self.backend.round_capacity();
        let (version, target) = (self.history.len(), self.history.len() + self.config.rounds);
        let mut training: Vec<Training> = (self.population.select_round(rng).into_iter())
            .map(|client| Training::start(client, version, SimTime::ZERO, rng))
            .collect();
        let mut commits = Vec::new();
        let mut window = Window::default();
        while self.history.len() < target {
            // Pop the earliest completion.
            let Some((next, _)) = training
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.finish_at.as_secs().total_cmp(&b.1.finish_at.as_secs()))
            else {
                break;
            };
            let finished = training.swap_remove(next);
            let (client, now) = (finished.client, finished.finish_at);
            let tau = (self.history.len() - finished.base_version) as u64;
            self.staleness.record(tau);
            // Local training against the version the client based on. We train
            // against the *current* global as an approximation of keeping a
            // copy of every historical version; the staleness weight encodes
            // the trust discount.
            let shard = self.dataset.shard(client.id);
            let (local, loss) = self.trainer.train(&self.global, shard, rng);
            let samples = staleness.scaled_samples(shard.len().max(1) as u64, tau);
            window.delivery.loss_sum += loss;
            window.delivery.trained += 1;
            window.stale += u64::from(tau > 0);
            window.staleness_sum += tau;
            let update = Update::dense(client.id, local, samples);
            self.backend
                .ingest_update(update)
                .inspect_err(|_| self.backend.discard_round())?;
            if window.delivery.trained == goal {
                let window = std::mem::take(&mut window);
                let mean_staleness = window.staleness_sum as f64 / goal as f64;
                let aggregate = self.aggregate()?;
                commits.push(AsyncCommit {
                    round: self.adopt_round(aggregate, window.delivery)?,
                    committed_at: now,
                    stale_updates: window.stale,
                    mean_staleness,
                });
            }
            // The finished client immediately starts the next local round
            // against the latest committed version.
            training.push(Training::start(client, self.history.len(), now, rng));
        }
        Ok(commits)
    }

    /// Aggregates the backend's round. The documented contract: a failed
    /// round never leaks backend state into the next one, so a failure
    /// discards it, and a round lost with its top host hands over the model
    /// the backend restored from its checkpoint, which replaces the
    /// driver's.
    ///
    /// The replacement is plain, not a commit, and the server optimizer
    /// keeps its moments. A cluster checkpoints the aggregate it produced,
    /// not the global the driver's optimizer stepped toward it, so under
    /// FedAdagrad, FedAdam or FedYogi the restored model is that round's
    /// aggregate. The next round's commit steps from it with the moments
    /// every committed round left. Under the default FedAvg (η = 1) the two
    /// are the same model.
    fn aggregate(&mut self) -> Result<RoundAggregate> {
        self.backend.aggregate_round().inspect_err(|error| {
            self.backend.discard_round();
            if matches!(error, LiflError::AggregatorFailure { .. }) {
                if let Some(model) = self.backend.take_recovered_model() {
                    self.global = Arc::new(model);
                }
            }
        })
    }

    /// The first half of a round: select participants, draw every
    /// participant's shuffles in participant order, then train them all as
    /// one level on the worker set ([`Workers::run_in_order`]) and deliver
    /// each update through the backend's ingress as soon as it and every
    /// earlier participant are trained — in participant order, `loss_sum`
    /// added in that order: the sequence of updates, losses and draws the
    /// one-client-at-a-time loop produced, because any ingest error ended
    /// that loop and so never changed who trained. After each ingest the
    /// caller runs the encode it queued ([`Workers::run_waiting`]), so no
    /// ingest finds a backlog to encode inline.
    ///
    /// # Errors
    /// Fails if the selection is not the backend's round capacity, a
    /// participant fails to train or an ingest fails; the level then stops
    /// claiming participants and the backend's round is discarded, with the
    /// generator where a successful round leaves it.
    fn deliver_round(&mut self, rng: &mut SimRng) -> Result<Delivery> {
        let participants = self.population.select_round(rng);
        let capacity = self.backend.round_capacity();
        if participants.len() != capacity {
            return Err(LiflError::InvalidConfig(format!(
                "round selected {} participants but the backend tree \
                 aggregates exactly {capacity}",
                participants.len()
            )));
        }
        // Draw: every participant's epoch shuffles, on the caller, in
        // participant order — the order the generator always served them in.
        let jobs: Vec<(ClientId, Vec<Vec<usize>>)> = (participants.iter())
            .map(|client| {
                let shard = self.dataset.shard(client.id);
                (client.id, self.trainer.shuffles(shard.len(), rng))
            })
            .collect();
        // Train every participant as one level on the worker set, and ingest
        // each update in participant order as soon as it and every earlier
        // one are trained: the caller ingests (and encodes) while the
        // workers train on.
        let (dataset, global, trainer) = (
            Arc::clone(&self.dataset),
            Arc::clone(&self.global),
            self.trainer.clone(),
        );
        let len = jobs.len();
        let train = move |k: usize| {
            let (client, orders) = &jobs[k];
            let (local, loss) = trainer.train_ordered(&global, dataset.shard(*client), orders);
            Ok((*client, local, loss))
        };
        let mut delivery = Delivery::default();
        let (backend, workers) = (&mut self.backend, &self.workers);
        let ingested = workers.run_in_order(len, train, |trained| {
            let (client, local, loss) = trained?;
            delivery.loss_sum += loss;
            delivery.trained += 1;
            let samples = self.dataset.shard(client).len().max(1) as u64;
            let ingested = backend.ingest_update(Update::dense(client, local, samples));
            // Run the encode this ingest queued here and now, so that the
            // next ingest finds no backlog to run inline.
            workers.run_waiting();
            ingested
        });
        if let Err(error) = ingested {
            self.backend.discard_round();
            return Err(error);
        }
        Ok(delivery)
    }

    /// The second half of a round, and the one commit point of
    /// [`TrainingDriver::run_round`] and [`TrainingDriver::run_async`]:
    /// commit the backend's aggregate through the server optimizer (a move
    /// under the default FedAvg), evaluate if this round is due, and record
    /// the outcome.
    ///
    /// # Errors
    /// Fails if the aggregate's dimension is not the global model's; the
    /// global model and the history are then untouched.
    fn adopt_round(
        &mut self,
        aggregate: RoundAggregate,
        delivery: Delivery,
    ) -> Result<TrainingRound> {
        let round = self.history.len() + 1;
        let global = self
            .optimizer
            .commit(&self.global, aggregate.update.model)?;
        self.global = Arc::new(global);
        let accuracy = round
            .is_multiple_of(self.config.eval_every.max(1))
            .then(|| self.evaluate());
        let outcome = TrainingRound {
            round,
            updates: aggregate.updates_ingested,
            accuracy,
            train_loss: delivery.loss_sum / delivery.trained.max(1) as f64,
            ingress_wire_bytes: aggregate.ingress_wire_bytes,
        };
        self.history.push(outcome.clone());
        Ok(outcome)
    }

    /// The configuration checks of [`TrainingDriver::run_round`] and
    /// [`TrainingDriver::run_async`]: the local trainer's (μ, learning rate)
    /// and the server optimizer's (η, β, τ).
    fn validate(&self) -> Result<()> {
        self.config.trainer.validate()?;
        self.config.server.validate()
    }

    /// Runs all configured rounds and returns the history.
    ///
    /// # Errors
    /// Stops at and returns the first failing round (completed rounds stay
    /// in [`TrainingDriver::history`]).
    pub fn run_all(&mut self, rng: &mut SimRng) -> Result<Vec<TrainingRound>> {
        for _ in 0..self.config.rounds {
            self.run_round(rng)?;
        }
        Ok(self.history.clone())
    }
}

#[cfg(test)]
impl<B: Ingest> TrainingDriver<B> {
    /// Runs the driver's training and evaluation levels on `workers` — the
    /// private set its backend was built on — instead of the shared set.
    pub(crate) fn on_workers(mut self, workers: Workers) -> Self {
        self.workers = workers;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, SessionBuilder};
    use lifl_fl::client::ClientAvailability;
    use lifl_fl::dataset::DatasetConfig;
    use lifl_fl::population::PopulationConfig;
    use lifl_types::{CodecKind, Topology};

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

    fn session(codec: lifl_types::CodecKind) -> Session {
        SessionBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .codec(codec)
            .build()
            .unwrap()
    }

    #[test]
    fn driver_over_a_session_learns() {
        let (dataset, population, mut rng) = fixtures(42);
        let mut driver = TrainingDriver::new(
            session(lifl_types::CodecKind::Identity),
            dataset,
            population,
            TrainingConfig {
                rounds: 12,
                ..TrainingConfig::default()
            },
        );
        let initial = driver.evaluate();
        let history = driver.run_all(&mut rng).unwrap();
        assert_eq!(history.len(), 12);
        let final_acc = driver.evaluate();
        assert!(
            final_acc > initial + 10.0,
            "driver should learn noticeably: {initial} -> {final_acc}"
        );
        assert!(history.iter().all(|r| r.updates == 8));
        assert!(history.iter().all(|r| r.ingress_wire_bytes > 0));
        assert_eq!(driver.accuracy_curve().len(), 12);
    }

    #[test]
    fn capacity_mismatch_is_an_error_and_keeps_the_driver_reusable() {
        let (dataset, _, mut rng) = fixtures(7);
        // 10 active participants can never fill an 8-update tree.
        let population = Population::generate(
            PopulationConfig {
                total_clients: 24,
                active_per_round: 10,
                availability: ClientAvailability::AlwaysOn,
                mean_samples: 40,
                speed_spread: 0.3,
            },
            &mut rng,
        );
        let mut driver = TrainingDriver::new(
            session(lifl_types::CodecKind::Identity),
            dataset,
            population,
            TrainingConfig::default(),
        );
        assert!(driver.run_round(&mut rng).is_err());
        assert!(driver.history().is_empty());
        assert_eq!(driver.backend().pending_updates(), 0);
    }

    #[test]
    fn aggregate_failure_discards_the_backend_round_and_keeps_the_driver_reusable() {
        use crate::cluster::{ClusterBuilder, FaultToleranceConfig};
        use lifl_types::NodeId;

        let (dataset, population, mut rng) = fixtures(42);
        let cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .fault_tolerance(FaultToleranceConfig::default())
            .build()
            .unwrap();
        let mut driver =
            TrainingDriver::new(cluster, dataset, population, TrainingConfig::default());
        // A kill of the top host mid-drive fails the round *after* every
        // ingest went through — the exact path that used to leak the
        // backend's partial round out of `run_round`.
        let top = driver.backend().top_node();
        assert_eq!(top, NodeId::new(0));
        driver.backend_mut().schedule_node_failure(top, 0).unwrap();
        let outcome = driver.run_round(&mut rng);
        assert!(matches!(outcome, Err(LiflError::AggregatorFailure { .. })));
        assert!(driver.history().is_empty());
        // The documented contract: the failed round was discarded, so the
        // driver is immediately reusable with a full, fresh round.
        assert_eq!(driver.backend().pending_updates(), 0);
        let outcome = driver.run_round(&mut rng).unwrap();
        assert_eq!(outcome.round, 1);
        assert_eq!(outcome.updates, 8);
    }

    /// The asynchronous workload: 40 hibernating clients, 16 of them
    /// training at any time.
    fn async_fixtures(seed: u64) -> (FederatedDataset, Population, SimRng) {
        let mut rng = SimRng::from_seed(seed);
        let dataset = FederatedDataset::generate(
            DatasetConfig {
                num_clients: 40,
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
                total_clients: 40,
                active_per_round: 16,
                availability: ClientAvailability::Hibernating { max_secs: 30.0 },
                mean_samples: 40,
                speed_spread: 0.5,
            },
            &mut rng,
        );
        (dataset, population, rng)
    }

    /// A driver over `backend` whose asynchronous runs commit `versions`
    /// versions of the [`async_fixtures`] workload.
    fn async_setup<B: Ingest>(
        backend: B,
        seed: u64,
        versions: usize,
    ) -> (TrainingDriver<B>, SimRng) {
        let (dataset, population, rng) = async_fixtures(seed);
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
        (
            TrainingDriver::new(backend, dataset, population, config),
            rng,
        )
    }

    /// FedBuff's buffer of `goal` updates: a flat session.
    fn buffer(goal: usize, codec: CodecKind) -> Session {
        SessionBuilder::new()
            .topology(Topology::flat(goal))
            .codec(codec)
            .build()
            .unwrap()
    }

    const POLY: StalenessPolicy = StalenessPolicy::Polynomial { exponent: 0.5 };

    fn bits(model: &DenseModel) -> Vec<u32> {
        model.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn commits_requested_number_of_versions() {
        let (mut driver, mut rng) = async_setup(buffer(8, CodecKind::Identity), 5, 10);
        let versions = driver.run_async(&mut rng, POLY).unwrap();
        assert_eq!(versions.len(), 10);
        for (i, v) in versions.iter().enumerate() {
            assert_eq!(v.round.round, i + 1);
            assert_eq!(v.round.updates, 8);
            assert!(v.round.accuracy.is_some());
        }
        // Commits happen in non-decreasing time order.
        for pair in versions.windows(2) {
            assert!(pair[1].committed_at.as_secs() >= pair[0].committed_at.as_secs());
        }
        assert_eq!(driver.history().len(), 10);
    }

    #[test]
    fn goal_one_commits_every_update() {
        let (mut driver, mut rng) = async_setup(buffer(1, CodecKind::Identity), 3, 4);
        let versions = driver.run_async(&mut rng, POLY).unwrap();
        assert_eq!(versions.len(), 4);
        assert!(versions.iter().all(|v| v.round.updates == 1));
        assert_eq!(driver.staleness().count(), 4);
    }

    #[test]
    fn accuracy_improves_over_versions() {
        let (mut driver, mut rng) = async_setup(buffer(8, CodecKind::Identity), 42, 15);
        let initial = driver.evaluate();
        driver.run_async(&mut rng, POLY).unwrap();
        let final_acc = driver.evaluate();
        assert!(
            final_acc > initial + 10.0,
            "async training should learn: {initial} -> {final_acc}"
        );
        assert_eq!(driver.accuracy_curve().len(), 15);
    }

    #[test]
    fn staleness_is_observed_and_bounded_by_version_count() {
        let (mut driver, mut rng) = async_setup(buffer(8, CodecKind::Identity), 9, 10);
        driver.run_async(&mut rng, POLY).unwrap();
        let tracker = driver.staleness();
        assert!(tracker.count() >= 10 * 8);
        assert!(
            tracker.max() <= 10,
            "staleness cannot exceed committed versions"
        );
        // With clients continuously training across commits, some staleness
        // must appear after the first version.
        assert!(tracker.stale_count() > 0);
    }

    #[test]
    fn quantized_async_single_commit_stays_within_quantization_error() {
        // With one committed version both runs fold exactly the same updates
        // in the same order (the sim RNG stream is untouched by the codec),
        // so the only divergence is the per-update quantization error.
        let (mut dense, mut rng_d) = async_setup(buffer(8, CodecKind::Identity), 23, 1);
        let (mut quant, mut rng_q) = async_setup(buffer(8, CodecKind::Uniform8), 23, 1);
        dense.run_async(&mut rng_d, POLY).unwrap();
        quant.run_async(&mut rng_q, POLY).unwrap();
        let max_abs = (dense.global_model().as_slice().iter()).fold(0.0f32, |a, v| a.max(v.abs()));
        // One quantization step of the largest update magnitude, with slack
        // for the weighted averaging across the buffer.
        let tolerance = (2.0 * max_abs / 127.0).max(1e-4);
        for (a, b) in (dense.global_model().as_slice().iter()).zip(quant.global_model().as_slice())
        {
            assert!(
                (a - b).abs() <= tolerance,
                "uniform8 async drifted: |{a} - {b}| > {tolerance}"
            );
        }
    }

    #[test]
    fn quantized_async_run_still_learns() {
        let (mut driver, mut rng) = async_setup(buffer(8, CodecKind::Uniform8), 31, 12);
        let initial = driver.evaluate();
        driver.run_async(&mut rng, POLY).unwrap();
        let final_acc = driver.evaluate();
        assert!(
            final_acc > initial + 10.0,
            "quantized async training should learn: {initial} -> {final_acc}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut a, mut ra) = async_setup(buffer(8, CodecKind::Identity), 77, 10);
        let (mut b, mut rb) = async_setup(buffer(8, CodecKind::Identity), 77, 10);
        let va = a.run_async(&mut ra, POLY).unwrap();
        let vb = b.run_async(&mut rb, POLY).unwrap();
        assert_eq!(va, vb);
        assert_eq!(a.global_model(), b.global_model());
    }

    /// The asynchronous loop moved here verbatim from the deleted
    /// stand-alone driver, whose own fold was the flat one a flat session
    /// is bit-exact with under a lossless codec: every version's commit
    /// time, stale count, mean staleness and accuracy, the final model's
    /// FNV-1a fingerprint, the staleness totals and the generator's next
    /// draw below were recorded from that driver on this workload.
    #[test]
    fn the_async_run_is_the_deleted_drivers() {
        let (mut driver, mut rng) = async_setup(buffer(8, CodecKind::Identity), 77, 10);
        let versions = driver.run_async(&mut rng, POLY).unwrap();
        let recorded: Vec<(u64, u64, u64, f64)> = vec![
            (4_626_827_778_973_468_684, 0, 0, 93.333_333_333_333_33),
            (
                4_628_984_163_345_617_516,
                8,
                4_607_182_418_800_017_408,
                97.0,
            ),
            (
                4_631_535_428_486_819_636,
                8,
                4_610_560_118_520_545_280,
                99.0,
            ),
            (
                4_632_490_582_090_710_984,
                6,
                4_608_871_268_660_281_344,
                93.0,
            ),
            (
                4_634_404_463_658_929_449,
                7,
                4_611_686_018_427_387_904,
                98.333_333_333_333_33,
            ),
            (
                4_635_010_069_826_217_437,
                8,
                4_610_560_118_520_545_280,
                98.333_333_333_333_33,
            ),
            (
                4_635_638_735_184_111_395,
                8,
                4_612_530_443_357_519_872,
                98.333_333_333_333_33,
            ),
            (
                4_636_526_194_044_726_429,
                7,
                4_610_560_118_520_545_280,
                96.0,
            ),
            (
                4_636_976_279_499_698_188,
                8,
                4_610_560_118_520_545_280,
                98.666_666_666_666_67,
            ),
            (
                4_637_706_678_017_733_396,
                7,
                4_609_997_168_567_123_968,
                99.333_333_333_333_33,
            ),
        ];
        let run: Vec<(u64, u64, u64, f64)> = (versions.iter())
            .map(|v| {
                let accuracy = v.round.accuracy.unwrap();
                let committed_at = v.committed_at.as_secs().to_bits();
                (
                    committed_at,
                    v.stale_updates,
                    v.mean_staleness.to_bits(),
                    accuracy,
                )
            })
            .collect();
        assert_eq!(run, recorded);
        let fingerprint = (driver.global_model().as_slice().iter())
            .fold(0xcbf2_9ce4_8422_2325u64, |hash, v| {
                (hash ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(fingerprint, 5_887_602_790_267_587_573);
        let tracker = driver.staleness();
        assert_eq!(
            (tracker.count(), tracker.stale_count(), tracker.max()),
            (80, 67, 4)
        );
        assert_eq!(rng.index(1_000_000_007), 137_070_512);
    }

    /// Every configuration check runs before anyone is selected: the round
    /// and the asynchronous run refuse a bad trainer or server optimizer
    /// (and the run a bad staleness policy) with `InvalidConfig`, drawing
    /// nothing and leaving history, staleness and backend untouched.
    #[test]
    fn invalid_configs_rejected() {
        let trainer = |mu, learning_rate| TrainingConfig {
            trainer: TrainerConfig {
                mu,
                learning_rate,
                ..TrainerConfig::default()
            },
            ..TrainingConfig::default()
        };
        let server = |learning_rate, beta1, beta2, tau| TrainingConfig {
            server: ServerOptConfig {
                learning_rate,
                beta1,
                beta2,
                tau,
                ..ServerOptConfig::for_kind(lifl_fl::server_opt::ServerOptKind::FedAdam)
            },
            ..TrainingConfig::default()
        };
        let poly = POLY;
        let flat = StalenessPolicy::Polynomial { exponent: 0.0 };
        let table = [
            ("negative mu", trainer(-0.1, 0.01), poly),
            ("NaN mu", trainer(f32::NAN, 0.01), poly),
            ("infinite mu", trainer(f32::INFINITY, 0.01), poly),
            ("zero learning rate", trainer(0.0, 0.0), poly),
            ("negative learning rate", trainer(0.0, -0.5), poly),
            ("zero server rate", server(0.0, 0.9, 0.99, 1e-3), poly),
            ("beta1 of one", server(0.1, 1.0, 0.99, 1e-3), poly),
            ("negative beta2", server(0.1, 0.9, -0.1, 1e-3), poly),
            ("zero tau", server(0.1, 0.9, 0.99, 0.0), poly),
            ("flat staleness", TrainingConfig::default(), flat),
        ];
        for (case, config, staleness) in table {
            let (dataset, population, mut rng) = async_fixtures(1);
            let config = TrainingConfig {
                rounds: 3,
                ..config
            };
            let mut driver =
                TrainingDriver::new(buffer(8, CodecKind::Identity), dataset, population, config);
            let next = rng.clone().index(1_000_000_007);
            if staleness == poly {
                assert!(
                    matches!(driver.run_round(&mut rng), Err(LiflError::InvalidConfig(_))),
                    "{case}"
                );
            }
            assert!(
                matches!(
                    driver.run_async(&mut rng, staleness),
                    Err(LiflError::InvalidConfig(_))
                ),
                "{case}"
            );
            assert_eq!(rng.index(1_000_000_007), next, "{case}");
            assert!(driver.history().is_empty(), "{case}");
            assert_eq!(driver.staleness().count(), 0, "{case}");
            assert_eq!(driver.backend().pending_updates(), 0, "{case}");
        }
    }

    /// An error mid-run is returned, not swallowed, and the backend's round
    /// is discarded: a store that cannot hold one window of 78-parameter
    /// models refuses the fourth update of the first version.
    #[test]
    fn an_async_store_failure_is_returned_and_discards_the_round() {
        let session = SessionBuilder::new()
            .topology(Topology::flat(8))
            .store(lifl_shmem::ObjectStore::with_capacity(1_000))
            .build()
            .unwrap();
        let (mut driver, mut rng) = async_setup(session, 5, 2);
        let outcome = driver.run_async(&mut rng, POLY);
        assert!(
            matches!(outcome, Err(LiflError::OutOfSharedMemory { .. })),
            "{outcome:?}"
        );
        assert_eq!(driver.backend().pending_updates(), 0);
        assert!(driver.history().is_empty());
        assert_eq!(driver.staleness().count(), 4);
    }

    /// Asynchronous runs over a `[2, 2, 2]` session and over the same tree
    /// as a two-node cluster are the same run, bit for bit, for every codec,
    /// whether the stations and encodes run on the caller alone or beside
    /// three workers.
    #[test]
    fn async_over_a_cluster_is_async_over_a_session_at_any_worker_count() {
        use crate::cluster::ClusterBuilder;

        let tree = || Topology::new(vec![2, 2, 2]).unwrap();
        for codec in CodecKind::ablation_set() {
            for workers in [0, 3] {
                let session = SessionBuilder::new()
                    .topology(tree())
                    .codec(codec)
                    .workers(Workers::with_count(workers))
                    .build()
                    .unwrap();
                let cluster = ClusterBuilder::new()
                    .topology(tree())
                    .codec(codec)
                    .build_on(Workers::with_count(workers))
                    .unwrap();
                let (mut over_session, mut rng_s) = async_setup(session, 13, 3);
                let (mut over_cluster, mut rng_c) = async_setup(cluster, 13, 3);
                let s = over_session.run_async(&mut rng_s, POLY).unwrap();
                let c = over_cluster.run_async(&mut rng_c, POLY).unwrap();
                assert_eq!(s, c, "{codec} at {workers} workers");
                assert_eq!(
                    bits(over_session.global_model()),
                    bits(over_cluster.global_model()),
                    "{codec} at {workers} workers"
                );
            }
        }
    }

    // ---------------------------------------------------------------------
    // The worker-count tier: a round's participants train as one level, so
    // every path through `deliver_round` must be the one-client-at-a-time
    // loop's, bit for bit, whether the caller trains alone or beside 1 or 3
    // workers.
    // ---------------------------------------------------------------------

    /// One round as the tier compares it — updates, loss bits and accuracy
    /// — or `None` for a round that failed.
    type Round = Option<(u64, u64, f64)>;

    /// What a run leaves: its rounds, the global model's FNV-1a fingerprint
    /// and the generator's next draw.
    type Run = (Vec<Round>, u64, usize);

    /// The tier's local training: the driver tier's (`tests/it/driver.rs`).
    fn tier_config() -> TrainingConfig {
        TrainingConfig {
            trainer: TrainerConfig {
                batch_size: 16,
                learning_rate: 0.05,
                local_epochs: 2,
                mu: 0.0,
            },
            ..TrainingConfig::default()
        }
    }

    /// Runs `rounds` rounds of `round` over `backend`, the driver's levels on
    /// `workers` (the set the backend was built on).
    fn tier_run<B: Ingest>(
        backend: B,
        workers: &Workers,
        (dataset, population, mut rng): (FederatedDataset, Population, SimRng),
        config: TrainingConfig,
        rounds: usize,
        mut round: impl FnMut(&mut TrainingDriver<B>, &mut SimRng, usize) -> Result<TrainingRound>,
    ) -> Run {
        let mut driver =
            TrainingDriver::new(backend, dataset, population, config).on_workers(workers.clone());
        let rounds = (0..rounds)
            .map(|k| {
                let r = round(&mut driver, &mut rng, k).ok()?;
                let accuracy = r.accuracy.unwrap_or(f64::NAN);
                Some((r.updates, r.train_loss.to_bits(), accuracy))
            })
            .collect();
        let fingerprint = (driver.global_model().as_slice().iter())
            .fold(0xcbf2_9ce4_8422_2325u64, |hash, v| {
                (hash ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
            });
        (rounds, fingerprint, rng.index(1_000_000_007))
    }

    fn tier_session(codec: CodecKind, workers: &Workers) -> SessionBuilder {
        SessionBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .codec(codec)
            .workers(workers.clone())
    }

    fn tier_cluster(codec: CodecKind) -> crate::cluster::ClusterBuilder {
        crate::cluster::ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .codec(codec)
    }

    /// The five rounds `tests/it/driver.rs::the_training_curve_is_the_row_major_trainers`
    /// pins (Identity over a session, Uniform8 over a cluster; each backend
    /// is the other's twin), then the generator's next draw.
    fn pinned_curve(codec: CodecKind) -> Run {
        let (rounds, fingerprint) = if codec == CodecKind::Identity {
            (
                [
                    (4_608_562_285_415_642_012, 85.0),
                    (4_607_482_800_447_036_243, 94.333_333_333_333_33),
                    (4_606_492_159_453_095_196, 98.666_666_666_666_67),
                    (4_604_564_225_724_823_289, 99.666_666_666_666_67),
                    (4_603_788_337_747_039_552, 98.0),
                ],
                16_195_215_856_438_018_314,
            )
        } else {
            (
                [
                    (4_608_562_285_415_642_012, 84.666_666_666_666_67),
                    (4_607_485_461_204_734_888, 95.333_333_333_333_33),
                    (4_606_491_307_411_292_446, 98.666_666_666_666_67),
                    (4_604_562_463_843_551_595, 99.666_666_666_666_67),
                    (4_603_788_883_675_645_600, 98.0),
                ],
                12_873_225_807_761_787_677,
            )
        };
        let rounds = (rounds.iter())
            .map(|&(loss, accuracy)| Some((8, loss, accuracy)))
            .collect();
        (rounds, fingerprint, 180_344_594)
    }

    #[test]
    fn every_worker_count_trains_the_pinned_curve() {
        for codec in [CodecKind::Identity, CodecKind::Uniform8] {
            for count in [0, 1, 3] {
                let workers = Workers::with_count(count);
                let session = tier_session(codec, &workers).build().unwrap();
                let cluster = tier_cluster(codec).build_on(workers.clone()).unwrap();
                let over_session = tier_run(
                    session,
                    &workers,
                    fixtures(42),
                    tier_config(),
                    5,
                    |d, rng, _| d.run_round(rng),
                );
                let over_cluster = tier_run(
                    cluster,
                    &workers,
                    fixtures(42),
                    tier_config(),
                    5,
                    |d, rng, _| d.run_round(rng),
                );
                assert_eq!(
                    over_session,
                    pinned_curve(codec),
                    "session {codec} at {count}"
                );
                assert_eq!(
                    over_cluster,
                    pinned_curve(codec),
                    "cluster {codec} at {count}"
                );
            }
        }
    }

    /// A child node killed mid-round restarts and re-delivers its updates
    /// from the stored keys — nothing re-sent, nothing encoded twice — so
    /// the recovered round is the undisturbed one: the pinned curve, lossy
    /// codec included.
    #[test]
    fn every_worker_count_recovers_a_child_kill_onto_the_pinned_curve() {
        use crate::cluster::FaultToleranceConfig;
        for codec in [CodecKind::Identity, CodecKind::Uniform8] {
            for count in [0, 1, 3] {
                let workers = Workers::with_count(count);
                let mut cluster = tier_cluster(codec)
                    .fault_tolerance(FaultToleranceConfig {
                        checkpoint_every: 1,
                        ..FaultToleranceConfig::default()
                    })
                    .build_on(workers.clone())
                    .unwrap();
                cluster
                    .schedule_node_failure(lifl_types::NodeId::new(1), 1)
                    .unwrap();
                let run = tier_run(
                    cluster,
                    &workers,
                    fixtures(42),
                    tier_config(),
                    5,
                    |d, rng, _| d.run_round(rng),
                );
                assert_eq!(run, pinned_curve(codec), "{codec} at {count} workers");
            }
        }
    }

    /// The tier's local training with FedAdam as the server commit.
    fn fedadam_config() -> TrainingConfig {
        TrainingConfig {
            server: ServerOptConfig::for_kind(lifl_fl::server_opt::ServerOptKind::FedAdam),
            ..tier_config()
        }
    }

    /// FedAdam commits the same bits over every backend at 0, 1 and 3
    /// workers: a `[2, 2, 2]` session and the same tree as a two-node
    /// cluster, under a lossless and a lossy codec, for rounds and for an
    /// asynchronous run; and the flat backend and a flat session, its twin
    /// under a lossless codec. FedAdam is not FedAvg's run.
    #[test]
    fn fedadam_commits_the_same_bits_over_every_backend_at_any_worker_count() {
        use lifl_fl::FlatFedAvg;
        fn rounds<B: Ingest>(
            d: &mut TrainingDriver<B>,
            rng: &mut SimRng,
            _: usize,
        ) -> Result<TrainingRound> {
            d.run_round(rng)
        }
        /// One asynchronous run, as its last version.
        fn versions<B: Ingest>(
            d: &mut TrainingDriver<B>,
            rng: &mut SimRng,
            _: usize,
        ) -> Result<TrainingRound> {
            let commits = d.run_async(rng, POLY)?;
            Ok(commits.last().expect("committed").round.clone())
        }
        for codec in [CodecKind::Identity, CodecKind::Uniform8] {
            let mut runs = Vec::new();
            for count in [0, 1, 3] {
                let workers = Workers::with_count(count);
                let session = tier_session(codec, &workers).build().unwrap();
                let cluster = tier_cluster(codec).build_on(workers.clone()).unwrap();
                let config = fedadam_config();
                let over_session = tier_run(session, &workers, fixtures(42), config, 4, rounds);
                let over_cluster = tier_run(cluster, &workers, fixtures(42), config, 4, rounds);
                assert_eq!(over_session, over_cluster, "{codec} at {count} workers");
                let session = tier_session(codec, &workers).build().unwrap();
                let cluster = tier_cluster(codec).build_on(workers.clone()).unwrap();
                let config = TrainingConfig {
                    rounds: 3,
                    ..config
                };
                assert_eq!(
                    tier_run(session, &workers, fixtures(42), config, 1, versions),
                    tier_run(cluster, &workers, fixtures(42), config, 1, versions),
                    "async {codec} at {count} workers"
                );
                if codec == CodecKind::Identity {
                    let flat_session = SessionBuilder::new()
                        .topology(Topology::flat(8))
                        .workers(workers.clone())
                        .build()
                        .unwrap();
                    let flat = FlatFedAvg::new(8, codec);
                    assert_eq!(
                        tier_run(flat, &workers, fixtures(42), fedadam_config(), 4, rounds),
                        tier_run(
                            flat_session,
                            &workers,
                            fixtures(42),
                            fedadam_config(),
                            4,
                            rounds
                        ),
                        "flat at {count} workers"
                    );
                }
                runs.push(over_session);
            }
            assert!(runs.iter().all(|run| *run == runs[0]), "{codec}");
            assert!(runs[0].0.iter().all(Option::is_some), "{codec}");
            let fedavg = tier_run(
                tier_session(codec, &Workers::with_count(0))
                    .build()
                    .unwrap(),
                &Workers::with_count(0),
                fixtures(42),
                tier_config(),
                4,
                rounds,
            );
            assert_ne!(runs[0], fedavg, "{codec}");
        }
    }

    /// A backend that keeps a copy of every aggregate it hands the driver.
    struct Recording<B> {
        backend: B,
        aggregates: Vec<DenseModel>,
    }

    impl<B: Ingest> Ingest for Recording<B> {
        fn ingest_update(&mut self, update: Update) -> Result<()> {
            self.backend.ingest_update(update)
        }

        fn round_capacity(&self) -> usize {
            self.backend.round_capacity()
        }

        fn ingress_codec(&self) -> CodecKind {
            self.backend.ingress_codec()
        }

        fn aggregate_round(&mut self) -> Result<RoundAggregate> {
            let round = self.backend.aggregate_round()?;
            self.aggregates.push(round.update.model.clone());
            Ok(round)
        }

        fn discard_round(&mut self) {
            self.backend.discard_round();
        }

        fn take_recovered_model(&mut self) -> Option<DenseModel> {
            self.backend.take_recovered_model()
        }
    }

    /// A top kill under FedAdam: the cluster checkpointed the aggregate it
    /// produced, not the global the optimizer stepped toward it, and the
    /// driver adopts that checkpoint as a plain replacement while its
    /// optimizer keeps the moments every committed round left. So the round
    /// after the kill is a hand-fed optimizer's commit from the restored
    /// aggregate — and not a fresh optimizer's.
    #[test]
    fn a_fedadam_top_kill_adopts_the_checkpointed_aggregate_and_keeps_the_moments() {
        use crate::cluster::FaultToleranceConfig;
        let config = fedadam_config();
        for count in [0, 3] {
            let workers = Workers::with_count(count);
            let cluster = tier_cluster(CodecKind::Identity)
                .fault_tolerance(FaultToleranceConfig {
                    checkpoint_every: 1,
                    ..FaultToleranceConfig::default()
                })
                .build_on(workers.clone())
                .unwrap();
            let (dataset, population, mut rng) = fixtures(42);
            let initial = dataset.initial_model();
            let backend = Recording {
                backend: cluster,
                aggregates: Vec::new(),
            };
            let mut driver = TrainingDriver::new(backend, dataset, population, config)
                .on_workers(workers.clone());
            driver.run_round(&mut rng).unwrap();
            driver.run_round(&mut rng).unwrap();
            let stepped = driver.global_model().clone();
            let top = driver.backend().backend.top_node();
            (driver.backend_mut().backend)
                .schedule_node_failure(top, 0)
                .unwrap();
            let lost = driver.run_round(&mut rng);
            assert!(
                matches!(lost, Err(LiflError::AggregatorFailure { .. })),
                "{lost:?}"
            );
            let [first, second] = driver.backend().aggregates.clone().try_into().unwrap();
            assert_eq!(bits(driver.global_model()), bits(&second), "{count}");
            assert_ne!(bits(&stepped), bits(&second), "{count}");
            driver.run_round(&mut rng).unwrap();
            let fourth = driver.backend().aggregates[2].clone();
            let mut twin = ServerOptimizer::new(config.server);
            let committed = twin.commit(&initial, first).unwrap();
            let committed = twin.commit(&committed, second.clone()).unwrap();
            assert_eq!(bits(&committed), bits(&stepped), "{count}");
            let fresh = ServerOptimizer::new(config.server)
                .commit(&second, fourth.clone())
                .unwrap();
            let resumed = twin.commit(&second, fourth).unwrap();
            assert_eq!(bits(driver.global_model()), bits(&resumed), "{count}");
            assert_ne!(bits(&resumed), bits(&fresh), "{count}");
        }
    }

    /// A synchronous round whose ingest fails mid-round — a filler leaves the
    /// store room for three of the round's eight updates — returns the
    /// error, discards the round and leaves the driver reusable, whether
    /// the caller trains alone or beside 1 or 3 workers (which stop
    /// claiming participants at the failure). Every participant's shuffles
    /// were drawn before anyone trained, so it drew exactly what
    /// the same round draws when it succeeds (the one-client-at-a-time loop
    /// stopped drawing at the failing client).
    #[test]
    fn a_failed_ingest_discards_the_round_and_leaves_the_driver_reusable() {
        const CAPACITY: u64 = 1 << 16;
        for count in [0, 1, 3] {
            let workers = Workers::with_count(count);
            let store = lifl_shmem::ObjectStore::with_capacity(CAPACITY);
            let backend = SessionBuilder::new()
                .topology(Topology::new(vec![2, 2, 2]).unwrap())
                .store(store.clone())
                .workers(workers.clone())
                .build()
                .unwrap();
            let (dataset, population, mut rng) = fixtures(42);
            let mut driver = TrainingDriver::new(backend, dataset, population, tier_config())
                .on_workers(workers.clone());
            let filler = store.put(vec![0u8; CAPACITY as usize - 1_000]).unwrap();
            let outcome = driver.run_round(&mut rng);
            assert!(
                matches!(outcome, Err(LiflError::OutOfSharedMemory { .. })),
                "{outcome:?} at {count} workers"
            );
            assert_eq!(driver.backend().pending_updates(), 0, "{count}");
            assert!(driver.history().is_empty(), "{count}");
            let (dataset, population, mut twin_rng) = fixtures(42);
            let mut twin = TrainingDriver::new(
                session(CodecKind::Identity),
                dataset,
                population,
                tier_config(),
            );
            twin.run_round(&mut twin_rng).unwrap();
            let next = rng.clone().index(1_000_000_007);
            assert_eq!(next, twin_rng.index(1_000_000_007), "{count}");
            assert_eq!(next, 796_631_696, "{count}");
            // With the filler gone the driver's next round goes through.
            store.recycle(&filler).unwrap();
            let round = driver.run_round(&mut rng).unwrap();
            assert_eq!((round.round, round.updates), (1, 8), "{count}");
        }
    }
}
