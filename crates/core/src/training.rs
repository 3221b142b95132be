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
//! round and shares its ingress, fold, adoption and history.
//!
//! A synchronous round decides who trains before anyone does, draws every
//! trainee's epoch shuffles on the caller in participant order, trains them
//! all as one level on the process's shared worker set — the one the backend
//! runs its stations and ingress encodes on — and ingests the updates in
//! participant order. The result is the one-client-at-a-time loop's, bit for
//! bit, at any worker count.

use crate::heartbeat::{over_provisioned_selection, HeartbeatMonitor};
use crate::stations::Workers;
use lifl_fl::client::Client;
use lifl_fl::dataset::FederatedDataset;
use lifl_fl::metrics::{accuracy_of_count, accuracy_percent, correct_predictions};
use lifl_fl::model::DenseModel;
use lifl_fl::population::Population;
use lifl_fl::staleness::{StalenessPolicy, StalenessTracker};
use lifl_fl::trainer::{LocalTrainer, TrainerConfig};
use lifl_fl::{Ingest, RoundAggregate, Update};
use lifl_simcore::SimRng;
use lifl_types::{AdmissionOutcome, ClientId, LiflError, ModelKind, Result, SimDuration, SimTime};
use std::collections::BTreeSet;
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
    /// Local-training configuration.
    pub trainer: TrainerConfig,
    /// Number of rounds [`TrainingDriver::run_all`] runs, and of versions
    /// [`TrainingDriver::run_async`] commits.
    pub rounds: usize,
    /// Evaluate accuracy every this many rounds (1 = every round).
    pub eval_every: usize,
    /// Expected fraction of selected clients that drop out mid-round (§3
    /// over-provisioning). At the default `0.0` every round must *exactly*
    /// fill the backend tree, as before. A positive rate relaxes that check:
    /// the selection should be over-provisioned per
    /// [`over_provisioned_selection`], stragglers are cut off at
    /// [`TrainingConfig::straggler_timeout`], and surplus deliveries beyond
    /// the tree stay idle as spares.
    pub expected_dropout: f64,
    /// How long the round waits for a selected client before cutting it off
    /// as a straggler (only consulted when `expected_dropout > 0`).
    pub straggler_timeout: SimDuration,
    /// Routes every delivery through the backend's streaming ingress
    /// ([`Ingest::try_ingest`]) instead of the strict one: the round trains
    /// *every* selected participant, surplus deliveries park in the
    /// backend's bounded admission queues (counted in
    /// [`TrainingRound::queued`], drained into the next round by the
    /// backend) and deliveries the queue budget turns away are cut off as
    /// stragglers. The round closes by the backend's configured rule —
    /// exact fill, or a quorum under
    /// [`RoundClose::Quorum`](lifl_types::RoundClose) — so the selection no
    /// longer has to match [`Ingest::round_capacity`] exactly.
    pub streaming: bool,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            trainer: TrainerConfig::default(),
            rounds: 50,
            eval_every: 1,
            expected_dropout: 0.0,
            straggler_timeout: SimDuration::from_secs(60.0),
            streaming: false,
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
    /// Selected clients cut off as stragglers at the round's timeout
    /// (always zero under the exact-fill default configuration).
    pub dropped: u64,
    /// Deliveries the backend parked in its bounded admission queues for
    /// the *next* round (always zero outside
    /// [`TrainingConfig::streaming`] mode).
    pub queued: u64,
}

/// What the first half of a round (select → train → deliver) hands to the
/// second (adopt → evaluate → record).
#[derive(Debug, Default)]
struct Delivery {
    loss_sum: f64,
    trained: usize,
    dropped: u64,
    queued: u64,
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
/// ([`TrainingDriver::run_async`]).
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
    history: Vec<TrainingRound>,
    stragglers: BTreeSet<ClientId>,
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
            history: Vec::new(),
            stragglers: BTreeSet::new(),
            staleness: StalenessTracker::new(),
            workers: Workers::new(),
        }
    }

    /// Marks a client as a straggler for the *next* round (a fault-injection
    /// hook): if selected, it trains nothing and never reports, so the round
    /// must absorb its absence — over-provisioned configurations cut it off
    /// at the straggler timeout; the exact-fill default fails the round.
    /// Marks are consumed by the next round attempt.
    #[cfg(test)]
    pub(crate) fn mark_straggler(&mut self, client: ClientId) {
        self.stragglers.insert(client);
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

    /// Runs one synchronous round: select participants, train the ones the
    /// round takes (all at once, on the worker set), ingest every update
    /// dense through the backend's ingress in participant order (the backend
    /// encodes at ingress under a lossy codec, with per-client error
    /// feedback), aggregate the backend's tree, adopt the global aggregate
    /// and optionally evaluate.
    ///
    /// A fault-tolerant [`Cluster`](crate::cluster::Cluster) backend
    /// survives a child-node kill inside its own aggregation, so the round
    /// completes as if undisturbed.
    ///
    /// # Errors
    /// Fails if the selection cannot fill the backend's tree (exactly, under
    /// the default configuration; after straggler cut-off, under a positive
    /// [`TrainingConfig::expected_dropout`]), or on any backend
    /// ingest/aggregation error. The backend's round is discarded on
    /// *every* failure path — including an aggregation failure — so the
    /// driver stays reusable. A round that fails at an ingest has drawn
    /// from `rng` exactly what a successful one draws. A backend that lost
    /// the round with its top host ([`LiflError::AggregatorFailure`]) and
    /// restored its latest checkpoint hands the checkpointed model over
    /// ([`Ingest::take_recovered_model`]), and the driver adopts it as its
    /// global model before returning the error, so a re-run trains against
    /// the restored model.
    pub fn run_round(&mut self, rng: &mut SimRng) -> Result<TrainingRound> {
        let delivery = self.deliver_round(rng)?;
        let aggregate = self.aggregate()?;
        Ok(self.adopt_round(aggregate, delivery))
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
    /// An invalid `staleness` policy, or the first ingest or aggregation
    /// error, after which the backend's round is discarded (and a restored
    /// checkpoint adopted, as in [`TrainingDriver::run_round`]); the
    /// versions committed before it stay in the history.
    pub fn run_async(
        &mut self,
        rng: &mut SimRng,
        staleness: StalenessPolicy,
    ) -> Result<Vec<AsyncCommit>> {
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
                    round: self.adopt_round(aggregate, window.delivery),
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

    /// The first half of a round: select participants, decide who trains,
    /// draw every trainee's shuffles in participant order, train them all as
    /// one level on the worker set, then deliver every update through the
    /// backend's ingress in participant order — the sequence of updates,
    /// losses and draws the one-client-at-a-time loop produced, because any
    /// ingest error ended that loop and so never changed who trained.
    ///
    /// # Errors
    /// Fails if the selection cannot fill the backend's tree or an ingest
    /// fails; the backend's round is discarded either way.
    fn deliver_round(&mut self, rng: &mut SimRng) -> Result<Delivery> {
        let participants = self.population.select_round(rng);
        let capacity = self.backend.round_capacity();
        let stragglers = std::mem::take(&mut self.stragglers);
        if self.config.streaming {
            // Streaming ingress: the backend's admission queues absorb any
            // surplus and its close rule (exact or quorum) decides whether
            // the round can drive — no selection-size precondition here.
        } else if self.config.expected_dropout > 0.0 {
            // Over-provisioned selection (§3): the rate must be valid, and
            // the exact-fill check relaxes to "at least a full tree" — the
            // spares are the selection's business; a drop-out too many fails
            // the round once the stragglers are cut off.
            let target = over_provisioned_selection(capacity as u64, self.config.expected_dropout)?;
            if participants.len() < capacity {
                return Err(LiflError::InvalidConfig(format!(
                    "round selected {} participants, fewer than the \
                     {capacity}-update tree takes even if none drops out (an \
                     expected dropout of {} asks for {target})",
                    participants.len(),
                    self.config.expected_dropout
                )));
            }
        } else if participants.len() != capacity {
            return Err(LiflError::InvalidConfig(format!(
                "round selected {} participants but the backend tree \
                 aggregates exactly {capacity}",
                participants.len()
            )));
        }
        // Keep-alive bookkeeping: every participant registers at round
        // start; deliveries complete, released spares are excused, and
        // whoever is left at the timeout is a cut-off straggler.
        let round_start = SimTime::ZERO;
        let mut monitor = HeartbeatMonitor::new(self.config.straggler_timeout);
        for client in &participants {
            monitor.register(client.id, round_start);
        }
        // Decide: who trains, before anyone does. Outside streaming the tree
        // takes the first `capacity` participants that report, and every
        // later one is an idle spare (an ingest either admits or fails the
        // round); under streaming everyone who reports trains. Stragglers
        // never report and are cut off at the timeout below.
        let mut trainees = Vec::new();
        for client in &participants {
            if !self.config.streaming && trainees.len() == capacity {
                monitor.complete(client.id);
            } else if !stragglers.contains(&client.id) {
                trainees.push(client.id);
            }
        }
        // Draw: every trainee's epoch shuffles, on the caller, in
        // participant order — the order the generator always served them in.
        let jobs: Vec<(ClientId, Vec<Vec<usize>>)> = (trainees.into_iter())
            .map(|id| (id, self.trainer.shuffles(self.dataset.shard(id).len(), rng)))
            .collect();
        // Train: every trainee as one level on the worker set.
        let (dataset, global, trainer) = (
            Arc::clone(&self.dataset),
            Arc::clone(&self.global),
            self.trainer.clone(),
        );
        let trained = self.workers.run(jobs.len(), move |k| {
            let (client, orders) = &jobs[k];
            let (local, loss) = trainer.train_ordered(&global, dataset.shard(*client), orders);
            Ok((*client, local, loss))
        });
        // Ingest, in participant order.
        let mut delivery = Delivery::default();
        let mut delivered = 0usize;
        for result in trained {
            let (client, local, loss) = match result {
                Ok(trained) => trained,
                Err(error) => {
                    self.backend.discard_round();
                    return Err(error);
                }
            };
            delivery.loss_sum += loss;
            delivery.trained += 1;
            let samples = self.dataset.shard(client).len().max(1) as u64;
            let update = Update::dense(client, local, samples);
            let outcome = if self.config.streaming {
                self.backend.try_ingest(update)
            } else {
                self.backend
                    .ingest_update(update)
                    .map(|()| AdmissionOutcome::Admitted)
            };
            // Offers come back to back now: run the encode this one queued
            // here, so that the next offer finds no backlog to run inline.
            self.workers.run_waiting();
            match outcome {
                Ok(AdmissionOutcome::Admitted) => {
                    monitor.complete(client);
                    delivered += 1;
                }
                Ok(AdmissionOutcome::Queued { .. }) => {
                    // Parked for the next round; not a straggler.
                    monitor.complete(client);
                    delivery.queued += 1;
                }
                Ok(AdmissionOutcome::Rejected { .. }) => {
                    // Queue budget exhausted: the delivery is turned
                    // away and the client is cut off at the timeout.
                }
                Err(error) => {
                    self.backend.discard_round();
                    return Err(error);
                }
            }
        }
        let cutoff = round_start + self.config.straggler_timeout + SimDuration::from_secs(1.0);
        delivery.dropped = monitor.take_failed(cutoff).len() as u64;
        if !self.config.streaming && delivered < capacity {
            self.backend.discard_round();
            return Err(LiflError::InvalidConfig(format!(
                "only {delivered} of {capacity} updates arrived before the \
                 straggler timeout ({} clients cut off)",
                delivery.dropped
            )));
        }
        Ok(delivery)
    }

    /// The second half of a round: adopt the backend's aggregate as the
    /// global model, evaluate if this round is due, and record the outcome.
    fn adopt_round(&mut self, aggregate: RoundAggregate, delivery: Delivery) -> TrainingRound {
        let round = self.history.len() + 1;
        self.global = Arc::new(aggregate.update.model);
        let accuracy = round
            .is_multiple_of(self.config.eval_every.max(1))
            .then(|| self.evaluate());
        let outcome = TrainingRound {
            round,
            updates: aggregate.updates_ingested,
            accuracy,
            train_loss: delivery.loss_sum / delivery.trained.max(1) as f64,
            ingress_wire_bytes: aggregate.ingress_wire_bytes,
            dropped: delivery.dropped,
            queued: delivery.queued,
        };
        self.history.push(outcome.clone());
        outcome
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

    #[test]
    fn stragglers_are_cut_off_and_spares_fill_the_round() {
        let (dataset, _, mut rng) = fixtures(11);
        // All 10 clients participate every round: 2 spares over the 8-update
        // tree, covering the expected 20% dropout.
        let population = Population::generate(
            PopulationConfig {
                total_clients: 10,
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
            TrainingConfig {
                expected_dropout: 0.2,
                ..TrainingConfig::default()
            },
        );
        driver.mark_straggler(lifl_types::ClientId::new(0));
        driver.mark_straggler(lifl_types::ClientId::new(3));
        let outcome = driver.run_round(&mut rng).unwrap();
        assert_eq!(outcome.updates, 8, "spares filled the cut-off slots");
        assert_eq!(outcome.dropped, 2, "both stragglers were cut off");
        // Straggler marks are consumed: the next round is clean.
        let outcome = driver.run_round(&mut rng).unwrap();
        assert_eq!(outcome.dropped, 0);

        // Too many stragglers exhaust the spares: the round fails loudly
        // and the driver stays reusable.
        for id in [1u64, 2, 4] {
            driver.mark_straggler(lifl_types::ClientId::new(id));
        }
        assert!(driver.run_round(&mut rng).is_err());
        assert_eq!(driver.backend().pending_updates(), 0);
        assert!(driver.run_round(&mut rng).is_ok());
    }

    #[test]
    fn streaming_driver_parks_surplus_in_the_admission_queue() {
        let (dataset, _, mut rng) = fixtures(5);
        // 10 deliveries per round against an 8-update tree: without the
        // streaming ingress this selection can never drive (see
        // `capacity_mismatch_is_an_error_and_keeps_the_driver_reusable`);
        // with it, the surplus parks in the backend's bounded queues.
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
        let backend = SessionBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .admission(lifl_types::AdmissionConfig::bounded(4, 1 << 20))
            .build()
            .unwrap();
        let mut driver = TrainingDriver::new(
            backend,
            dataset,
            population,
            TrainingConfig {
                streaming: true,
                ..TrainingConfig::default()
            },
        );
        let outcome = driver.run_round(&mut rng).unwrap();
        assert_eq!(outcome.updates, 8, "the round closed at the tree's fill");
        assert_eq!(outcome.queued, 2, "the two surplus deliveries parked");
        assert_eq!(outcome.dropped, 0);
        // The parked deliveries drained into the next round, so round 2
        // admits two fewer of its own selection and parks the rest.
        assert_eq!(driver.backend().pending_updates(), 2);
        let outcome = driver.run_round(&mut rng).unwrap();
        assert_eq!(outcome.updates, 8);
        assert_eq!(outcome.queued, 4);
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

    #[test]
    fn invalid_configs_rejected() {
        let (mut driver, mut rng) = async_setup(buffer(8, CodecKind::Identity), 1, 3);
        let flat = StalenessPolicy::Polynomial { exponent: 0.0 };
        assert!(matches!(
            driver.run_async(&mut rng, flat),
            Err(LiflError::InvalidConfig(_))
        ));
        assert!(driver.history().is_empty());
        assert_eq!(driver.staleness().count(), 0);
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
    // The worker-count tier: a round's trainees train as one level, so every
    // path through `deliver_round` must be the one-client-at-a-time loop's,
    // bit for bit, whether the caller trains alone or beside 1 or 3 workers.
    // ---------------------------------------------------------------------

    /// One round as the tier compares it — updates, drops, parks, loss bits
    /// and accuracy — or `None` for a round that failed.
    type Round = Option<(u64, u64, u64, u64, f64)>;

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
                Some((
                    r.updates,
                    r.dropped,
                    r.queued,
                    r.train_loss.to_bits(),
                    accuracy,
                ))
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
                    (4_608_562_285_415_642_012, 85.0),
                    (4_607_479_344_048_292_771, 95.333_333_333_333_33),
                    (4_606_486_208_434_270_898, 99.0),
                    (4_604_560_073_398_317_644, 100.0),
                    (4_603_797_807_146_419_713, 98.666_666_666_666_67),
                ],
                4_608_363_320_522_766_025,
            )
        };
        let rounds = (rounds.iter())
            .map(|&(loss, accuracy)| Some((8, 0, 0, loss, accuracy)))
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

    /// A streaming round whose node is killed while it holds an update
    /// drained from the previous round's backlog: the restarted node
    /// re-delivers that update — not the client's newer model — and the run
    /// is the undisturbed cluster's, round for round, bit for bit.
    #[test]
    fn a_streaming_child_kill_keeps_the_drained_update() {
        use crate::cluster::FaultToleranceConfig;
        let config = TrainingConfig {
            streaming: true,
            ..tier_config()
        };
        for codec in [CodecKind::Identity, CodecKind::Uniform8] {
            let run = |faults: bool| {
                let workers = Workers::with_count(1);
                let mut builder = crate::cluster::ClusterBuilder::new()
                    .topology(Topology::new(vec![2, 1, 2]).unwrap())
                    .codec(codec)
                    .admission(lifl_types::AdmissionConfig::bounded(1, 1 << 20));
                if faults {
                    builder = builder.fault_tolerance(FaultToleranceConfig::default());
                }
                let cluster = builder.build_on(workers.clone()).unwrap();
                tier_run(
                    cluster,
                    &workers,
                    ten_active(5, 24),
                    config,
                    3,
                    |d, rng, k| {
                        if faults && k == 1 {
                            // Node 1 holds the client drained from round 1's
                            // backlog when it dies, after node 0's hop.
                            let node = lifl_types::NodeId::new(1);
                            d.backend_mut().schedule_node_failure(node, 1).unwrap();
                        }
                        let round = d.run_round(rng);
                        if faults && k == 1 {
                            let stats = d.backend().fault_stats().unwrap();
                            assert_eq!((stats.node_restarts, stats.lost_updates), (1, 2));
                        }
                        round
                    },
                )
            };
            let killed = run(true);
            assert!(killed.0.iter().all(Option::is_some), "{codec}: {killed:?}");
            assert_eq!(killed, run(false), "{codec}");
        }
    }

    /// The fixtures with ten participants a round out of `total` clients.
    fn ten_active(seed: u64, total: usize) -> (FederatedDataset, Population, SimRng) {
        let (dataset, _, mut rng) = fixtures(seed);
        let population = Population::generate(
            PopulationConfig {
                total_clients: total,
                active_per_round: 10,
                availability: ClientAvailability::AlwaysOn,
                mean_samples: 40,
                speed_spread: 0.3,
            },
            &mut rng,
        );
        (dataset, population, rng)
    }

    /// Streaming rounds of ten deliveries into an 8-update tree with a
    /// one-deep queue per leaf: the surplus parks while there is room and is
    /// turned away (and cut off) once there is none. Every round, model and
    /// draw below was recorded from the one-client-at-a-time loop.
    #[test]
    fn every_worker_count_streams_the_recorded_surplus() {
        let recorded = |codec| -> Run {
            let identity = codec == CodecKind::Identity;
            let rounds = vec![
                Some((
                    8,
                    0,
                    2,
                    4_608_176_045_555_237_074,
                    if identity {
                        91.333_333_333_333_33
                    } else {
                        90.666_666_666_666_67
                    },
                )),
                Some((
                    8,
                    0,
                    4,
                    if identity {
                        4_605_631_687_407_882_890
                    } else {
                        4_605_629_176_638_833_056
                    },
                    if identity {
                        96.333_333_333_333_33
                    } else {
                        96.0
                    },
                )),
                Some((
                    8,
                    2,
                    4,
                    if identity {
                        4_604_450_415_025_746_631
                    } else {
                        4_604_450_458_806_889_766
                    },
                    84.333_333_333_333_33,
                )),
            ];
            let fingerprint = if identity {
                3_200_472_312_565_110_265
            } else {
                4_792_152_253_880_534_447
            };
            (rounds, fingerprint, 508_978_108)
        };
        let config = TrainingConfig {
            streaming: true,
            ..tier_config()
        };
        for codec in [CodecKind::Identity, CodecKind::Uniform8] {
            for count in [0, 1, 3] {
                let workers = Workers::with_count(count);
                let session = tier_session(codec, &workers)
                    .admission(lifl_types::AdmissionConfig::bounded(1, 1 << 20))
                    .build()
                    .unwrap();
                let run = tier_run(
                    session,
                    &workers,
                    ten_active(5, 24),
                    config,
                    3,
                    |d, rng, _| d.run_round(rng),
                );
                assert_eq!(run, recorded(codec), "{codec} at {count} workers");
            }
        }
    }

    /// Over-provisioned rounds of ten participants for an 8-update tree:
    /// two stragglers cut off and replaced by the spares, a clean round,
    /// three stragglers that exhaust the spares and fail the round, and a
    /// straggler among the idle spares. Every round, model and draw below
    /// was recorded from the one-client-at-a-time loop.
    #[test]
    fn every_worker_count_cuts_off_the_recorded_stragglers() {
        let recorded = |codec| -> Run {
            let identity = codec == CodecKind::Identity;
            let rounds = vec![
                Some((8, 2, 0, 4_608_027_115_007_069_635, 99.0)),
                Some((
                    8,
                    0,
                    0,
                    if identity {
                        4_606_280_891_515_763_638
                    } else {
                        4_606_279_613_579_736_778
                    },
                    99.666_666_666_666_67,
                )),
                None,
                Some((
                    8,
                    0,
                    0,
                    if identity {
                        4_605_059_380_406_086_045
                    } else {
                        4_605_062_239_737_676_703
                    },
                    99.666_666_666_666_67,
                )),
            ];
            let fingerprint = if identity {
                11_235_456_787_736_010_049
            } else {
                4_498_080_235_499_747_907
            };
            (rounds, fingerprint, 340_911_727)
        };
        let config = TrainingConfig {
            expected_dropout: 0.2,
            ..tier_config()
        };
        let marks: [&[u64]; 4] = [&[0, 3], &[], &[1, 2, 4], &[9]];
        for codec in [CodecKind::Identity, CodecKind::Uniform8] {
            for count in [0, 1, 3] {
                let workers = Workers::with_count(count);
                let cluster = tier_cluster(codec).build_on(workers.clone()).unwrap();
                let run = tier_run(
                    cluster,
                    &workers,
                    ten_active(11, 10),
                    config,
                    4,
                    |d, rng, k| {
                        for &id in marks[k] {
                            d.mark_straggler(ClientId::new(id));
                        }
                        d.run_round(rng)
                    },
                );
                assert_eq!(run, recorded(codec), "{codec} at {count} workers");
            }
        }
    }

    /// A synchronous round whose ingest fails mid-round — a filler leaves the
    /// store room for three of the round's eight updates — returns the
    /// error, discards the round and leaves the driver reusable. Its
    /// trainees were decided, and their shuffles drawn, before anyone
    /// trained, so it drew exactly what the same round draws when it
    /// succeeds (the one-client-at-a-time loop stopped drawing at the
    /// failing client).
    #[test]
    fn a_failed_ingest_discards_the_round_and_leaves_the_driver_reusable() {
        const CAPACITY: u64 = 1 << 16;
        let store = lifl_shmem::ObjectStore::with_capacity(CAPACITY);
        let backend = SessionBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .store(store.clone())
            .build()
            .unwrap();
        let (dataset, population, mut rng) = fixtures(42);
        let mut driver = TrainingDriver::new(backend, dataset, population, tier_config());
        let filler = store.put(vec![0u8; CAPACITY as usize - 1_000]).unwrap();
        let outcome = driver.run_round(&mut rng);
        assert!(
            matches!(outcome, Err(LiflError::OutOfSharedMemory { .. })),
            "{outcome:?}"
        );
        assert_eq!(driver.backend().pending_updates(), 0);
        assert!(driver.history().is_empty());
        let (dataset, population, mut twin_rng) = fixtures(42);
        let mut twin = TrainingDriver::new(
            session(CodecKind::Identity),
            dataset,
            population,
            tier_config(),
        );
        twin.run_round(&mut twin_rng).unwrap();
        let next = rng.clone().index(1_000_000_007);
        assert_eq!(next, twin_rng.index(1_000_000_007));
        assert_eq!(next, 796_631_696);
        // With the filler gone the driver's next round goes through.
        store.recycle(&filler).unwrap();
        let round = driver.run_round(&mut rng).unwrap();
        assert_eq!((round.round, round.updates), (1, 8));
    }
}
