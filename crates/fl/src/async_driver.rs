//! Buffered asynchronous FL (FedBuff-style; Fig. 11, §7 future work).
//!
//! The paper's platform supports synchronous FL and lists asynchronous FL as
//! future work (§6, §7); Fig. 11 sketches the intended semantics (Huba et
//! al., 2022; Nguyen et al., 2022): the global model advances every time
//! `goal` updates have been aggregated, regardless of which version a client
//! trained against, and updates keep streaming in while versions advance.
//!
//! [`AsyncAggregator`] is that rule, once: it buffers accepted updates — in
//! their codec-transparent [`Update`] envelope, so lossy updates fold fused —
//! and commits a [`ModelVersion`] every `goal` of them, under eager
//! (fold on arrival, Fig. 11(a)) or lazy (fold at commit, Fig. 11(b))
//! timing. [`AsyncFlDriver`] is the loop that feeds it: clients continuously
//! train against whatever global version they last pulled, updates arrive in
//! completion-time order and stale ones are down-weighted with a
//! [`StalenessPolicy`] before they are submitted.

use crate::aggregate::CumulativeFedAvg;
use crate::codec::{EncodedView, ErrorFeedback, UpdateCodec};
use crate::dataset::FederatedDataset;
use crate::metrics::accuracy_percent;
use crate::model::DenseModel;
use crate::population::Population;
use crate::staleness::{StalenessPolicy, StalenessTracker};
use crate::trainer::{LocalTrainer, TrainerConfig};
use crate::update::Update;
use lifl_simcore::SimRng;
use lifl_types::{AggregationTiming, CodecKind, LiflError, ModelKind, Result, RoundId, SimTime};

/// One committed global-model version.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelVersion {
    /// Version number (starts at 1 for the first committed aggregate).
    pub version: RoundId,
    /// The committed global model.
    pub model: DenseModel,
    /// Total samples folded into this version's window.
    pub samples: u64,
    /// Simulated time at which the version was committed.
    pub committed_at: SimTime,
    /// Updates folded into this version's window (the aggregation goal).
    pub updates: u64,
    /// Number of updates whose base model was stale (trained against an older version).
    pub stale_updates: u64,
    /// Sum over the window's updates of how many versions behind each was.
    pub staleness_sum: u64,
}

/// The buffered asynchronous aggregator: commits a new global model every
/// `goal` *accepted* updates (Fig. 11's "Aggregation Goal = 2" pattern).
///
/// An update is validated when it is submitted, under both timings, and a
/// refused submit changes nothing — so eager and lazy timing commit
/// identical versions for any submit sequence, refused ones included.
#[derive(Debug, Clone)]
pub struct AsyncAggregator {
    goal: u64,
    timing: AggregationTiming,
    accumulator: CumulativeFedAvg,
    buffered: Vec<Update>,
    versions: Vec<ModelVersion>,
    /// Updates accepted into the open window.
    received: u64,
    /// Model dimension of the open window's first update.
    window_dim: Option<usize>,
    stale_in_window: u64,
    staleness_sum: u64,
}

/// The model dimension an update folds at.
fn update_dim(update: &Update) -> Result<usize> {
    Ok(match update {
        Update::Dense(dense) => dense.model.dim(),
        Update::Encoded { update, .. } => update.view().dim(),
        Update::RemoteBytes {
            wire,
            encoded: true,
            ..
        } => EncodedView::parse(wire)?.dim(),
        Update::RemoteBytes { wire, .. } => EncodedView::identity_over(wire).dim(),
    })
}

impl AsyncAggregator {
    /// Creates an asynchronous aggregator committing every `goal` updates.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] if `goal` is zero.
    pub fn new(goal: u64, timing: AggregationTiming) -> Result<Self> {
        if goal == 0 {
            return Err(LiflError::InvalidAggregationGoal(0));
        }
        Ok(AsyncAggregator {
            goal,
            timing,
            accumulator: CumulativeFedAvg::default(),
            buffered: Vec::new(),
            versions: Vec::new(),
            received: 0,
            window_dim: None,
            stale_in_window: 0,
            staleness_sum: 0,
        })
    }

    /// The aggregation goal per committed version.
    pub fn goal(&self) -> u64 {
        self.goal
    }

    /// Committed versions so far.
    pub fn versions(&self) -> &[ModelVersion] {
        &self.versions
    }

    /// The latest committed global model, if any version has been committed.
    pub fn latest(&self) -> Option<&ModelVersion> {
        self.versions.last()
    }

    /// Submits one client update trained against `base_version` (0 = initial
    /// model), arriving at `now`. Returns the newly committed version if this
    /// update completed a window.
    ///
    /// # Errors
    /// Refuses an update carrying zero samples
    /// ([`LiflError::InvalidAggregationGoal`]), one whose dimension differs
    /// from the open window's first update
    /// ([`LiflError::DimensionMismatch`]) and malformed remote bytes. A
    /// refused update counts nothing toward the goal and leaves the window
    /// exactly as it was.
    pub fn submit(
        &mut self,
        update: Update,
        base_version: u64,
        now: SimTime,
    ) -> Result<Option<ModelVersion>> {
        if update.weight() == 0 {
            return Err(LiflError::InvalidAggregationGoal(0));
        }
        let dim = update_dim(&update)?;
        let expected = self.window_dim.unwrap_or(dim);
        if dim != expected {
            return Err(LiflError::DimensionMismatch {
                expected,
                actual: dim,
            });
        }
        match self.timing {
            // Fold immediately (Fig. 11(a)).
            AggregationTiming::Eager => self.accumulator.fold_update(&update)?,
            // Queue until the window is complete (Fig. 11(b)).
            AggregationTiming::Lazy => self.buffered.push(update),
        }
        self.window_dim = Some(dim);
        self.received += 1;
        let tau = (self.versions.len() as u64).saturating_sub(base_version);
        self.stale_in_window += u64::from(tau > 0);
        self.staleness_sum += tau;
        if self.received < self.goal {
            return Ok(None);
        }
        for buffered in self.buffered.drain(..) {
            self.accumulator.fold_update(&buffered)?;
        }
        let aggregate = self.accumulator.finalize()?;
        let version = ModelVersion {
            version: RoundId::new(self.versions.len() as u64 + 1),
            model: aggregate.model,
            samples: aggregate.samples,
            committed_at: now,
            updates: std::mem::take(&mut self.received),
            stale_updates: std::mem::take(&mut self.stale_in_window),
            staleness_sum: std::mem::take(&mut self.staleness_sum),
        };
        self.window_dim = None;
        self.versions.push(version.clone());
        Ok(Some(version))
    }
}

/// Configuration of the asynchronous driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncDriverConfig {
    /// Local-training configuration.
    pub trainer: TrainerConfig,
    /// Number of client updates buffered before a commit (FedBuff's K).
    pub buffer_goal: usize,
    /// Number of global versions to commit before stopping.
    pub target_versions: usize,
    /// Number of clients training concurrently (the concurrency of Fig. 11).
    pub concurrency: usize,
    /// Staleness weighting applied to accepted updates.
    pub staleness: StalenessPolicy,
    /// Workload model (drives per-client training time).
    pub model: ModelKind,
    /// Evaluate accuracy every this many committed versions (1 = every version).
    pub eval_every: usize,
    /// Codec every client update travels through before buffering. Lossy
    /// codecs run per-client error feedback and the staleness-weighted
    /// update is folded via the fused encoded path — no dense intermediate.
    pub codec: CodecKind,
}

impl Default for AsyncDriverConfig {
    fn default() -> Self {
        AsyncDriverConfig {
            trainer: TrainerConfig::default(),
            buffer_goal: 10,
            target_versions: 20,
            concurrency: 40,
            staleness: StalenessPolicy::Polynomial { exponent: 0.5 },
            model: ModelKind::ResNet18,
            eval_every: 1,
            codec: CodecKind::Identity,
        }
    }
}

impl AsyncDriverConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] for a zero buffer goal, zero
    /// concurrency or an invalid staleness policy.
    pub fn validate(&self) -> Result<()> {
        if self.buffer_goal == 0 {
            return Err(LiflError::InvalidConfig(
                "buffer_goal must be at least 1".into(),
            ));
        }
        if self.concurrency == 0 {
            return Err(LiflError::InvalidConfig(
                "concurrency must be at least 1".into(),
            ));
        }
        if self.target_versions == 0 {
            return Err(LiflError::InvalidConfig(
                "target_versions must be at least 1".into(),
            ));
        }
        self.staleness.validate()
    }
}

/// One committed global version with its bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncVersionOutcome {
    /// Version number, starting at 1.
    pub version: usize,
    /// Simulated wall-clock time of the commit.
    pub committed_at: SimTime,
    /// Updates folded into this version.
    pub updates: usize,
    /// Updates whose base model was stale.
    pub stale_updates: usize,
    /// Mean staleness of the folded updates.
    pub mean_staleness: f64,
    /// Test accuracy after the commit, if evaluated.
    pub accuracy: Option<f64>,
}

/// In-flight local training: which client, which base version, when it finishes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct InFlight {
    client_idx: usize,
    base_version: usize,
    finish_at: SimTime,
}

/// Runs buffered asynchronous FedAvg over a population and dataset.
#[derive(Debug, Clone)]
pub struct AsyncFlDriver {
    dataset: FederatedDataset,
    population: Population,
    trainer: LocalTrainer,
    config: AsyncDriverConfig,
    global: DenseModel,
    history: Vec<AsyncVersionOutcome>,
    tracker: StalenessTracker,
    feedback: ErrorFeedback,
    aggregator: AsyncAggregator,
}

impl AsyncFlDriver {
    /// Creates a driver with a zero-initialised global model.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when the configuration is invalid.
    pub fn new(
        dataset: FederatedDataset,
        population: Population,
        config: AsyncDriverConfig,
    ) -> Result<Self> {
        config.validate()?;
        let trainer = LocalTrainer::new(dataset.num_features, dataset.num_classes, config.trainer);
        let global = dataset.initial_model();
        let feedback = ErrorFeedback::new(UpdateCodec::with_seed(config.codec, 0xA51C));
        let aggregator = AsyncAggregator::new(config.buffer_goal as u64, AggregationTiming::Eager)?;
        Ok(AsyncFlDriver {
            dataset,
            population,
            trainer,
            config,
            global,
            history: Vec::new(),
            tracker: StalenessTracker::new(),
            feedback,
            aggregator,
        })
    }

    /// The current global model.
    pub fn global_model(&self) -> &DenseModel {
        &self.global
    }

    /// Committed version outcomes.
    pub fn history(&self) -> &[AsyncVersionOutcome] {
        &self.history
    }

    /// Aggregate staleness statistics across the whole run.
    pub fn staleness(&self) -> &StalenessTracker {
        &self.tracker
    }

    /// Current test accuracy of the global model.
    pub fn evaluate(&self) -> f64 {
        accuracy_percent(&self.trainer, &self.global, self.dataset.test_set())
    }

    /// Runs the configured number of versions and returns the history.
    ///
    /// The event loop keeps `concurrency` clients training at all times: when
    /// a client finishes, its update is weighted by staleness and submitted to
    /// the [`AsyncAggregator`], the client immediately pulls the latest global
    /// model and starts the next local round, and every version the
    /// aggregator commits (one per `buffer_goal` accepted updates) becomes the
    /// global model.
    pub fn run(&mut self, rng: &mut SimRng) -> Vec<AsyncVersionOutcome> {
        let clients = self.population.clients().to_vec();
        if clients.is_empty() {
            return Vec::new();
        }
        // Seed the in-flight set with `concurrency` random clients at t = 0.
        let mut in_flight: Vec<InFlight> = Vec::with_capacity(self.config.concurrency);
        let mut order: Vec<usize> = (0..clients.len()).collect();
        rng.shuffle(&mut order);
        for &client_idx in order.iter().take(self.config.concurrency) {
            let finish_at = SimTime::ZERO
                + clients[client_idx].hibernation(rng)
                + clients[client_idx].training_time(self.config.model);
            in_flight.push(InFlight {
                client_idx,
                base_version: 0,
                finish_at,
            });
        }

        while self.history.len() < self.config.target_versions {
            // Pop the earliest completion.
            let (next_idx, _) = match in_flight
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.finish_at.as_secs().total_cmp(&b.1.finish_at.as_secs()))
            {
                Some((i, f)) => (i, *f),
                None => break,
            };
            let finished = in_flight.swap_remove(next_idx);
            let client = &clients[finished.client_idx];
            let now = finished.finish_at;
            let tau = (self.history.len() - finished.base_version) as u64;
            self.tracker.record(tau);

            // Local training against the version the client based on. We train
            // against the *current* global as an approximation of keeping a
            // copy of every historical version; the staleness weight encodes
            // the trust discount.
            let shard = self.dataset.shard(client.id);
            let (local, _) = self.trainer.train(&self.global, shard, rng);
            let samples = shard.len().max(1) as u64;
            let weighted_samples = self.config.staleness.scaled_samples(samples, tau);
            // The staleness discount rides the sample weight of the
            // codec-transparent envelope: lossy codecs ship the encoded form
            // and fold fused, dense stays dense, through one path.
            let update = self
                .feedback
                .encode_update(client.id, local, weighted_samples);
            let base_version = finished.base_version as u64;
            if let Ok(Some(committed)) = self.aggregator.submit(update, base_version, now) {
                self.global = committed.model;
                let version = self.history.len() + 1;
                let accuracy = version
                    .is_multiple_of(self.config.eval_every.max(1))
                    .then(|| self.evaluate());
                self.history.push(AsyncVersionOutcome {
                    version,
                    committed_at: committed.committed_at,
                    updates: committed.updates as usize,
                    stale_updates: committed.stale_updates as usize,
                    mean_staleness: committed.staleness_sum as f64 / committed.updates as f64,
                    accuracy,
                });
            }

            // The finished client immediately starts the next local round
            // against the latest committed version.
            let finish_at = now + client.hibernation(rng) + client.training_time(self.config.model);
            in_flight.push(InFlight {
                client_idx: finished.client_idx,
                base_version: self.history.len(),
                finish_at,
            });
        }
        self.history.clone()
    }

    /// The accuracy-versus-version curve (version, accuracy percent).
    pub fn accuracy_curve(&self) -> Vec<(usize, f64)> {
        self.history
            .iter()
            .filter_map(|v| v.accuracy.map(|a| (v.version, a)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{fedavg, ModelUpdate};
    use crate::client::ClientAvailability;
    use crate::dataset::DatasetConfig;
    use crate::population::PopulationConfig;
    use lifl_types::ClientId;

    fn update(i: u64, values: Vec<f32>, samples: u64) -> Update {
        Update::dense(ClientId::new(i), DenseModel::from_vec(values), samples)
    }

    #[test]
    fn commits_every_goal_updates() {
        let mut agg = AsyncAggregator::new(2, AggregationTiming::Eager).unwrap();
        assert!(agg
            .submit(update(1, vec![1.0, 1.0], 1), 0, SimTime::from_secs(1.0))
            .unwrap()
            .is_none());
        let v1 = agg
            .submit(update(2, vec![3.0, 3.0], 1), 0, SimTime::from_secs(2.0))
            .unwrap()
            .expect("first version");
        assert_eq!(v1.version, RoundId::new(1));
        assert_eq!(v1.model.as_slice(), &[2.0, 2.0]);
        assert_eq!(v1.stale_updates, 0);
        // Next window: a client still training against version 0 is stale.
        agg.submit(update(3, vec![0.0, 0.0], 1), 0, SimTime::from_secs(3.0))
            .unwrap();
        let v2 = agg
            .submit(update(4, vec![4.0, 4.0], 3), 1, SimTime::from_secs(4.0))
            .unwrap()
            .expect("second version");
        assert_eq!(v2.version, RoundId::new(2));
        assert_eq!(v2.stale_updates, 1);
        assert_eq!(agg.versions().len(), 2);
        assert_eq!(agg.latest().unwrap().version, RoundId::new(2));
    }

    #[test]
    fn eager_and_lazy_commit_identical_models() {
        let updates: Vec<ModelUpdate> = (1..=6)
            .map(|i| {
                let model = DenseModel::from_vec(vec![i as f32, (i * i) as f32]);
                ModelUpdate::from_client(ClientId::new(i), model, i)
            })
            .collect();
        let mut eager = AsyncAggregator::new(3, AggregationTiming::Eager).unwrap();
        let mut lazy = AsyncAggregator::new(3, AggregationTiming::Lazy).unwrap();
        for (k, u) in updates.iter().enumerate() {
            let t = SimTime::from_secs(k as f64);
            eager.submit(u.clone().into(), 0, t).unwrap();
            lazy.submit(u.clone().into(), 0, t).unwrap();
        }
        assert_eq!(eager.versions().len(), 2);
        assert_eq!(lazy.versions().len(), 2);
        for (a, b) in eager.versions().iter().zip(lazy.versions()) {
            for (x, y) in a.model.as_slice().iter().zip(b.model.as_slice()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
        // Each window matches the batch FedAvg of its updates.
        let first_window = fedavg(&updates[..3]).unwrap();
        for (x, y) in eager.versions()[0]
            .model
            .as_slice()
            .iter()
            .zip(first_window.model.as_slice())
        {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_goal_is_rejected() {
        assert!(AsyncAggregator::new(0, AggregationTiming::Eager).is_err());
    }

    #[test]
    fn goal_one_commits_every_update() {
        let mut agg = AsyncAggregator::new(1, AggregationTiming::Lazy).unwrap();
        for i in 1..=4u64 {
            let committed = agg
                .submit(
                    update(i, vec![i as f32], 1),
                    i - 1,
                    SimTime::from_secs(i as f64),
                )
                .unwrap();
            assert!(committed.is_some());
        }
        assert_eq!(agg.versions().len(), 4);
        assert_eq!(agg.goal(), 1);
    }

    #[test]
    fn refused_submit_changes_nothing_under_either_timing() {
        // Refused, good, good, good at goal 2: exactly one version, of the
        // first two good updates, committed by the second of them.
        let mut committed = Vec::new();
        for timing in [AggregationTiming::Eager, AggregationTiming::Lazy] {
            let mut agg = AsyncAggregator::new(2, timing).unwrap();
            let at = SimTime::from_secs;
            assert!(agg
                .submit(update(9, vec![7.0, 7.0], 0), 0, at(0.0))
                .is_err());
            assert_eq!(
                agg.submit(update(1, vec![1.0, 1.0], 1), 0, at(1.0)),
                Ok(None),
                "{timing:?}"
            );
            // A mismatched dimension mid-window is refused the same way.
            assert!(agg.submit(update(8, vec![5.0], 1), 0, at(1.5)).is_err());
            let version = agg
                .submit(update(2, vec![3.0, 3.0], 1), 0, at(2.0))
                .unwrap()
                .expect("the second good update completes the window");
            assert_eq!(version.updates, 2, "{timing:?}");
            assert_eq!(version.samples, 2, "{timing:?}");
            assert_eq!(version.model.as_slice(), &[2.0, 2.0], "{timing:?}");
            assert_eq!(
                agg.submit(update(3, vec![5.0, 5.0], 1), 1, at(3.0)),
                Ok(None),
                "{timing:?}"
            );
            assert_eq!(agg.versions().len(), 1, "{timing:?}");
            committed.push(version);
        }
        assert_eq!(committed[0], committed[1]);
    }

    fn setup(seed: u64, config: AsyncDriverConfig) -> (AsyncFlDriver, SimRng) {
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
                active_per_round: config.concurrency,
                availability: ClientAvailability::Hibernating { max_secs: 30.0 },
                mean_samples: 40,
                speed_spread: 0.5,
            },
            &mut rng,
        );
        let driver = AsyncFlDriver::new(dataset, population, config).unwrap();
        (driver, rng)
    }

    fn fast_config() -> AsyncDriverConfig {
        AsyncDriverConfig {
            trainer: TrainerConfig {
                batch_size: 16,
                learning_rate: 0.05,
                local_epochs: 2,
            },
            buffer_goal: 8,
            target_versions: 10,
            concurrency: 16,
            staleness: StalenessPolicy::Polynomial { exponent: 0.5 },
            model: ModelKind::ResNet18,
            eval_every: 1,
            codec: CodecKind::Identity,
        }
    }

    #[test]
    fn commits_requested_number_of_versions() {
        let (mut driver, mut rng) = setup(5, fast_config());
        let versions = driver.run(&mut rng);
        assert_eq!(versions.len(), 10);
        for (i, v) in versions.iter().enumerate() {
            assert_eq!(v.version, i + 1);
            assert_eq!(v.updates, 8);
            assert!(v.accuracy.is_some());
        }
        // Commits happen in non-decreasing time order.
        for pair in versions.windows(2) {
            assert!(pair[1].committed_at.as_secs() >= pair[0].committed_at.as_secs());
        }
    }

    #[test]
    fn accuracy_improves_over_versions() {
        let (mut driver, mut rng) = setup(
            42,
            AsyncDriverConfig {
                target_versions: 15,
                ..fast_config()
            },
        );
        let initial = driver.evaluate();
        driver.run(&mut rng);
        let final_acc = driver.evaluate();
        assert!(
            final_acc > initial + 10.0,
            "async training should learn: {initial} -> {final_acc}"
        );
        assert_eq!(driver.accuracy_curve().len(), 15);
    }

    #[test]
    fn staleness_is_observed_and_bounded_by_version_count() {
        let (mut driver, mut rng) = setup(9, fast_config());
        driver.run(&mut rng);
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
        let config = AsyncDriverConfig {
            target_versions: 1,
            ..fast_config()
        };
        let (mut dense, mut rng_d) = setup(23, config);
        let (mut quant, mut rng_q) = setup(
            23,
            AsyncDriverConfig {
                codec: CodecKind::Uniform8,
                ..config
            },
        );
        dense.run(&mut rng_d);
        quant.run(&mut rng_q);
        let max_abs = dense
            .global_model()
            .as_slice()
            .iter()
            .fold(0.0f32, |a, v| a.max(v.abs()));
        // One quantization step of the largest update magnitude, with slack
        // for the weighted averaging across the buffer.
        let tolerance = (2.0 * max_abs / 127.0).max(1e-4);
        for (a, b) in dense
            .global_model()
            .as_slice()
            .iter()
            .zip(quant.global_model().as_slice())
        {
            assert!(
                (a - b).abs() <= tolerance,
                "uniform8 async drifted: |{a} - {b}| > {tolerance}"
            );
        }
    }

    #[test]
    fn quantized_async_run_still_learns() {
        let (mut driver, mut rng) = setup(
            31,
            AsyncDriverConfig {
                codec: CodecKind::Uniform8,
                target_versions: 12,
                ..fast_config()
            },
        );
        let initial = driver.evaluate();
        driver.run(&mut rng);
        let final_acc = driver.evaluate();
        assert!(
            final_acc > initial + 10.0,
            "quantized async training should learn: {initial} -> {final_acc}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut a, mut ra) = setup(77, fast_config());
        let (mut b, mut rb) = setup(77, fast_config());
        let va = a.run(&mut ra);
        let vb = b.run(&mut rb);
        assert_eq!(va, vb);
        assert_eq!(a.global_model(), b.global_model());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut rng = SimRng::from_seed(1);
        let dataset = FederatedDataset::generate(
            DatasetConfig {
                num_clients: 4,
                num_features: 4,
                num_classes: 2,
                mean_samples_per_client: 10,
                dirichlet_alpha: 1.0,
                test_samples: 10,
                noise_std: 0.2,
            },
            &mut rng,
        );
        let population = Population::generate(
            PopulationConfig {
                total_clients: 4,
                active_per_round: 2,
                availability: ClientAvailability::AlwaysOn,
                mean_samples: 10,
                speed_spread: 0.1,
            },
            &mut rng,
        );
        for bad in [
            AsyncDriverConfig {
                buffer_goal: 0,
                ..AsyncDriverConfig::default()
            },
            AsyncDriverConfig {
                concurrency: 0,
                ..AsyncDriverConfig::default()
            },
            AsyncDriverConfig {
                target_versions: 0,
                ..AsyncDriverConfig::default()
            },
            AsyncDriverConfig {
                staleness: StalenessPolicy::Polynomial { exponent: 0.0 },
                ..AsyncDriverConfig::default()
            },
        ] {
            assert!(AsyncFlDriver::new(dataset.clone(), population.clone(), bad).is_err());
        }
    }
}
