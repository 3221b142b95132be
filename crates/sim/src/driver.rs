//! The FL workload driver: combines the algorithm-level FedAvg training loop
//! (`lifl_core`'s `TrainingDriver` over the flat `lifl_fl::FlatFedAvg`
//! backend) with a simulated aggregation system ([`crate::platform`] under
//! one of the [`crate::systems`] profiles) to produce the system-level curves
//! of Fig. 9 and Fig. 10:
//! accuracy versus wall-clock time, accuracy versus cumulative CPU time,
//! update arrival rate, active aggregators and per-round CPU cost.

use crate::platform::RoundSpec;
use crate::system::AggregationSystem;
use lifl_core::training::{TrainingConfig, TrainingDriver};
use lifl_fl::dataset::DatasetConfig;
use lifl_fl::{FederatedDataset, FlatFedAvg, Population, PopulationConfig};
use lifl_simcore::{SimRng, TimeSeries};
use lifl_types::{CodecKind, ModelKind, SimDuration, SimTime};

/// Configuration of one end-to-end FL workload (§6.2).
#[derive(Debug, Clone)]
pub struct WorkloadSetup {
    /// The model whose update size drives system costs.
    pub model: ModelKind,
    /// Client population configuration.
    pub population: PopulationConfig,
    /// Synthetic dataset configuration.
    pub dataset: DatasetConfig,
    /// Algorithm-level driver configuration (rounds, trainer hyper-parameters).
    pub fl: TrainingConfig,
    /// Codec every client update travels through before aggregation
    /// (client-side error feedback keeps the long-run signal unbiased).
    pub codec: CodecKind,
    /// Random seed.
    pub seed: u64,
}

impl WorkloadSetup {
    /// The ResNet-18 workload of §6.2 scaled down to simulation-friendly sizes
    /// (population and activity match the paper; the training substrate is the
    /// synthetic task described in DESIGN.md).
    pub fn resnet18(rounds: usize) -> Self {
        WorkloadSetup {
            model: ModelKind::ResNet18,
            population: PopulationConfig {
                total_clients: 400,
                active_per_round: 120,
                ..PopulationConfig::resnet18_paper()
            },
            dataset: DatasetConfig {
                num_clients: 400,
                num_features: 24,
                num_classes: 20,
                mean_samples_per_client: 40,
                dirichlet_alpha: 0.4,
                test_samples: 1500,
                noise_std: 0.5,
            },
            fl: TrainingConfig {
                rounds,
                ..TrainingConfig::default()
            },
            codec: CodecKind::Identity,
            seed: 42,
        }
    }

    /// Returns the setup with every client update travelling `codec`
    /// (algorithm-level error-feedback encoding; pair it with a platform
    /// profile carrying the same codec so system costs match).
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// The ResNet-152 workload of §6.2 (15 always-on server clients).
    pub fn resnet152(rounds: usize) -> Self {
        WorkloadSetup {
            model: ModelKind::ResNet152,
            population: PopulationConfig {
                total_clients: 200,
                active_per_round: 15,
                ..PopulationConfig::resnet152_paper()
            },
            dataset: DatasetConfig {
                num_clients: 200,
                num_features: 24,
                num_classes: 20,
                mean_samples_per_client: 40,
                dirichlet_alpha: 0.4,
                test_samples: 1500,
                noise_std: 0.5,
            },
            fl: TrainingConfig {
                rounds,
                ..TrainingConfig::default()
            },
            codec: CodecKind::Identity,
            seed: 42,
        }
    }
}

/// The curves produced by running one workload on one system.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// System label ("LIFL", "SF", "SL").
    pub system: String,
    /// Accuracy (%) versus wall-clock hours (Fig. 9(a)/(c)).
    pub accuracy_vs_time: TimeSeries,
    /// Accuracy (%) versus cumulative CPU hours (Fig. 9(b)/(d)).
    pub accuracy_vs_cpu: TimeSeries,
    /// Update arrival rate per minute versus wall-clock hours (Fig. 10(a)/(d)).
    pub arrival_rate: TimeSeries,
    /// Active aggregators versus wall-clock hours (Fig. 10(b)/(e)).
    pub active_aggregators: TimeSeries,
    /// Cumulative CPU seconds per round (Fig. 10(c)/(f)).
    pub cpu_per_round: TimeSeries,
    /// Final accuracy reached.
    pub final_accuracy: f64,
    /// Total wall-clock time simulated.
    pub total_wall: SimDuration,
    /// Total CPU time consumed by the aggregation service.
    pub total_cpu: SimDuration,
}

impl WorkloadOutcome {
    /// Wall-clock hours to reach `accuracy_percent`, if reached (Fig. 9 headline).
    pub fn time_to_accuracy_hours(&self, accuracy_percent: f64) -> Option<f64> {
        self.accuracy_vs_time.first_crossing(accuracy_percent)
    }

    /// CPU hours to reach `accuracy_percent`, if reached.
    pub fn cpu_to_accuracy_hours(&self, accuracy_percent: f64) -> Option<f64> {
        self.accuracy_vs_cpu.first_crossing(accuracy_percent)
    }
}

/// Drives one workload against one aggregation system.
#[derive(Debug)]
pub struct WorkloadDriver {
    setup: WorkloadSetup,
}

impl WorkloadDriver {
    /// Creates a driver for the setup.
    pub fn new(setup: WorkloadSetup) -> Self {
        WorkloadDriver { setup }
    }

    /// Runs the workload on `system` and returns the curves.
    pub fn run<S: AggregationSystem>(&self, system: &mut S) -> WorkloadOutcome {
        let mut rng = SimRng::from_seed(self.setup.seed);
        let dataset = FederatedDataset::generate(self.setup.dataset, &mut rng);
        let population = Population::generate(self.setup.population, &mut rng);
        let backend = FlatFedAvg::new(
            population.active_per_round().min(population.len()),
            self.setup.codec,
        );
        let mut fl = TrainingDriver::new(backend, dataset, population.clone(), self.setup.fl);

        let label = system.label().to_string();
        let mut accuracy_vs_time = TimeSeries::new(label.clone());
        let mut accuracy_vs_cpu = TimeSeries::new(label.clone());
        let mut arrival_rate = TimeSeries::new(label.clone());
        let mut active_aggregators = TimeSeries::new(label.clone());
        let mut cpu_per_round = TimeSeries::new(label.clone());

        let mut wall = SimTime::ZERO;
        let mut cpu = SimDuration::ZERO;
        // Upload time of one update from client to cluster ingress.
        let upload = SimDuration::from_secs(self.setup.model.update_mib() * 0.008);

        for _ in 0..self.setup.fl.rounds {
            // 1. Algorithm level: who participates and what accuracy results.
            let outcome = fl
                .run_round(&mut rng)
                .expect("a flat round over exactly its own selection cannot fail");
            let participants = population.select_round(&mut rng);

            // 2. System level: when does each participant's update arrive.
            let arrivals: Vec<SimTime> = participants
                .iter()
                .take(outcome.updates as usize)
                .map(|c| c.update_arrival(wall, self.setup.model, upload, &mut rng))
                .collect();
            let spec = RoundSpec::new(self.setup.model, arrivals.clone());
            let report = system.run_round(&spec);

            // 3. Bookkeeping for the Fig. 9 / Fig. 10 curves.
            if let (Some(first), Some(last)) = (arrivals.iter().min(), arrivals.iter().max()) {
                let window_min = (last.duration_since(*first).as_secs() / 60.0).max(1e-3);
                arrival_rate.push_xy(wall.as_secs() / 3600.0, arrivals.len() as f64 / window_min);
                let _ = first;
            }
            cpu += report.metrics.cpu_time;
            cpu_per_round.push_xy(outcome.round as f64, report.metrics.cpu_time.as_secs());
            active_aggregators.push_xy(wall.as_secs() / 3600.0, system.active_aggregators() as f64);
            wall = report.eval_finished;
            if let Some(acc) = outcome.accuracy {
                accuracy_vs_time.push_xy(wall.as_secs() / 3600.0, acc);
                accuracy_vs_cpu.push_xy(cpu.as_hours(), acc);
            }
        }

        WorkloadOutcome {
            system: label,
            final_accuracy: fl.evaluate(),
            total_wall: wall.duration_since(SimTime::ZERO),
            total_cpu: cpu,
            accuracy_vs_time,
            accuracy_vs_cpu,
            arrival_rate,
            active_aggregators,
            cpu_per_round,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::LiflPlatform;
    use crate::systems;
    use lifl_types::{ClusterConfig, LiflConfig};

    fn tiny_setup() -> WorkloadSetup {
        let mut setup = WorkloadSetup::resnet18(5);
        setup.population.total_clients = 60;
        setup.population.active_per_round = 20;
        setup.dataset.num_clients = 60;
        setup.dataset.test_samples = 200;
        setup
    }

    #[test]
    fn workload_produces_all_series() {
        let driver = WorkloadDriver::new(tiny_setup());
        let mut lifl = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
        let outcome = driver.run(&mut lifl);
        assert_eq!(outcome.system, "LIFL");
        assert_eq!(outcome.accuracy_vs_time.len(), 5);
        assert_eq!(outcome.cpu_per_round.len(), 5);
        assert!(outcome.total_wall.as_secs() > 0.0);
        assert!(outcome.total_cpu.as_secs() > 0.0);
        assert!(outcome.final_accuracy > 0.0);
    }

    #[test]
    fn lifl_cheaper_and_faster_than_serverless() {
        let setup = tiny_setup();
        let driver = WorkloadDriver::new(setup);
        let mut lifl = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
        let mut sl = systems::serverless(ClusterConfig::default());
        let lifl_out = driver.run(&mut lifl);
        let sl_out = driver.run(&mut sl);
        assert!(lifl_out.total_cpu < sl_out.total_cpu);
        assert!(lifl_out.total_wall < sl_out.total_wall);
    }
}
