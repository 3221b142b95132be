//! Fig. 11 / future work: asynchronous FL with eager versus lazy aggregation.
//!
//! The paper's implementation is synchronous; Fig. 11 (Appendix) sketches the
//! intended asynchronous semantics and §7 lists async FL as future work. This
//! experiment exercises that extension end to end:
//!
//! * **Semantics check** — a version is committed every `goal` updates
//!   whether they are folded as they arrive (eager, Fig. 11(a): a
//!   `CumulativeFedAvg`) or buffered and aggregated when the goal is reached
//!   (lazy, Fig. 11(b): a flat session of fan-in `goal`, driven at each
//!   fill), and both commit identical models.
//! * **Algorithm check** — a full asynchronous FedAvg run
//!   ([`TrainingDriver::run_async`] over a flat session) on the synthetic
//!   non-IID workload, comparing staleness-weighting policies (constant,
//!   polynomial, hinge) on committed versions, observed staleness and final
//!   accuracy.

use crate::report::format_table;
use lifl_core::session::{SessionBuilder, Update};
use lifl_core::training::{TrainingConfig, TrainingDriver};
use lifl_fl::client::ClientAvailability;
use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
use lifl_fl::population::{Population, PopulationConfig};
use lifl_fl::staleness::StalenessPolicy;
use lifl_fl::trainer::TrainerConfig;
use lifl_fl::{CumulativeFedAvg, DenseModel, ModelUpdate};
use lifl_simcore::SimRng;
use lifl_types::{ClientId, Topology};
use serde::Serialize;

/// One row of the staleness-policy comparison.
#[derive(Debug, Clone, Serialize)]
pub struct AsyncPolicyRow {
    /// Policy label.
    pub policy: String,
    /// Versions committed.
    pub versions: usize,
    /// Wall-clock time of the final commit (seconds).
    pub final_commit_secs: f64,
    /// Fraction of accepted updates that were stale.
    pub stale_fraction: f64,
    /// Mean staleness across accepted updates.
    pub mean_staleness: f64,
    /// Final test accuracy (percent).
    pub final_accuracy: f64,
}

/// The full Fig. 11 experiment result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Result {
    /// Whether eager and lazy async aggregation committed identical models.
    pub eager_lazy_equivalent: bool,
    /// Staleness-policy comparison rows.
    pub policies: Vec<AsyncPolicyRow>,
}

fn semantics_check() -> bool {
    let goal = 4;
    let updates: Vec<ModelUpdate> = (1..=8u64)
        .map(|i| {
            ModelUpdate::from_client(
                ClientId::new(i),
                DenseModel::from_vec(vec![i as f32, (i * 2) as f32, -(i as f32)]),
                i,
            )
        })
        .collect();
    let mut eager = CumulativeFedAvg::default();
    let mut lazy = SessionBuilder::new()
        .topology(Topology::flat(goal))
        .build()
        .expect("flat session");
    updates.chunks(goal).all(|window| {
        for update in window {
            eager.fold(update).expect("eager fold");
        }
        let eager = eager.finalize().expect("eager version");
        let lazy = (lazy.ingest_all(window.iter().cloned().map(Update::Dense)))
            .and_then(|()| lazy.drive())
            .expect("lazy version");
        (eager.model.as_slice().iter())
            .zip(lazy.update.model.as_slice())
            .all(|(x, y)| (x - y).abs() < 1e-5)
    })
}

fn run_policy(policy: StalenessPolicy, label: &str, seed: u64) -> AsyncPolicyRow {
    let mut rng = SimRng::from_seed(seed);
    let dataset = FederatedDataset::generate(
        DatasetConfig {
            num_clients: 60,
            num_features: 16,
            num_classes: 8,
            mean_samples_per_client: 40,
            dirichlet_alpha: 0.4,
            test_samples: 400,
            noise_std: 0.4,
        },
        &mut rng,
    );
    let population = Population::generate(
        PopulationConfig {
            total_clients: 60,
            active_per_round: 24,
            availability: ClientAvailability::Hibernating { max_secs: 30.0 },
            mean_samples: 40,
            speed_spread: 0.6,
        },
        &mut rng,
    );
    // A version every 12 updates, 15 of them, 24 clients training at once.
    let buffer = SessionBuilder::new()
        .topology(Topology::flat(12))
        .build()
        .expect("flat session");
    let config = TrainingConfig {
        trainer: TrainerConfig {
            batch_size: 16,
            learning_rate: 0.05,
            local_epochs: 2,
            mu: 0.0,
        },
        rounds: 15,
        ..TrainingConfig::default()
    };
    let mut driver = TrainingDriver::new(buffer, dataset, population, config);
    let versions = driver.run_async(&mut rng, policy).expect("async run");
    let tracker = driver.staleness();
    AsyncPolicyRow {
        policy: label.to_string(),
        versions: versions.len(),
        final_commit_secs: versions
            .last()
            .map(|v| v.committed_at.as_secs())
            .unwrap_or(0.0),
        stale_fraction: if tracker.count() == 0 {
            0.0
        } else {
            tracker.stale_count() as f64 / tracker.count() as f64
        },
        mean_staleness: tracker.mean(),
        final_accuracy: driver.evaluate(),
    }
}

/// Runs the asynchronous-FL experiment.
pub fn run() -> Fig11Result {
    let policies = vec![
        run_policy(StalenessPolicy::Constant, "constant", 11),
        run_policy(
            StalenessPolicy::Polynomial { exponent: 0.5 },
            "poly(0.5)",
            11,
        ),
        run_policy(
            StalenessPolicy::Hinge {
                threshold: 2,
                slope: 0.5,
            },
            "hinge(2,0.5)",
            11,
        ),
    ];
    Fig11Result {
        eager_lazy_equivalent: semantics_check(),
        policies,
    }
}

/// Formats the experiment result.
pub fn format(result: &Fig11Result) -> String {
    let mut out = String::from("Fig. 11 / future work: asynchronous FL\n");
    out.push_str(&format!(
        "eager and lazy async aggregation commit identical models: {}\n\n",
        result.eager_lazy_equivalent
    ));
    out.push_str(&format_table(
        &[
            "staleness policy",
            "versions",
            "final commit (s)",
            "stale frac",
            "mean staleness",
            "accuracy (%)",
        ],
        &result
            .policies
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    r.versions.to_string(),
                    format!("{:.0}", r.final_commit_secs),
                    format!("{:.2}", r.stale_fraction),
                    format!("{:.2}", r.mean_staleness),
                    format!("{:.1}", r.final_accuracy),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_semantics_and_policies_behave() {
        let result = run();
        assert!(result.eager_lazy_equivalent);
        assert_eq!(result.policies.len(), 3);
        for row in &result.policies {
            assert_eq!(row.versions, 15);
            assert!(row.final_commit_secs > 0.0);
            assert!(
                row.stale_fraction > 0.0,
                "{}: async runs should observe staleness",
                row.policy
            );
            assert!(
                row.final_accuracy > 30.0,
                "{}: async FedAvg should learn, got {:.1}%",
                row.policy,
                row.final_accuracy
            );
        }
        // All policies ran the same workload, so wall-clock of the final
        // commit matches across policies (weighting changes models, not timing).
        let times: Vec<f64> = result
            .policies
            .iter()
            .map(|r| r.final_commit_secs)
            .collect();
        assert!((times[0] - times[1]).abs() < 1e-6);
        let text = format(&result);
        assert!(text.contains("poly(0.5)"));
    }
}
