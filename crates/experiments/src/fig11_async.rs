//! Fig. 11 / future work: asynchronous FL with eager versus lazy aggregation.
//!
//! The paper's implementation is synchronous; Fig. 11 (Appendix) sketches the
//! intended asynchronous semantics and §7 lists async FL as future work. This
//! experiment exercises that extension end to end:
//!
//! * **Semantics check** — the buffered asynchronous aggregator commits a new
//!   global version every `goal` updates under both eager and lazy timing, and
//!   both timings commit identical models (Fig. 11(a) vs 11(b)).
//! * **Algorithm check** — a full asynchronous FedAvg run over the synthetic
//!   non-IID workload, comparing staleness-weighting policies (constant,
//!   polynomial, hinge) on committed versions, observed staleness and final
//!   accuracy.

use crate::report::format_table;
use lifl_fl::async_driver::{AsyncDriverConfig, AsyncFlDriver};
use lifl_fl::client::ClientAvailability;
use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
use lifl_fl::population::{Population, PopulationConfig};
use lifl_fl::staleness::StalenessPolicy;
use lifl_fl::trainer::TrainerConfig;
use lifl_simcore::SimRng;
use lifl_types::ModelKind;
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
    use lifl_fl::aggregate::ModelUpdate;
    use lifl_fl::async_driver::AsyncAggregator;
    use lifl_fl::DenseModel;
    use lifl_types::{AggregationTiming, ClientId, SimTime};

    let updates: Vec<ModelUpdate> = (1..=8u64)
        .map(|i| {
            ModelUpdate::from_client(
                ClientId::new(i),
                DenseModel::from_vec(vec![i as f32, (i * 2) as f32, -(i as f32)]),
                i,
            )
        })
        .collect();
    let mut eager = AsyncAggregator::new(4, AggregationTiming::Eager).expect("goal > 0");
    let mut lazy = AsyncAggregator::new(4, AggregationTiming::Lazy).expect("goal > 0");
    for (k, update) in updates.iter().enumerate() {
        let at = SimTime::from_secs(k as f64);
        eager
            .submit(update.clone().into(), 0, at)
            .expect("eager submit");
        lazy.submit(update.clone().into(), 0, at)
            .expect("lazy submit");
    }
    if eager.versions().len() != lazy.versions().len() {
        return false;
    }
    eager.versions().iter().zip(lazy.versions()).all(|(a, b)| {
        a.model
            .as_slice()
            .iter()
            .zip(b.model.as_slice())
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
    let config = AsyncDriverConfig {
        trainer: TrainerConfig {
            batch_size: 16,
            learning_rate: 0.05,
            local_epochs: 2,
        },
        buffer_goal: 12,
        target_versions: 15,
        concurrency: 24,
        staleness: policy,
        model: ModelKind::ResNet18,
        eval_every: 1,
        codec: lifl_types::CodecKind::Identity,
    };
    let mut driver = AsyncFlDriver::new(dataset, population, config).expect("valid config");
    let versions = driver.run(&mut rng);
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
