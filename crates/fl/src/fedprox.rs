//! FedProx local training (Li et al., 2020a, cited in §7).
//!
//! FedProx augments each client's local objective with a proximal term
//! `μ/2 · ‖w − w_global‖²` that keeps local models close to the current global
//! model, which stabilises training under the system and statistical
//! heterogeneity that motivates LIFL's elastic design (hibernating mobile
//! clients with very different data, §6.2). The aggregation side is unchanged:
//! FedProx updates flow through the same hierarchy and the same FedAvg
//! averaging, so the platform needs no modification — exactly the "LIFL is a
//! substrate for FL algorithms" claim of the related-work discussion.

use crate::dataset::Sample;
use crate::model::DenseModel;
use crate::trainer::{LocalTrainer, TrainerConfig};
use lifl_simcore::SimRng;
use lifl_types::{LiflError, Result};
use serde::{Deserialize, Serialize};

/// FedProx hyper-parameters: the underlying SGD configuration plus the
/// proximal coefficient μ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FedProxConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Proximal coefficient μ ≥ 0; μ = 0 reduces to plain FedAvg local SGD.
    pub mu: f32,
}

impl Default for FedProxConfig {
    fn default() -> Self {
        FedProxConfig {
            batch_size: 32,
            learning_rate: 0.01,
            local_epochs: 1,
            mu: 0.01,
        }
    }
}

impl FedProxConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when μ is negative or the learning
    /// rate is non-positive.
    pub fn validate(&self) -> Result<()> {
        if self.mu < 0.0 {
            return Err(LiflError::InvalidConfig(format!(
                "fedprox mu must be non-negative, got {}",
                self.mu
            )));
        }
        if self.learning_rate <= 0.0 {
            return Err(LiflError::InvalidConfig(format!(
                "learning rate must be positive, got {}",
                self.learning_rate
            )));
        }
        Ok(())
    }

    fn sgd_config(&self) -> TrainerConfig {
        TrainerConfig {
            batch_size: self.batch_size,
            learning_rate: self.learning_rate,
            local_epochs: self.local_epochs,
        }
    }
}

/// A FedProx local trainer for the softmax-regression workload.
#[derive(Debug, Clone)]
pub struct FedProxTrainer {
    inner: LocalTrainer,
    config: FedProxConfig,
}

impl FedProxTrainer {
    /// Creates a FedProx trainer for the given problem shape.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when the configuration is invalid.
    pub fn new(num_features: usize, num_classes: usize, config: FedProxConfig) -> Result<Self> {
        config.validate()?;
        Ok(FedProxTrainer {
            inner: LocalTrainer::new(num_features, num_classes, config.sgd_config()),
            config,
        })
    }

    /// Model dimension expected by this trainer.
    pub fn model_dim(&self) -> usize {
        self.inner.model_dim()
    }

    /// The FedProx configuration.
    pub fn config(&self) -> &FedProxConfig {
        &self.config
    }

    /// Runs FedProx local training starting from `global`.
    ///
    /// The base trainer runs unchanged, then one shrink toward the global
    /// model is applied to its output, once:
    /// `w ← w − min(lr·μ·E, 1)·(w − w_global)` for `E` local epochs. This
    /// is not FedProx's per-step proximal gradient, which interacts with the
    /// data gradient at every step; ROADMAP item 22 decides whether the
    /// term moves into the one trainer or this module goes. With μ = 0 the
    /// output is exactly the base trainer's output.
    pub fn train(
        &self,
        global: &DenseModel,
        shard: &[Sample],
        rng: &mut SimRng,
    ) -> (DenseModel, f64) {
        let (mut model, loss) = self.inner.train(global, shard, rng);
        if self.config.mu > 0.0 && !shard.is_empty() {
            // Pull the locally trained model back toward the global model:
            // w ← w − min(lr·μ·E, 1)·(w − w_global), applied once.
            let shrink = (self.config.learning_rate * self.config.mu).min(1.0)
                * self.config.local_epochs.max(1) as f32;
            let shrink = shrink.min(1.0);
            let params = model.as_mut_slice();
            for (w, g) in params.iter_mut().zip(global.as_slice()) {
                *w -= shrink * (*w - g);
            }
        }
        (model, loss)
    }

    /// Squared L2 distance between a local model and the global model — the
    /// quantity the proximal term penalises.
    #[cfg(test)]
    pub(crate) fn drift(&self, local: &DenseModel, global: &DenseModel) -> f64 {
        local
            .as_slice()
            .iter()
            .zip(global.as_slice())
            .map(|(l, g)| ((l - g) as f64).powi(2))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetConfig, FederatedDataset};
    use lifl_types::ClientId;

    fn dataset(seed: u64) -> (FederatedDataset, SimRng) {
        let mut rng = SimRng::from_seed(seed);
        let ds = FederatedDataset::generate(
            DatasetConfig {
                num_clients: 4,
                num_features: 10,
                num_classes: 4,
                mean_samples_per_client: 60,
                dirichlet_alpha: 0.2,
                test_samples: 50,
                noise_std: 0.3,
            },
            &mut rng,
        );
        (ds, rng)
    }

    #[test]
    fn mu_zero_matches_plain_sgd() {
        let (ds, mut rng) = dataset(3);
        let config = FedProxConfig {
            mu: 0.0,
            learning_rate: 0.05,
            local_epochs: 2,
            batch_size: 16,
        };
        let prox = FedProxTrainer::new(10, 4, config).unwrap();
        let sgd = LocalTrainer::new(
            10,
            4,
            TrainerConfig {
                batch_size: 16,
                learning_rate: 0.05,
                local_epochs: 2,
            },
        );
        let global = ds.initial_model();
        let shard = ds.shard(ClientId::new(0));
        let mut rng_a = rng.clone();
        let (prox_model, _) = prox.train(&global, shard, &mut rng_a);
        let (sgd_model, _) = sgd.train(&global, shard, &mut rng);
        assert_eq!(prox_model, sgd_model);
    }

    #[test]
    fn larger_mu_keeps_model_closer_to_global() {
        let (ds, rng) = dataset(11);
        let global = ds.initial_model();
        let shard = ds.shard(ClientId::new(1));
        let drift_for = |mu: f32| {
            let trainer = FedProxTrainer::new(
                10,
                4,
                FedProxConfig {
                    mu,
                    learning_rate: 0.1,
                    local_epochs: 4,
                    batch_size: 8,
                },
            )
            .unwrap();
            let mut rng = rng.clone();
            let (model, _) = trainer.train(&global, shard, &mut rng);
            trainer.drift(&model, &global)
        };
        let loose = drift_for(0.0);
        let tight = drift_for(5.0);
        assert!(
            tight < loose,
            "mu=5 drift {tight} should be below mu=0 drift {loose}"
        );
        assert!(loose > 0.0);
    }

    #[test]
    fn training_still_learns_with_moderate_mu() {
        let (ds, mut rng) = dataset(21);
        let trainer = FedProxTrainer::new(
            10,
            4,
            FedProxConfig {
                mu: 0.1,
                learning_rate: 0.1,
                local_epochs: 5,
                batch_size: 16,
            },
        )
        .unwrap();
        let global = ds.initial_model();
        let shard = ds.shard(ClientId::new(2));
        let (trained, _) = trainer.train(&global, shard, &mut rng);
        let (_, loss_before) = trainer.train(&global, shard, &mut rng.clone());
        let (_, loss_after) = trainer.train(&trained, shard, &mut rng);
        assert!(loss_after < loss_before, "{loss_after} < {loss_before}");
        assert_eq!(trainer.model_dim(), ds.model_dim());
    }

    #[test]
    fn empty_shard_returns_global_unchanged() {
        let trainer = FedProxTrainer::new(6, 3, FedProxConfig::default()).unwrap();
        let global = DenseModel::zeros(trainer.model_dim());
        let mut rng = SimRng::from_seed(1);
        let (model, loss) = trainer.train(&global, &[], &mut rng);
        assert_eq!(model, global);
        assert_eq!(loss, 0.0);
        assert_eq!(trainer.drift(&model, &global), 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(FedProxTrainer::new(
            4,
            2,
            FedProxConfig {
                mu: -0.1,
                ..FedProxConfig::default()
            }
        )
        .is_err());
        assert!(FedProxTrainer::new(
            4,
            2,
            FedProxConfig {
                learning_rate: 0.0,
                ..FedProxConfig::default()
            }
        )
        .is_err());
        assert!(FedProxConfig::default().validate().is_ok());
    }
}
