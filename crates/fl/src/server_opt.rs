//! Server-side federated optimizers.
//!
//! The paper's evaluation uses plain FedAvg (§6.2), but its related-work
//! section points at the adaptive federated-optimization family (Reddi et
//! al., "Adaptive Federated Optimization", ICLR 2021) as one of the
//! algorithm-level directions LIFL is meant to be a substrate for. This
//! module implements that family so a downstream user can
//! swap the server update rule without touching the aggregation hierarchy:
//! the hierarchy still produces a sample-weighted average of client models
//! (via [`crate::aggregate::CumulativeFedAvg`]), and the server optimizer then
//! decides how the global model moves toward that average.
//!
//! The optimizer is the training driver's commit
//! (`lifl_core::training::TrainingConfig::server`): every round and every
//! asynchronous version the driver adopts goes through
//! [`ServerOptimizer::commit`]. All optimizers operate on the
//! *pseudo-gradient* `Δ = aggregate − global`:
//!
//! * [`ServerOptKind::FedAvg`] — `global ← global + η·Δ`. At η = 1 (the
//!   default) the commit is a move: the aggregate becomes the global model
//!   as it is, because `g + 1·(a − g)` is not bit-identical to `a`.
//! * [`ServerOptKind::FedAdagrad`] — per-coordinate accumulated squared
//!   pseudo-gradients.
//! * [`ServerOptKind::FedAdam`] — first and second moments with bias-free
//!   server form used by Reddi et al.
//! * [`ServerOptKind::FedYogi`] — Adam variant with additive second-moment
//!   update, more robust to heavy-tailed client drift.

use crate::model::DenseModel;
use lifl_types::{LiflError, Result};
use serde::{Deserialize, Serialize};

/// Which server optimizer to apply on top of the aggregated client average.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ServerOptKind {
    /// Plain server averaging: `global ← global + η·Δ`.
    #[default]
    FedAvg,
    /// Adaptive per-coordinate learning rates from accumulated squared deltas.
    FedAdagrad,
    /// Server-side Adam on the pseudo-gradient.
    FedAdam,
    /// Server-side Yogi on the pseudo-gradient.
    FedYogi,
}

impl ServerOptKind {
    /// All optimizer kinds, in the order used by experiment sweeps.
    pub fn all() -> [ServerOptKind; 4] {
        [
            ServerOptKind::FedAvg,
            ServerOptKind::FedAdagrad,
            ServerOptKind::FedAdam,
            ServerOptKind::FedYogi,
        ]
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ServerOptKind::FedAvg => "FedAvg",
            ServerOptKind::FedAdagrad => "FedAdagrad",
            ServerOptKind::FedAdam => "FedAdam",
            ServerOptKind::FedYogi => "FedYogi",
        }
    }
}

impl std::fmt::Display for ServerOptKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Hyper-parameters of the server optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerOptConfig {
    /// Which update rule to apply.
    pub kind: ServerOptKind,
    /// Server learning rate η (1.0 for vanilla FedAvg).
    pub learning_rate: f32,
    /// First-moment decay β₁ (FedAdam / FedYogi).
    pub beta1: f32,
    /// Second-moment decay β₂ (FedAdam / FedYogi).
    pub beta2: f32,
    /// Adaptivity floor τ added to the denominator.
    pub tau: f32,
}

impl Default for ServerOptConfig {
    fn default() -> Self {
        ServerOptConfig {
            kind: ServerOptKind::FedAvg,
            learning_rate: 1.0,
            beta1: 0.9,
            beta2: 0.99,
            tau: 1e-3,
        }
    }
}

impl ServerOptConfig {
    /// A configuration for the given kind with the Reddi et al. defaults.
    pub fn for_kind(kind: ServerOptKind) -> Self {
        let learning_rate = match kind {
            ServerOptKind::FedAvg => 1.0,
            // Adaptive methods use a smaller server step by default.
            _ => 0.1,
        };
        ServerOptConfig {
            kind,
            learning_rate,
            ..ServerOptConfig::default()
        }
    }

    /// Validates the hyper-parameters.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when a rate or decay is outside its
    /// valid range.
    pub fn validate(&self) -> Result<()> {
        if self.learning_rate <= 0.0 {
            return Err(LiflError::InvalidConfig(format!(
                "server learning rate must be positive, got {}",
                self.learning_rate
            )));
        }
        if !(0.0..1.0).contains(&self.beta1) || !(0.0..1.0).contains(&self.beta2) {
            return Err(LiflError::InvalidConfig(format!(
                "betas must be in [0,1): beta1={}, beta2={}",
                self.beta1, self.beta2
            )));
        }
        if self.tau <= 0.0 {
            return Err(LiflError::InvalidConfig(format!(
                "tau must be positive, got {}",
                self.tau
            )));
        }
        Ok(())
    }
}

/// Stateful server optimizer: the training driver's commit, applied once
/// per aggregated round.
#[derive(Debug, Clone)]
pub struct ServerOptimizer {
    config: ServerOptConfig,
    /// First moment m (FedAdam / FedYogi), sized at the first commit.
    momentum: Vec<f32>,
    /// Second moment v (the adaptive kinds), sized at the first commit.
    second_moment: Vec<f32>,
}

impl ServerOptimizer {
    /// An optimizer for `config`. The configuration is the caller's to
    /// check with [`ServerOptConfig::validate`]; the training driver runs
    /// it before every round.
    pub fn new(config: ServerOptConfig) -> Self {
        ServerOptimizer {
            config,
            momentum: Vec::new(),
            second_moment: Vec::new(),
        }
    }

    /// Commits one round: returns the next global model, `global` moved
    /// toward `aggregate` (the sample-weighted client average the
    /// aggregation hierarchy produced) by the configured update rule.
    ///
    /// Under FedAvg with η = 1 the aggregate *is* the next global model and
    /// comes back as it went in: no arithmetic, no copy, no moments. Every
    /// other rule writes the stepped global into the aggregate's buffer,
    /// element by element, after reading that element's Δ, so no rule
    /// allocates a model. Only the moments the rule reads are sized.
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] when the aggregate's dimension
    /// differs from the global model's.
    pub fn commit(&mut self, global: &DenseModel, mut aggregate: DenseModel) -> Result<DenseModel> {
        if global.dim() != aggregate.dim() {
            return Err(LiflError::DimensionMismatch {
                expected: global.dim(),
                actual: aggregate.dim(),
            });
        }
        let ServerOptConfig {
            kind,
            learning_rate: lr,
            beta1: b1,
            beta2: b2,
            tau,
        } = self.config;
        if kind == ServerOptKind::FedAvg && lr == 1.0 {
            return Ok(aggregate);
        }
        let dim = global.dim();
        if kind != ServerOptKind::FedAvg {
            fresh_if_resized(&mut self.second_moment, dim);
        }
        if matches!(kind, ServerOptKind::FedAdam | ServerOptKind::FedYogi) {
            fresh_if_resized(&mut self.momentum, dim);
        }
        let pairs = aggregate.as_mut_slice().iter_mut().zip(global.as_slice());
        match kind {
            ServerOptKind::FedAvg => {
                for (a, g) in pairs {
                    let delta = *a - g;
                    *a = g + lr * delta;
                }
            }
            ServerOptKind::FedAdagrad => {
                for ((a, g), v) in pairs.zip(self.second_moment.iter_mut()) {
                    let delta = *a - g;
                    *v += delta * delta;
                    *a = g + lr * delta / (v.sqrt() + tau);
                }
            }
            ServerOptKind::FedAdam => {
                for (((a, g), m), v) in pairs
                    .zip(self.momentum.iter_mut())
                    .zip(self.second_moment.iter_mut())
                {
                    let delta = *a - g;
                    *m = b1 * *m + (1.0 - b1) * delta;
                    *v = b2 * *v + (1.0 - b2) * delta * delta;
                    *a = g + lr * *m / (v.sqrt() + tau);
                }
            }
            ServerOptKind::FedYogi => {
                for (((a, g), m), v) in pairs
                    .zip(self.momentum.iter_mut())
                    .zip(self.second_moment.iter_mut())
                {
                    let delta = *a - g;
                    let delta_sq = delta * delta;
                    *m = b1 * *m + (1.0 - b1) * delta;
                    *v -= (1.0 - b2) * delta_sq * (*v - delta_sq).signum();
                    *a = g + lr * *m / (v.abs().sqrt() + tau);
                }
            }
        }
        Ok(aggregate)
    }
}

/// Zero moments of `dim` entries, unless `moment` already has that many.
fn fresh_if_resized(moment: &mut Vec<f32>, dim: usize) {
    if moment.len() != dim {
        *moment = vec![0.0; dim];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(values: &[f32]) -> DenseModel {
        DenseModel::from_vec(values.to_vec())
    }

    /// One commit of `aggregate` onto `global`, in place.
    fn step(opt: &mut ServerOptimizer, global: &mut DenseModel, aggregate: &DenseModel) {
        *global = opt.commit(global, aggregate.clone()).unwrap();
    }

    #[test]
    fn fedavg_with_unit_rate_reproduces_plain_averaging() {
        let mut global = model(&[0.0, 2.0, -4.0]);
        let aggregate = model(&[1.0, 1.0, 1.0]);
        let mut opt = ServerOptimizer::new(ServerOptConfig::default());
        step(&mut opt, &mut global, &aggregate);
        assert_eq!(global.as_slice(), aggregate.as_slice());
    }

    /// No commit allocates a model: the next global comes back in the
    /// aggregate's own buffer, and each rule sizes only the moments it
    /// reads — the default FedAvg (η = 1) none. That default is a move, so
    /// `-0.0` stays `-0.0` where `g + 1·(a − g)` would make it `+0.0`.
    #[test]
    fn every_commit_reuses_the_aggregates_buffer_and_sizes_only_the_moments_it_reads() {
        let partial = ServerOptConfig {
            learning_rate: 0.5,
            ..ServerOptConfig::default()
        };
        for (config, momentum, second) in [
            (ServerOptConfig::default(), 0, 0),
            (partial, 0, 0),
            (ServerOptConfig::for_kind(ServerOptKind::FedAdagrad), 0, 3),
            (ServerOptConfig::for_kind(ServerOptKind::FedAdam), 3, 3),
            (ServerOptConfig::for_kind(ServerOptKind::FedYogi), 3, 3),
        ] {
            let aggregate = model(&[-0.0, -1.0, 0.5]);
            let buffer = aggregate.as_slice().as_ptr();
            let mut opt = ServerOptimizer::new(config);
            let next = opt.commit(&model(&[0.0; 3]), aggregate).unwrap();
            assert_eq!(next.as_slice().as_ptr(), buffer, "{config:?}");
            assert_eq!(
                (opt.momentum.capacity(), opt.second_moment.capacity()),
                (momentum, second),
                "{config:?}"
            );
            if config == ServerOptConfig::default() {
                assert_eq!(next.as_slice()[0].to_bits(), (-0.0f32).to_bits());
            }
        }
    }

    #[test]
    fn fedavg_with_partial_rate_interpolates() {
        let mut global = model(&[0.0, 0.0]);
        let aggregate = model(&[2.0, -2.0]);
        let mut opt = ServerOptimizer::new(ServerOptConfig {
            learning_rate: 0.5,
            ..ServerOptConfig::default()
        });
        step(&mut opt, &mut global, &aggregate);
        assert_eq!(global.as_slice(), &[1.0, -1.0]);
    }

    #[test]
    fn adaptive_optimizers_move_toward_aggregate() {
        for kind in [
            ServerOptKind::FedAdagrad,
            ServerOptKind::FedAdam,
            ServerOptKind::FedYogi,
        ] {
            let mut global = model(&[0.0, 0.0, 0.0]);
            let aggregate = model(&[1.0, -1.0, 0.5]);
            let mut opt = ServerOptimizer::new(ServerOptConfig::for_kind(kind));
            let initial_dist: f32 = aggregate
                .as_slice()
                .iter()
                .zip(global.as_slice())
                .map(|(a, g)| (a - g).abs())
                .sum();
            for _ in 0..50 {
                step(&mut opt, &mut global, &aggregate);
            }
            let final_dist: f32 = aggregate
                .as_slice()
                .iter()
                .zip(global.as_slice())
                .map(|(a, g)| (a - g).abs())
                .sum();
            assert!(
                final_dist < initial_dist * 0.5,
                "{kind}: distance {initial_dist} -> {final_dist} should shrink"
            );
        }
    }

    #[test]
    fn repeated_steps_converge_to_fixed_point() {
        // Once global == aggregate, every optimizer must stay put (Δ = 0).
        for kind in ServerOptKind::all() {
            let aggregate = model(&[0.3, -0.7, 1.1]);
            let mut global = aggregate.clone();
            let mut opt = ServerOptimizer::new(ServerOptConfig::for_kind(kind));
            // Warm the moments on a non-zero delta first, then converge.
            let mut far = model(&[5.0, 5.0, 5.0]);
            step(&mut opt, &mut far, &aggregate);
            step(&mut opt, &mut global, &aggregate);
            for (g, a) in global.as_slice().iter().zip(aggregate.as_slice()) {
                assert!((g - a).abs() < 0.2, "{kind}: {g} vs {a}");
            }
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let global = model(&[0.0, 0.0]);
        let aggregate = model(&[1.0]);
        let mut opt = ServerOptimizer::new(ServerOptConfig::default());
        assert!(matches!(
            opt.commit(&global, aggregate),
            Err(LiflError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(ServerOptConfig {
            learning_rate: 0.0,
            ..ServerOptConfig::default()
        }
        .validate()
        .is_err());
        assert!(ServerOptConfig {
            beta1: 1.5,
            ..ServerOptConfig::default()
        }
        .validate()
        .is_err());
        assert!(ServerOptConfig {
            tau: -1.0,
            ..ServerOptConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn labels_and_iteration_order_are_stable() {
        let labels: Vec<&str> = ServerOptKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["FedAvg", "FedAdagrad", "FedAdam", "FedYogi"]);
        assert_eq!(ServerOptKind::FedYogi.to_string(), "FedYogi");
    }

    #[test]
    fn for_kind_uses_smaller_rate_for_adaptive_methods() {
        assert_eq!(
            ServerOptConfig::for_kind(ServerOptKind::FedAvg).learning_rate,
            1.0
        );
        assert!(ServerOptConfig::for_kind(ServerOptKind::FedAdam).learning_rate < 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
        (1usize..16).prop_flat_map(|dim| {
            (
                proptest::collection::vec(-5.0f32..5.0, dim..=dim),
                proptest::collection::vec(-5.0f32..5.0, dim..=dim),
            )
        })
    }

    proptest! {
        #[test]
        fn fedavg_step_lands_between_global_and_aggregate(
            (global_vec, agg_vec) in arbitrary_pair(),
            lr in 0.05f32..1.0,
        ) {
            let global = DenseModel::from_vec(global_vec.clone());
            let aggregate = DenseModel::from_vec(agg_vec.clone());
            let mut opt = ServerOptimizer::new(ServerOptConfig {
                learning_rate: lr,
                ..ServerOptConfig::default()
            });
            let next = opt.commit(&global, aggregate).unwrap();
            for ((before, after), target) in global_vec.iter().zip(next.as_slice()).zip(&agg_vec) {
                let lo = before.min(*target) - 1e-5;
                let hi = before.max(*target) + 1e-5;
                prop_assert!(*after >= lo && *after <= hi,
                    "{after} not within [{lo}, {hi}]");
            }
        }

        #[test]
        fn adaptive_steps_are_bounded_by_learning_rate(
            (global_vec, agg_vec) in arbitrary_pair(),
        ) {
            // Each adaptive step moves any coordinate by at most ~lr * |delta| / tau,
            // but more importantly it must be finite and never NaN.
            for kind in [ServerOptKind::FedAdagrad, ServerOptKind::FedAdam, ServerOptKind::FedYogi] {
                let mut global = DenseModel::from_vec(global_vec.clone());
                let aggregate = DenseModel::from_vec(agg_vec.clone());
                let mut opt = ServerOptimizer::new(ServerOptConfig::for_kind(kind));
                for _ in 0..5 {
                    global = opt.commit(&global, aggregate.clone()).unwrap();
                }
                for v in global.as_slice() {
                    prop_assert!(v.is_finite(), "{kind:?} produced non-finite parameter {v}");
                }
            }
        }
    }
}
