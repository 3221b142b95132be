//! # lifl-fl
//!
//! The federated-learning substrate: FedAvg aggregation (including the
//! cumulative/eager formulation LIFL relies on, §2.1 and §5.4), a synthetic
//! non-IID federated dataset, local SGD trainers, a client population with
//! realistic availability dynamics (§6.2) and the [`Ingest`] backend contract
//! the one round loop (`lifl_core::training::TrainingDriver`) drives —
//! [`FlatFedAvg`] being the flat backend that produces the
//! accuracy-versus-round curves.
//!
//! The training workload is a softmax-regression classifier over a synthetic
//! FEMNIST-like task (62 classes, Dirichlet label skew across clients). The
//! substitution preserves the paper's system-level claims: update *sizes*
//! used for system costs stay at the ResNet sizes, and only the
//! rounds→accuracy mapping comes from this substrate.
//!
//! Beyond the paper's FedAvg workload, the crate also provides the
//! algorithm-level extensions the paper's related-work section points at so
//! that LIFL can act as their substrate, each changing only the client step
//! or the server commit of the one round loop: FedProx's proximal term (the
//! local trainer's μ, [`trainer`]), server-side adaptive federated
//! optimizers ([`server_opt`]; the training driver's commit),
//! staleness weighting for buffered asynchronous FL ([`staleness`]; the
//! asynchronous loop is `lifl_core::training::TrainingDriver::run_async`)
//! and quantized/sparsified update codecs with per-client error feedback
//! ([`codec`]), plus robust coordinate-wise aggregation folds against
//! corrupted or adversarial updates ([`robust`]).
//!
//! The codec and aggregation hot paths run on runtime-dispatched SIMD
//! kernels ([`kernels`]): AVX2 on x86-64 hosts that support it, with a
//! bit-exact scalar reference everywhere else (`LIFL_FORCE_SCALAR=1`
//! forces the fallback).

// `deny` rather than `forbid`: the kernels module needs `std::arch` SIMD
// intrinsics behind a scoped allow; everything else stays unsafe-free.
#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::redundant_clone
    )
)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod aggregate;
pub mod client;
pub mod codec;
pub mod dataset;
#[allow(unsafe_code)]
pub mod kernels;
pub mod metrics;
pub mod model;
pub mod population;
pub mod robust;
pub mod selector;
pub mod server_opt;
pub mod sharded;
pub mod sink;
pub mod staleness;
pub mod trainer;
pub mod update;

pub use aggregate::{CumulativeFedAvg, ModelUpdate};
pub use client::ClientAvailability;
pub use codec::UpdateCodec;
pub use dataset::FederatedDataset;
pub use model::DenseModel;
pub use population::{Population, PopulationConfig};
pub use sharded::ShardedFedAvg;
pub use sink::{FlatFedAvg, Ingest, RoundAggregate};
pub use update::Update;

/// FedProx (Li et al., 2020) as the substrate runs it: the local trainer's
/// proximal coefficient [`trainer::TrainerConfig::mu`], checked here as an
/// algorithm against plain local SGD.
#[cfg(test)]
mod fedprox {
    mod tests {
        use crate::dataset::{DatasetConfig, FederatedDataset};
        use crate::model::DenseModel;
        use crate::trainer::{LocalTrainer, TrainerConfig};
        use lifl_simcore::SimRng;
        use lifl_types::ClientId;

        fn config(mu: f32) -> TrainerConfig {
            TrainerConfig {
                mu,
                learning_rate: 0.05,
                local_epochs: 2,
                batch_size: 16,
            }
        }

        /// Plain SGD is memoryless — each step depends only on the current
        /// weights — so at μ = 0 two epochs from the global are, bit for
        /// bit, one epoch whose output starts the next. At μ > 0 every step
        /// pulls toward the round's global, so restarting the anchor at
        /// the first epoch's output changes the result.
        #[test]
        fn mu_zero_matches_plain_sgd() {
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
                &mut SimRng::from_seed(3),
            );
            let global = ds.initial_model();
            let shard = ds.shard(ClientId::new(0));
            let chained = |mu: f32| {
                let trainer = LocalTrainer::new(10, 4, config(mu));
                let orders = trainer.shuffles(shard.len(), &mut SimRng::from_seed(7));
                assert_eq!(orders.len(), 2);
                let (whole, loss) = trainer.train_ordered(&global, shard, &orders);
                let (first, _) = trainer.train_ordered(&global, shard, &orders[..1]);
                let (second, second_loss) = trainer.train_ordered(&first, shard, &orders[1..]);
                (whole, loss, second, second_loss)
            };
            let (whole, loss, second, second_loss) = chained(0.0);
            assert_ne!(whole, global);
            let bits =
                |m: &DenseModel| m.as_slice().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&whole), bits(&second));
            assert_eq!(loss.to_bits(), second_loss.to_bits());
            let (whole, _, second, _) = chained(1.0);
            assert_ne!(bits(&whole), bits(&second));
        }

        #[test]
        fn empty_shard_returns_global_unchanged() {
            for mu in [0.01, 1.0] {
                let trainer = LocalTrainer::new(6, 3, config(mu));
                let global = DenseModel::zeros(trainer.model_dim());
                let mut rng = SimRng::from_seed(1);
                let (model, loss) = trainer.train(&global, &[], &mut rng);
                assert_eq!(model, global, "mu {mu}");
                assert_eq!(loss, 0.0);
            }
        }

        #[test]
        fn invalid_configs_rejected() {
            for mu in [-0.1, -f32::MIN_POSITIVE, f32::NAN, f32::INFINITY] {
                assert!(config(mu).validate().is_err(), "mu {mu}");
            }
            for learning_rate in [0.0, -0.0, -0.05, f32::NAN] {
                let bad = TrainerConfig {
                    learning_rate,
                    ..config(0.1)
                };
                assert!(bad.validate().is_err(), "learning rate {learning_rate}");
            }
            for mu in [0.0, 0.1, 5.0] {
                assert!(config(mu).validate().is_ok(), "mu {mu}");
            }
            assert!(TrainerConfig::default().validate().is_ok());
        }
    }
}
