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
//! FEMNIST-like task (62 classes, Dirichlet label skew across clients). See
//! DESIGN.md §1 for why this substitution preserves the paper's system-level
//! claims: update *sizes* used for system costs stay at the ResNet sizes, and
//! only the rounds→accuracy mapping comes from this substrate.
//!
//! Beyond the paper's FedAvg workload, the crate also provides the
//! algorithm-level extensions the paper's related-work section points at so
//! that LIFL can act as their substrate: server-side adaptive federated
//! optimizers ([`server_opt`]), FedProx local training ([`fedprox`]),
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

pub mod aggregate;
pub mod client;
pub mod codec;
pub mod dataset;
pub mod fedprox;
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
pub use client::{Client, ClientAvailability};
pub use codec::{EncodedUpdate, EncodedView, ErrorFeedback, UpdateCodec};
pub use dataset::{FederatedDataset, Sample};
pub use fedprox::{FedProxConfig, FedProxTrainer};
pub use model::DenseModel;
pub use population::{Population, PopulationConfig};
pub use robust::{PolicyFold, RobustFold};
pub use server_opt::{ServerOptConfig, ServerOptKind, ServerOptimizer};
pub use sharded::ShardedFedAvg;
pub use sink::{FlatFedAvg, Ingest, RoundAggregate};
pub use staleness::{StalenessPolicy, StalenessTracker};
pub use trainer::{LocalTrainer, TrainerConfig};
pub use update::Update;
