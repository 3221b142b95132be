//! # lifl-serverless
//!
//! The serverless-platform substrate the paper argues against (Fig. 2, §2.3),
//! reduced to what the workspace runs:
//!
//! * [`fleet`]: the KPA control loop pointed the other way — a deterministic
//!   aggregator-fleet controller that `lifl-core`'s cluster uses to grow and
//!   retire leaf subtrees from observed admission-queue depth;
//! * the Knative mechanics that explain *why* the serverless baseline behaves
//!   the way it does: the stable/panic-window KPA control loop ([`kpa`]),
//!   pod/revision lifecycle reconciliation ([`revision`]) and the cascading
//!   cold starts of function chains ([`chain`]) over per-stage instance
//!   pools ([`instance`], [`function`]). `tests/it/serverless_substrate.rs`
//!   and the `autoscaler_comparison` example drive them.
//!
//! The simulator's serverless baselines (`lifl_sim::systems`) do not run on
//! this crate: they price the same effects with `lifl-dataplane`'s cost
//! model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod fleet;
pub mod function;
pub mod instance;
pub mod kpa;
pub mod revision;

pub use chain::{ChainReadiness, ChainScaling, FunctionChain};
pub use fleet::{FleetConfig, FleetController, FleetDecision};
pub use function::{FunctionSpec, InstanceState};
pub use instance::{AcquireOutcome, InstancePool};
pub use kpa::{KpaAutoscaler, KpaConfig, KpaDecision};
pub use revision::{PodPhase, Revision, RevisionStats};
