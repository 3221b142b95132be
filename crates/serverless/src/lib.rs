//! # lifl-serverless
//!
//! The Knative control loop the paper argues against (Fig. 2, §2.3), reduced
//! to what the workspace runs:
//!
//! * [`kpa`]: the stable/panic-window KPA autoscaler, which the
//!   `autoscaler_comparison` example sets against LIFL's hierarchy planner;
//! * [`fleet`]: the KPA control loop pointed the other way — a deterministic
//!   aggregator-fleet controller that `lifl-core`'s cluster uses to grow and
//!   retire leaf subtrees from observed admission-queue depth.
//!
//! The serverless baseline's cold starts are priced in one place,
//! `lifl_sim::platform`: a platform profile without hierarchy planning
//! starts each aggregator when its first input arrives, so cold starts
//! cascade level by level, over `lifl-dataplane`'s cost model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod kpa;

pub use fleet::{FleetConfig, FleetController, FleetDecision};
pub use kpa::{KpaAutoscaler, KpaConfig, KpaDecision};
