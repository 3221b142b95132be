//! # lifl-serverless
//!
//! The serverless- and serverful-platform substrates the paper's baselines run
//! on (Fig. 2, §2.3, §6): function instances with cold/warm starts and
//! keep-alive, a Knative-KPA-style threshold autoscaler, load-balancing
//! policies (least-connection / round-robin), an always-on message-broker
//! service, container sidecars and a fixed serverful deployment.
//!
//! LIFL itself replaces most of these components; they are implemented here so
//! the baseline systems (`lifl_sim::systems`) are real systems rather than
//! hard-coded numbers.
//!
//! The substrate covers both the coarse behaviour the Fig. 8/9 experiments
//! need ([`autoscale`], [`instance`], [`loadbalance`]) and the finer-grained
//! Knative mechanics that explain *why* the baseline behaves the way it does:
//! the stable/panic-window KPA control loop ([`kpa`]), pod/revision lifecycle
//! reconciliation ([`revision`]), per-pod request queuing ([`request_queue`])
//! and the cascading cold starts of function chains ([`chain`]). The [`fleet`]
//! module points the KPA loop the other way: it adapts the control loop into
//! a deterministic aggregator-fleet controller that `lifl-core`'s cluster
//! uses to grow and retire leaf subtrees from observed admission-queue depth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscale;
pub mod broker_service;
pub mod chain;
pub mod fleet;
pub mod function;
pub mod instance;
pub mod kpa;
pub mod loadbalance;
pub mod request_queue;
pub mod revision;
pub mod serverful;
pub mod sidecar_container;

pub use autoscale::ThresholdAutoscaler;
pub use chain::{ChainReadiness, ChainScaling, FunctionChain};
pub use fleet::{FleetConfig, FleetController, FleetDecision};
pub use function::{FunctionSpec, InstanceState};
pub use instance::{AcquireOutcome, InstancePool};
pub use kpa::{KpaAutoscaler, KpaConfig, KpaDecision};
pub use loadbalance::{LeastConnection, LoadBalancer, RoundRobin};
pub use request_queue::{Admission, RequestQueue, RequestQueueConfig};
pub use revision::{PodPhase, Revision, RevisionStats};
pub use serverful::ServerfulDeployment;
