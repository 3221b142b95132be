//! # lifl-core
//!
//! LIFL: a lightweight, event-driven serverless platform for federated
//! learning (MLSys 2024). This crate implements the paper's contribution:
//!
//! * the per-node **gateway** and **in-place message queuing** (§4.2),
//! * the step-based **aggregator runtime** (Recv → Agg → Send, Appendix G),
//! * **direct routing** over the emulated eBPF sockmap and an inter-node
//!   routing table (§4.4, Appendix A),
//! * the **control plane**: locality-aware placement via bin-packing (§5.1),
//!   hierarchy-aware autoscaling with EWMA load estimation (§5.2),
//!   opportunistic reuse of warm aggregator runtimes (§5.3) and eager
//!   aggregation (§5.4),
//! * the **TAG** (topology abstraction graph) used to describe aggregator
//!   connectivity and placement affinity (Appendix D),
//! * a cluster-scale **simulation engine** ([`platform`]) that reproduces the
//!   paper's evaluation, and the **unified session API** ([`session`]): a
//!   builder-driven, codec-transparent in-process runtime that actually
//!   aggregates real model parameters through shared memory over an N-level
//!   aggregation tree,
//! * **multi-node session federation** ([`cluster`]): N sessions composed
//!   gateway-to-gateway over `Update::RemoteBytes`, bit-exact with the
//!   single-session round, every hop priced through the `lifl-dataplane`
//!   cost models, its global top hosted by live EWMA-driven placement, and
//! * the backend-generic **multi-round training driver** ([`training`]):
//!   one FedAvg loop over any `Ingest` backend — session or cluster — with
//!   bit-exact results across backends.
//!
//! See `ARCHITECTURE.md` at the repository root for the life of one update
//! through these layers.
//!
//! ```
//! use lifl_core::platform::{LiflPlatform, RoundSpec};
//! use lifl_types::{LiflConfig, ClusterConfig, ModelKind, SimTime};
//!
//! let mut platform = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
//! let arrivals: Vec<SimTime> = (0..20).map(|i| SimTime::from_secs(i as f64)).collect();
//! let report = platform.run_round(&RoundSpec::new(ModelKind::ResNet152, arrivals));
//! assert_eq!(report.metrics.updates_aggregated, 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod agent;
pub mod aggregator;
pub mod async_round;
pub mod cluster;
pub mod coordinator;
pub mod eager;
pub mod fleet;
pub mod gateway;
pub mod gateway_scaler;
pub mod heartbeat;
pub mod hierarchy;
mod ingress;
pub mod metric_server;
pub mod placement;
pub mod platform;
pub mod recovery;
pub mod reuse;
pub mod routing;
pub mod selector;
pub mod session;
pub mod system;
pub mod tag;
pub mod training;

pub use admission::{AdmissionQueues, AdmissionStats, QueuedOffer};
pub use aggregator::{AggregatorRuntime, AggregatorStep};
pub use cluster::{
    Cluster, ClusterBuilder, ClusterHop, ClusterReport, FaultStats, FaultToleranceConfig, NodeKill,
    NodeRoundReport, TopMove, TopPlacement, TopRecovery,
};
pub use fleet::NodeFleet;
pub use gateway_scaler::{GatewayScaleDecision, GatewayScaler, GatewayScalerConfig};
pub use hierarchy::{EwmaEstimator, HierarchyPlan, NodeHierarchy};
pub use placement::{PlacementEngine, PlacementOutcome};
pub use platform::{LiflPlatform, PlatformProfile, RoundReport, RoundSpec};
pub use recovery::{RecoveryManager, RecoveryOutcome};
pub use routing::RoutingTable;
pub use selector::{RoundAssignment, SelectorConfig, SelectorService};
pub use session::{Session, SessionBuilder, SessionReport, Update, WireExport};
pub use system::AggregationSystem;
pub use tag::{Channel, ChannelKind, Role, TopologyAbstractionGraph};
pub use training::{TrainingConfig, TrainingDriver, TrainingRound};
