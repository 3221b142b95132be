//! # lifl-sim
//!
//! The cluster-scale **simulator** that reproduces the paper's evaluation —
//! everything about LIFL that is modelled rather than executed:
//!
//! * the simulation engine ([`platform`]): one `LiflPlatform` that runs a
//!   round's arrivals through placement, hierarchy planning, eager or lazy
//!   aggregation and a priced data plane, under a [`PlatformProfile`];
//! * the **control plane** it is built from: locality-aware placement via
//!   bin-packing (§5.1, [`placement`]), hierarchy-aware autoscaling (§5.2,
//!   [`hierarchy`]), eager aggregation timing (§5.4, [`eager`]), the
//!   coordinator / agent / metric-server loop (§3, [`coordinator`],
//!   [`agent`], [`metric_server`]), the selector service ([`selector`]) and
//!   fleet / gateway scaling ([`fleet`], [`gateway_scaler`]);
//! * **direct routing** over the emulated eBPF sockmap and an inter-node
//!   routing table (§4.4, Appendix A, [`routing`]) described by the **TAG**
//!   (topology abstraction graph, Appendix D, [`tag`]);
//! * the **baseline systems** the paper compares against (§6, [`systems`]):
//!   serverful SF, broker-based serverless SL, SL-H and the no-hierarchy NH
//!   profile — all the same `LiflPlatform` under different profiles — and
//!   the FL **workload driver** ([`driver`]) that turns (population,
//!   dataset, system) into the time-to-accuracy and cost-to-accuracy curves
//!   of Fig. 9 and the time series of Fig. 10.
//!
//! The real aggregation engine (sessions, clusters, the training driver) is
//! `lifl-core`; this crate borrows two things from it — the §5.2
//! `EwmaEstimator` and the §3 over-provisioning rule — and nothing flows the
//! other way.
//!
//! ```
//! use lifl_sim::platform::{LiflPlatform, RoundSpec};
//! use lifl_sim::config::{ClusterConfig, LiflConfig};
//! use lifl_types::{ModelKind, SimTime};
//!
//! let mut platform = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
//! let arrivals: Vec<SimTime> = (0..20).map(|i| SimTime::from_secs(i as f64)).collect();
//! let report = platform.run_round(&RoundSpec::new(ModelKind::ResNet152, arrivals));
//! assert_eq!(report.metrics.updates_aggregated, 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod config;
pub mod coordinator;
pub mod driver;
pub mod eager;
pub mod fleet;
pub mod gateway_scaler;
pub mod hierarchy;
pub mod metric_server;
pub mod placement;
pub mod platform;
pub mod routing;
pub mod selector;
pub mod system;
pub mod systems;
pub mod tag;

pub use driver::{WorkloadDriver, WorkloadOutcome, WorkloadSetup};
pub use fleet::NodeFleet;
pub use gateway_scaler::{GatewayScaleDecision, GatewayScaler, GatewayScalerConfig};
pub use hierarchy::{HierarchyPlan, NodeHierarchy};
pub use placement::{PlacementEngine, PlacementOutcome};
pub use platform::{LiflPlatform, PlatformProfile, RoundReport, RoundSpec};
pub use routing::RoutingTable;
pub use selector::{RoundAssignment, SelectorConfig, SelectorService};
pub use system::AggregationSystem;
pub use systems::{
    no_hierarchy_profile, serverful, serverful_with_codec, serverless, serverless_with_codec,
    sl_hierarchical,
};
pub use tag::{Channel, ChannelKind, Role, TopologyAbstractionGraph};
