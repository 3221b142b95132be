//! # lifl-core
//!
//! LIFL: a lightweight, event-driven serverless platform for federated
//! learning (MLSys 2024). This crate is the **engine** — the code that
//! actually aggregates real model parameters, and the only LIFL code the
//! whole-round benchmark (`benchmark/`) links:
//!
//! * the per-node **gateway** and **in-place message queuing** (§4.2,
//!   [`gateway`]),
//! * the step-based **aggregator runtime** (Recv → Agg → Send, Appendix G,
//!   [`aggregator`]),
//! * bounded **admission queues** with typed backpressure ([`admission`]),
//! * the **unified session API** ([`session`]): a builder-driven,
//!   codec-transparent in-process runtime that aggregates updates through
//!   shared memory over an N-level aggregation tree of warm, session-lifetime
//!   aggregator stations (§5.3) run by the caller beside parked workers,
//! * **multi-node session federation** ([`cluster`]): N sessions composed
//!   gateway-to-gateway over `Update::RemoteBytes`, bit-exact with the
//!   single-session round, every hop priced through the `lifl-dataplane`
//!   cost models, its global top hosted by live placement driven by the
//!   §5.2 EWMA load estimate ([`ewma`]),
//! * **failure handling** (§3): node kills, keep-alive heartbeats and
//!   recovery from the latest checkpoint, all owned by the cluster
//!   ([`cluster::FaultToleranceConfig`]); client over-provisioning is the
//!   selector's (`lifl_sim::selector`), and
//! * the backend-generic **multi-round training driver** ([`training`]):
//!   one FedAvg loop over any `Ingest` backend — session, cluster or
//!   `lifl_fl::sink::FlatFedAvg` — with bit-exact results across backends.
//!
//! The cluster-scale *simulator* that reproduces the paper's evaluation
//! (placement, hierarchy planning, routing, the TAG, the baseline systems)
//! lives in `lifl-sim`, which depends on this crate — never the reverse.
//!
//! See `ARCHITECTURE.md` at the repository root for the life of one update
//! through these layers.
//!
//! ```
//! use lifl_core::session::{SessionBuilder, Update};
//! use lifl_fl::DenseModel;
//! use lifl_types::ClientId;
//!
//! // 2 leaves × 2 updates each over shared memory, identity codec.
//! let mut session = SessionBuilder::new().two_level(2, 2).build().unwrap();
//! for i in 0..4u64 {
//!     let model = DenseModel::from_vec(vec![i as f32; 8]);
//!     session
//!         .ingest(Update::dense(ClientId::new(i), model, i + 1))
//!         .unwrap();
//! }
//! let report = session.drive().unwrap();
//! assert_eq!(report.update.samples, 1 + 2 + 3 + 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
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

pub mod admission;
pub mod aggregator;
pub mod cluster;
pub mod ewma;
pub mod gateway;
mod ingress;
pub mod session;
mod stations;
pub mod training;
