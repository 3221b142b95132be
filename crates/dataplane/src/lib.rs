//! # lifl-dataplane
//!
//! Data-plane component models and calibrated cost models for the three
//! families of systems the paper compares (§4, §6.1, Appendix F):
//!
//! * the **serverful** data plane: direct gRPC channels over kernel networking;
//! * the **serverless** data plane: kernel networking plus a container-based
//!   sidecar on every hop and a message broker between functions;
//! * **LIFL**'s data plane: shared-memory zero-copy hand-off with an
//!   eBPF/SKMSG control path and a per-node gateway for inter-node traffic.
//!
//! Each component (kernel network stack, gRPC channel, sidecar, broker,
//! shared-memory hop, gateway) contributes latency, CPU and buffered-memory
//! cost per hop; [`pipeline`] composes hops into the end-to-end pipelines of
//! Fig. 5 and Fig. 7 (`lifl-experiments`' fig7 and fig13 print them), and
//! [`cost::CostModel`] exposes everything the cluster simulator needs
//! (transfer costs, aggregation compute, cold starts). `lifl-core`'s cluster
//! prices its hops with the same model, and `lifl-serverless` takes its
//! cold-start costs from it. Costs are keyed by [`SystemKind`], the systems
//! the evaluation compares, and priced in [`CpuCycles`].
//!
//! Calibration targets are taken from the paper itself (Fig. 4,
//! Fig. 7(a,b), §6.1) and noted beside each constant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod cost;
pub mod gateway;
pub mod grpc;
pub mod kernel_net;
pub mod metrics;
pub mod pipeline;
pub mod sharedmem;
pub mod sidecar;
pub mod system;

pub use cost::{update_wire_bytes, CostModel, TransferCost};
pub use metrics::CpuCycles;
pub use pipeline::{DataPlaneKind, HopCost, Pipeline, QueuingSetup};
pub use system::SystemKind;
