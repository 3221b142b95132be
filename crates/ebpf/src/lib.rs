//! # lifl-ebpf
//!
//! An in-process emulation of the two eBPF maps LIFL's data plane keeps per
//! node (§4.3, §4.4, Appendix A). `lifl-sim` uses both:
//!
//! * [`sockmap::SockMap`] — the map holding references to registered socket
//!   interfaces (`BPF_MAP_TYPE_SOCKMAP`): a local aggregator's own socket, or
//!   the node's gateway for an aggregator on another node. The simulator's
//!   `RoutingTable` resolves every intra-node next hop through it.
//! * [`metrics_map::MetricsMap`] — the per-aggregator metrics the sidecar
//!   writes in kernel space; the simulator's `LiflAgent` drains it into the
//!   node's load report toward the metric server.
//!
//! Both sit on [`map::BpfMap`], a bounded key/value map with
//! `BPF_MAP_TYPE_HASH` semantics. The emulation reproduces the maps'
//! semantics; it does not load real BPF bytecode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "a BPF hash map is a hash map: the emulated maps are read by key, and nothing here folds"
)]

pub mod map;
pub mod metrics_map;
pub mod sockmap;

pub use map::BpfMap;
pub use metrics_map::{MetricSample, MetricsMap};
pub use sockmap::{SockMap, SocketRef};
