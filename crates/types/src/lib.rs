//! # lifl-types
//!
//! The engine's vocabulary, shared by every crate in the LIFL reproduction:
//! strongly typed identifiers, the paper's model sizes, aggregator roles,
//! the wire codec, fold policy, admission and round-close rules, the
//! aggregation tree's shape, simulated time and the common error type. The
//! paper simulator's configuration lives in `lifl-sim`, not here.
//!
//! The types in this crate are deliberately small, `Copy` where possible, and
//! free of behaviour beyond what is needed to keep invariants (for example
//! [`ObjectKey`] is always exactly 16 bytes, matching the key
//! format of the paper's shared-memory object store, Appendix A).
//!
//! ```
//! use lifl_types::model::ModelKind;
//! use lifl_types::ids::NodeId;
//!
//! let node = NodeId::new(3);
//! let model = ModelKind::ResNet152;
//! assert_eq!(node.index(), 3);
//! assert!(model.update_bytes() > 200 * 1024 * 1024);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
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
pub mod codec;
pub mod error;
pub mod fold;
pub mod ids;
pub mod model;
pub mod role;
pub mod time;
pub mod topology;

pub use admission::{AdmissionConfig, AdmissionOutcome, RoundClose};
pub use codec::{CodecKind, WIRE_HEADER_BYTES};
pub use error::{LiflError, Result};
pub use fold::FoldPolicy;
pub use ids::{AggregatorId, ClientId, NodeId, ObjectKey, RoundId};
pub use model::ModelKind;
pub use role::AggregatorRole;
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
