//! The fault tier: a hostile-fleet acceptance suite for the cluster's
//! failure-handling machinery (§3).
//!
//! * `node_kill` — a child [`Session`](lifl_core::session::Session) killed at
//!   every phase of a round (mid-ingest, after churn, pre-drive, at every
//!   hop boundary mid-drive, after its own export, between rounds), with the
//!   round surviving bit-exactly — the node restarts and re-delivers its
//!   round from the stored keys, a struck drive re-plans with dedup — and
//!   the top-host kill restoring the latest checkpoint bit-exactly.
//! * `corruption` — corrupted client updates (adversarial scaling and random
//!   byte flips) at 10–30% of the fleet: robust fold policies keep the global
//!   aggregate inside the honest envelope where plain FedAvg diverges.
//! * `policy_exactness` — the [`FoldPolicy::FedAvg`](lifl_types::FoldPolicy)
//!   path is bit-exact with the default (pre-policy) path for every
//!   `CodecKind` × shard count, over both backends.
//! * `resilient_driver` — the multi-round training driver's `run_round`
//!   survives child kills with nothing re-sent and recovers its global model
//!   from the checkpoint after a top-host kill.

mod corruption;
mod node_kill;
mod policy_exactness;
mod resilient_driver;
mod util;
