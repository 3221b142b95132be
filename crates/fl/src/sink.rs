//! The aggregation-backend abstraction multi-round training drivers run
//! over.
//!
//! A training loop does not care *where* a round aggregates — one in-process
//! session tree, or a multi-node cluster federating sessions over
//! `Update::RemoteBytes`. [`Ingest`] is the contract between the two: a
//! backend accepts updates in any representation through one polymorphic
//! ingress, aggregates exactly one tree's worth of them per round, and
//! returns the global aggregate with its wire accounting. `lifl-core`
//! implements it for both `Session` and `Cluster`, so the same training
//! loop — codec handling, error feedback, metrics — runs bit-exactly over
//! either.

use crate::aggregate::ModelUpdate;
use crate::update::Update;
use lifl_types::{AdmissionOutcome, CodecKind, Result};

/// What one aggregated round produced, in backend-agnostic form.
#[derive(Debug, Clone)]
pub struct RoundAggregate {
    /// The aggregated global model (decoded to dense parameters).
    pub update: ModelUpdate,
    /// Total data-plane payload bytes the round's ingests occupied in their
    /// wire form (summed across nodes for a federated backend).
    pub ingress_wire_bytes: u64,
    /// Client updates the round aggregated.
    pub updates_ingested: u64,
}

/// An aggregation backend a multi-round FL driver can ingest into: one
/// round-sized sink of [`Update`]s that aggregates on demand.
///
/// Implementations must be *round-reusable*: after [`Ingest::aggregate_round`]
/// returns (or the round is discarded), the next round's ingests begin
/// immediately, and any per-client codec state (error-feedback residuals)
/// persists across rounds.
pub trait Ingest {
    /// Accepts one update into the current round, in whatever representation
    /// it arrived.
    ///
    /// # Errors
    /// Fails with [`LiflError::RoundFull`](lifl_types::LiflError::RoundFull)
    /// if the round is already full, or on any store/codec error. A failed
    /// ingest counts nothing toward the round.
    fn ingest_update(&mut self, update: Update) -> Result<()>;

    /// Offers one update under admission control, answering with typed
    /// backpressure instead of an error when the round is full.
    ///
    /// The default implementation has no backlog: it admits while the round
    /// has room and rejects (with a zero retry hint) once it is full, so
    /// unbounded backends keep their legacy semantics. Bounded backends
    /// override this to park overflow in their admission queues.
    ///
    /// # Errors
    /// Fails only on store/codec errors; a full round is an outcome, not an
    /// error.
    fn try_ingest(&mut self, update: Update) -> Result<AdmissionOutcome> {
        match self.ingest_update(update) {
            Ok(()) => Ok(AdmissionOutcome::Admitted),
            Err(lifl_types::LiflError::RoundFull { .. }) => Ok(AdmissionOutcome::Rejected {
                retry_after: lifl_types::SimDuration::ZERO,
            }),
            Err(e) => Err(e),
        }
    }

    /// Updates one round aggregates (the capacity of the backend's tree).
    fn round_capacity(&self) -> usize;

    /// The wire codec the backend applies at its ingress.
    fn ingress_codec(&self) -> CodecKind;

    /// Aggregates the ingested round and returns the global aggregate,
    /// leaving the backend ready for the next round.
    ///
    /// # Errors
    /// Fails if the ingested updates do not exactly fill the backend's tree,
    /// or on any store/codec/aggregation error.
    fn aggregate_round(&mut self) -> Result<RoundAggregate>;

    /// Discards the current (not yet aggregated) round, returning the
    /// backend to an empty round. Per-client codec state is kept.
    fn discard_round(&mut self);
}
