//! The aggregation-backend abstraction multi-round training drivers run
//! over.
//!
//! A training loop does not care *where* a round aggregates — one in-process
//! session tree, or a multi-node cluster federating sessions over
//! `Update::RemoteBytes`. [`Ingest`] is the contract between the two: a
//! backend accepts updates in any representation through one polymorphic
//! ingress, aggregates exactly one tree's worth of them per round, and
//! returns the global aggregate with its wire accounting. `lifl-core`
//! implements it for both `Session` and `Cluster`, and [`FlatFedAvg`] here is
//! the degenerate backend with no tree at all, so the same training loop —
//! codec handling, error feedback, metrics — runs bit-exactly over any of
//! them.

use crate::aggregate::{CumulativeFedAvg, ModelUpdate};
use crate::codec::{ErrorFeedback, UpdateCodec};
use crate::model::DenseModel;
use crate::update::Update;
use lifl_types::{AdmissionOutcome, CodecKind, LiflError, Result};

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
    /// Fails with [`LiflError::RoundFull`]
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
            Err(LiflError::RoundFull { .. }) => Ok(AdmissionOutcome::Rejected {
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

    /// The global model the backend restored from its latest checkpoint
    /// after it lost a round with the host of its top aggregator
    /// ([`LiflError::AggregatorFailure`] from [`Ingest::aggregate_round`]),
    /// if it restored one since the last take: what a driver adopts in place
    /// of the model the lost round would have produced. The default backend
    /// keeps no checkpoints.
    fn take_recovered_model(&mut self) -> Option<DenseModel> {
        None
    }
}

/// The flat backend: every update is encoded with its client's error
/// feedback and folded into one [`CumulativeFedAvg`] — no tree, no store, no
/// hops. This is the algorithm-level FedAvg round (the accuracy-versus-round
/// curve behind Fig. 9) expressed as an [`Ingest`] backend, bit-exact with a
/// `Session` over `Topology::flat(n)` under a lossless codec.
///
/// It stays beside the session backends although a flat session folds the
/// same lossless round: it is the reference the driver tier
/// (`tests/it/driver.rs`) compares every tree backend against, so it must
/// not share their store, stations or ingress, and under a lossy codec its
/// rounding stream starts at the codec's default seed (`0xC0DEC`) where a
/// session's starts at `0x5EED`, so the two are different runs there.
#[derive(Debug, Clone)]
pub struct FlatFedAvg {
    capacity: usize,
    feedback: ErrorFeedback,
    accumulator: CumulativeFedAvg,
    wire_bytes: u64,
}

impl FlatFedAvg {
    /// A backend whose rounds hold up to `capacity` updates, each travelling
    /// through `codec` (default codec seed).
    pub fn new(capacity: usize, codec: CodecKind) -> Self {
        FlatFedAvg {
            capacity,
            feedback: ErrorFeedback::new(UpdateCodec::new(codec)),
            accumulator: CumulativeFedAvg::default(),
            wire_bytes: 0,
        }
    }
}

impl Ingest for FlatFedAvg {
    fn ingest_update(&mut self, update: Update) -> Result<()> {
        if self.accumulator.updates_folded() >= self.capacity as u64 {
            return Err(LiflError::RoundFull {
                capacity: self.capacity,
            });
        }
        // A client's dense update is encoded here, like at a session's
        // ingress; every other representation folds as it arrived.
        let update = match update {
            Update::Dense(ModelUpdate {
                client: Some(client),
                model,
                samples,
            }) => self.feedback.encode_update(client, model, samples),
            other => other,
        };
        self.accumulator.fold_update(&update)?;
        self.wire_bytes += update.wire_bytes();
        self.feedback.recycle_update(update);
        Ok(())
    }

    fn round_capacity(&self) -> usize {
        self.capacity
    }

    fn ingress_codec(&self) -> CodecKind {
        self.feedback.kind()
    }

    /// A flat fold has no tree to fill: any non-empty round aggregates.
    fn aggregate_round(&mut self) -> Result<RoundAggregate> {
        let updates_ingested = self.accumulator.updates_folded();
        let update = self.accumulator.finalize()?;
        Ok(RoundAggregate {
            update,
            ingress_wire_bytes: std::mem::take(&mut self.wire_bytes),
            updates_ingested,
        })
    }

    fn discard_round(&mut self) {
        self.accumulator = CumulativeFedAvg::default();
        self.wire_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_types::ClientId;

    #[test]
    fn flat_backend_refuses_overflow_and_keeps_residuals_across_discard() {
        let mut flat = FlatFedAvg::new(2, CodecKind::Uniform8);
        let update =
            |i: u64| Update::dense(ClientId::new(i), DenseModel::from_vec(vec![0.3; 16]), 1);
        flat.ingest_update(update(1)).unwrap();
        flat.ingest_update(update(2)).unwrap();
        assert_eq!(
            flat.ingest_update(update(3)).unwrap_err(),
            LiflError::RoundFull { capacity: 2 }
        );
        let residual = flat.feedback.residual(ClientId::new(1)).cloned();
        assert!(residual.is_some());
        flat.discard_round();
        assert_eq!(flat.feedback.residual(ClientId::new(1)).cloned(), residual);
        // The discarded round left nothing behind: the next one starts empty.
        flat.ingest_update(update(1)).unwrap();
        assert_eq!(flat.aggregate_round().unwrap().updates_ingested, 1);
    }

    #[test]
    fn a_weight_that_would_overflow_the_round_total_is_refused_and_folds_nothing() {
        let mut flat = FlatFedAvg::new(3, CodecKind::Identity);
        let half = 1u64 << 63;
        let update = |value: f32, samples: u64| {
            Update::dense(
                ClientId::new(0),
                DenseModel::from_vec(vec![value; 3]),
                samples,
            )
        };
        flat.ingest_update(update(1.0, half)).unwrap();
        assert_eq!(
            flat.ingest_update(update(3.0, half)).unwrap_err(),
            LiflError::InvalidAggregationGoal(half)
        );
        flat.ingest_update(update(5.0, 2)).unwrap();
        let round = flat.aggregate_round().unwrap();
        assert_eq!(round.updates_ingested, 2);
        assert_eq!(round.update.samples, half + 2);
        // 5 × 2 vanishes beside 1 × 2⁶³ in `f32`: the refused 3 × 2⁶³ would
        // not have.
        assert_eq!(round.update.model.as_slice(), &[1.0; 3]);
    }
}
