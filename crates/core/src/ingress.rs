//! The one way in: every update offered to a [`Session`](crate::session)
//! or a [`Cluster`](crate::cluster) — directly or drained from the backlog —
//! goes offer → slot through the three rules this module owns, each written
//! once:
//!
//! * **normalise** — an anonymous update is attributed to the backend's
//!   lifetime arrival index, a dense update is lossy-encoded with its
//!   client's error-feedback residual, and encoded remote bytes are
//!   header-validated: before anything is stored *or* parked, so a parked
//!   then drained update flows exactly as a direct ingest would.
//! * **route** — a fault-refill slot first, then a vacancy opened by
//!   mid-round churn, then the round-robin cursor; committed when the slot
//!   took the update, rolled back when it did not.
//! * **park** — the normalised update's wire form, borrowed in place, is
//!   copied once into a pooled backlog buffer of the bounded
//!   [`AdmissionQueues`]; drained, that buffer *is* the stored object.
//!
//! Updates travel by value from here on: `admit` hands the normalised update
//! to the store, which keeps its buffer. Nobody has to return anything — a
//! buffer the ingress encoded into (or a drained backlog buffer) goes back to
//! the pool when the store recycles the object, or at once if the store
//! refuses it.
//!
//! A slot is a leaf aggregator for a session and a node for a cluster; the
//! backends supply only their `admit` (store into the routed slot). The
//! state is deterministic (covered by `lifl-lint` R5): the same offer trace
//! always lands the same updates on the same slots.

use crate::admission::{AdmissionQueues, AdmissionStats};
use crate::gateway::encoded_dense_bytes;
use lifl_fl::codec::ErrorFeedback;
use lifl_fl::kernels::le_bytes;
use lifl_fl::update::Update;
use lifl_shmem::{BufferPool, PooledBuf};
use lifl_types::{AdmissionConfig, AdmissionOutcome, ClientId, Result, SimDuration};

/// What a backend without admission queues answers to an offer it has no
/// room for: nothing will drain, so there is nothing to wait for.
const NO_BACKLOG: AdmissionOutcome = AdmissionOutcome::Rejected {
    retry_after: SimDuration::ZERO,
};

/// Where a routed slot came from, so that settling the route knows what to
/// commit or roll back.
#[derive(Debug, Clone, Copy)]
enum Origin {
    Refill,
    Vacancy,
    Cursor,
}

/// One routing decision, open until [`Ingress::settle`] closes it.
#[derive(Debug)]
pub(crate) struct Route {
    /// The slot (leaf or node) the update goes to.
    pub(crate) slot: usize,
    origin: Origin,
}

/// The ingress state of one backend: codec feedback, the open round's fill
/// and routing position, and the bounded backlog.
#[derive(Debug)]
pub(crate) struct Ingress {
    feedback: ErrorFeedback,
    pool: BufferPool,
    queues: Option<AdmissionQueues>,
    /// Updates admitted into the open round.
    ingested: u64,
    /// Updates admitted over the backend's whole life (never reset): the
    /// client id an anonymous update is attributed to, so residual slots
    /// never alias across rounds and the codec cannot change attribution.
    lifetime: u64,
    /// Round-robin position of the next update that fills neither a refill
    /// slot nor a vacancy. Equal to `ingested` until a kill or churn, so
    /// undisturbed routing is update *k* → slot `k % slots`.
    cursor: u64,
    /// Slots vacated by departed clients, refilled before the cursor moves:
    /// a replacement lands where the departed client was and the survivors
    /// keep their assignment.
    vacancies: Vec<usize>,
}

/// The normalise rule (see the module docs).
fn normalise(feedback: &mut ErrorFeedback, lifetime: u64, update: Update) -> Result<Update> {
    let fallback = ClientId::new(lifetime);
    Ok(match update {
        // Lossless codecs pass the dense model through untouched.
        Update::Dense(dense) => {
            feedback.encode_update(dense.client.unwrap_or(fallback), dense.model, dense.samples)
        }
        Update::Encoded {
            client,
            update,
            samples,
        } => Update::Encoded {
            client: Some(client.unwrap_or(fallback)),
            update,
            samples,
        },
        Update::RemoteBytes {
            ref wire,
            encoded: true,
            ..
        } => {
            encoded_dense_bytes(wire)?;
            update
        }
        dense_remote => dense_remote,
    })
}

impl Ingress {
    pub(crate) fn new(
        feedback: ErrorFeedback,
        pool: BufferPool,
        queues: Option<AdmissionQueues>,
    ) -> Ingress {
        Ingress {
            feedback,
            pool,
            queues,
            ingested: 0,
            lifetime: 0,
            cursor: 0,
            vacancies: Vec::new(),
        }
    }

    /// Updates admitted into the open round.
    pub(crate) fn ingested(&self) -> u64 {
        self.ingested
    }

    /// The round-robin position the next cursor-routed update takes.
    pub(crate) fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Applies the normalise rule to an update about to be admitted.
    ///
    /// # Errors
    /// Returns [`lifl_types::LiflError::Codec`] for malformed encoded remote
    /// bytes.
    pub(crate) fn normalise(&mut self, update: Update) -> Result<Update> {
        normalise(&mut self.feedback, self.lifetime, update)
    }

    /// The route rule: picks the slot for the next update. `refill` is the
    /// backend's fault-refill slot, if a killed node is owed updates;
    /// `cursor_slot` is where the round-robin cursor points.
    pub(crate) fn route(&mut self, refill: Option<usize>, cursor_slot: usize) -> Route {
        let (slot, origin) = match refill {
            Some(slot) => (slot, Origin::Refill),
            None => match self.vacancies.pop() {
                Some(slot) => (slot, Origin::Vacancy),
                None => (cursor_slot, Origin::Cursor),
            },
        };
        Route { slot, origin }
    }

    /// Closes a route: an admitted update counts toward the round and moves
    /// the cursor if it used it; a refused one hands its vacancy back.
    pub(crate) fn settle(&mut self, route: Route, admitted: bool) {
        match (route.origin, admitted) {
            (Origin::Cursor, true) => self.cursor += 1,
            (Origin::Vacancy, false) => self.vacancies.push(route.slot),
            _ => {}
        }
        if admitted {
            self.ingested += 1;
            self.lifetime += 1;
        }
    }

    /// The client an update admitted now is tracked under: its producer, or
    /// the arrival index an anonymous one is attributed to.
    pub(crate) fn tracked(&self, producer: Option<ClientId>) -> ClientId {
        producer.unwrap_or(ClientId::new(self.lifetime))
    }

    /// Takes one admitted update back out of the round (its client
    /// departed), leaving `slot` vacant for the next arrival.
    pub(crate) fn vacate(&mut self, slot: usize) {
        self.ingested = self.ingested.saturating_sub(1);
        self.vacancies.push(slot);
    }

    /// Writes off `lost` admitted updates that died with their node. Their
    /// slots come back as the backend's refill slots, not as vacancies.
    pub(crate) fn forfeit(&mut self, lost: u64) {
        self.ingested = self.ingested.saturating_sub(lost);
    }

    /// Opens an empty round: no fill, cursor at the first slot, no
    /// vacancies. Residuals, the lifetime index and the backlog persist.
    pub(crate) fn reset_round(&mut self) {
        self.ingested = 0;
        self.cursor = 0;
        self.vacancies.clear();
    }

    /// The park rule: the round is full, so the update is normalised and its
    /// wire form offered to the bounded queues — `Queued{depth}`, or
    /// `Rejected{retry_after}` when the budget is exhausted. Without queues
    /// the offer is turned away untouched (no encode, no residual change).
    ///
    /// The wire form is borrowed where it lies (a dense model through its
    /// little-endian view, an encoded update through its one buffer), so the
    /// queues' copy into a pooled backlog buffer is the only one and nothing
    /// is allocated; the normalised update is dropped on the way out, which
    /// returns an ingress-encoded buffer to the pool.
    ///
    /// # Errors
    /// Returns [`lifl_types::LiflError::Codec`] for malformed encoded remote
    /// bytes; nothing is parked.
    pub(crate) fn park(&mut self, update: Update) -> Result<AdmissionOutcome> {
        let Some(queues) = self.queues.as_mut() else {
            return Ok(NO_BACKLOG);
        };
        let update = normalise(&mut self.feedback, self.lifetime, update)?;
        Ok(match &update {
            Update::Dense(dense) => {
                let wire = le_bytes(dense.model.as_slice());
                queues.offer(dense.client, wire, dense.samples, false)
            }
            Update::Encoded {
                client,
                update: encoded,
                samples,
            } => queues.offer(*client, encoded.wire(), *samples, true),
            Update::RemoteBytes {
                wire,
                weight,
                encoded,
            } => queues.offer(None, wire, *weight, *encoded),
        })
    }

    /// Takes the best parked offer (utility desc, arrival asc) for the
    /// backend's `admit`: its pooled backlog buffer moves into remote-bytes
    /// form behind the pool-returning owner — so the drained buffer *is* the
    /// object the store will hold, and comes home when that object is
    /// recycled — and its producer rides alongside. A parked payload that no
    /// longer header-validates is dropped here — buffer back to the pool —
    /// and the next offer is taken instead.
    pub(crate) fn take_parked(&mut self) -> Option<(Update, Option<ClientId>)> {
        let queues = self.queues.as_mut()?;
        loop {
            let offer = queues.take_best()?;
            let payload = PooledBuf::adopt(offer.payload, &self.pool);
            if offer.encoded && encoded_dense_bytes(payload.as_slice()).is_err() {
                queues.drop_taken();
                continue;
            }
            let wire = bytes::Bytes::from_owner(payload);
            let update = Update::remote_bytes(wire, offer.weight, offer.encoded);
            return Some((update, offer.client));
        }
    }

    /// Records that the offer [`Ingress::take_parked`] handed out was not
    /// admitted after all: it counts as dropped, not drained. Its buffer
    /// needs no attention — the refused store dropped it back into the pool.
    pub(crate) fn drop_parked(&mut self) {
        if let Some(queues) = self.queues.as_mut() {
            queues.drop_taken();
        }
    }

    /// Direct access to the queues, for tests that park behind the rules.
    #[cfg(test)]
    pub(crate) fn queues_mut(&mut self) -> Option<&mut AdmissionQueues> {
        self.queues.as_mut()
    }

    /// Drops every offer `client` has parked; `true` if there were any.
    pub(crate) fn remove_parked(&mut self, client: ClientId) -> bool {
        self.queues
            .as_mut()
            .is_some_and(|queues| queues.remove_client(client) > 0)
    }

    /// Records a client's Oort utility (drain priority); no-op without
    /// queues.
    pub(crate) fn record_utility(&mut self, client: ClientId, utility: f64) {
        if let Some(queues) = self.queues.as_mut() {
            queues.record_utility(client, utility);
        }
    }

    /// The admission configuration, when the backend has queues.
    pub(crate) fn config(&self) -> Option<&AdmissionConfig> {
        self.queues.as_ref().map(AdmissionQueues::config)
    }

    /// Occupancy of every queue, in slot order (empty without queues).
    pub(crate) fn depths(&self) -> Vec<usize> {
        self.queues.as_ref().map_or_else(Vec::new, |q| q.depths())
    }

    /// Total parked offers.
    pub(crate) fn queued(&self) -> usize {
        self.queues
            .as_ref()
            .map_or(0, AdmissionQueues::total_queued)
    }

    /// Lifetime admission counters (zero-default without queues).
    pub(crate) fn stats(&self) -> AdmissionStats {
        self.queues
            .as_ref()
            .map(AdmissionQueues::stats)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_fl::codec::UpdateCodec;
    use lifl_types::CodecKind;

    fn ingress() -> Ingress {
        let feedback = ErrorFeedback::new(UpdateCodec::new(CodecKind::Identity));
        Ingress::new(feedback, BufferPool::new(), None)
    }

    #[test]
    fn route_prefers_refill_then_vacancy_then_cursor() {
        let mut ingress = ingress();
        // Undisturbed: the cursor slot, and admitting advances the cursor.
        let route = ingress.route(None, 3);
        assert_eq!(route.slot, 3);
        ingress.settle(route, true);
        assert_eq!((ingress.ingested, ingress.cursor), (1, 1));
        // A departure opens a vacancy, which wins over the cursor…
        ingress.vacate(7);
        assert_eq!(ingress.ingested, 0);
        // …but not over a refill slot, which leaves the vacancy alone.
        let route = ingress.route(Some(5), 3);
        assert_eq!(route.slot, 5);
        ingress.settle(route, true);
        assert_eq!((ingress.ingested, ingress.cursor), (1, 1));
        let route = ingress.route(None, 3);
        assert_eq!(route.slot, 7);
        ingress.settle(route, true);
        // Neither refill nor vacancy consumed a round-robin position.
        assert_eq!((ingress.ingested, ingress.cursor), (2, 1));
        assert_eq!(ingress.route(None, 3).slot, 3);
    }

    #[test]
    fn a_refused_route_is_rolled_back() {
        let mut ingress = ingress();
        ingress.vacate(2);
        let lifetime = ingress.tracked(None);
        let route = ingress.route(None, 0);
        assert_eq!(route.slot, 2);
        ingress.settle(route, false);
        // Nothing counted, the vacancy is open again, attribution unmoved.
        assert_eq!((ingress.ingested, ingress.cursor), (0, 0));
        assert_eq!(ingress.tracked(None), lifetime);
        assert_eq!(ingress.route(None, 0).slot, 2);
        // A refused cursor route does not move the cursor either.
        let route = ingress.route(None, 0);
        ingress.settle(route, false);
        assert_eq!((ingress.ingested, ingress.cursor), (0, 0));
    }
}
