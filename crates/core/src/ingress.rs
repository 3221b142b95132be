//! The one way in: every update offered to a [`Session`](crate::session)
//! or a [`Cluster`](crate::cluster) — directly or drained from the backlog —
//! goes offer → slot through the rules this module owns, each written once
//! ([`offer`] is the one ingest implementation both backends call):
//!
//! * **normalise** — an update of weight 0 is refused, an anonymous update
//!   is attributed to the backend's lifetime arrival index, a dense update
//!   under a lossy codec becomes an error-feedback encode of its client's
//!   residual, and remote bytes are validated (an encoded payload against
//!   the wire contract of `EncodedView::parse`, dense bytes as whole
//!   `f32`s): before anything is stored *or* parked, so a parked then
//!   drained update flows exactly as a direct ingest would. The round's
//!   first admitted update pins the model dimension, and an update of
//!   another one is refused with `DimensionMismatch` — at the door, and
//!   when a parked one drains (it is dropped) — instead of failing the
//!   round's fold and every honest update in it. The round's admitted
//!   weights are summed the same way: an update whose weight would
//!   overflow that total is refused (and a parked one dropped at drain)
//!   instead of wrapping it and scaling every folded value wrongly, and an
//!   update that leaves the round gives its weight back. On a cluster the
//!   cluster's ingress keeps the total, since it is round-wide. An encoded
//!   offer (an `Encoded` update or encoded remote bytes) whose
//!   quantized levels would fold at a factor `weight · scale` that is not
//!   finite is refused too; a dense offer the ingress encodes itself finds
//!   its scale only in its encode, after it was admitted.
//! * **route** — a vacancy opened by mid-round churn first, then the
//!   round-robin cursor; committed when the slot took the update, rolled
//!   back when it did not.
//! * **encode off the offering thread** — a lossy dense offer is answered
//!   at once, in O(1): its wire length is a function of codec and `dim`
//!   only, so whether the slot takes it is decided against the store *and
//!   everything still in flight* before its encode starts, and the route is
//!   settled then. The encode runs as a job on the backend's
//!   [`Workers`]; its result is committed — put into the store, queued for
//!   the slot, its residual put back — strictly in offer order, so keys,
//!   inbox order, store accounting and every fold see the sequence an
//!   inline encode would have produced. The encodes share one rounding
//!   stream, handed from job to job in offer order ([`Turnstile`]) between
//!   their two sweeps: how far each one moves it is known only once its
//!   first sweep has found the scale (a zero scale draws nothing). Every
//!   other update, and every other operation on the backend, settles the
//!   in-flight encodes first ([`settle`]).
//! * **park** — the normalised update's wire form, borrowed in place, is
//!   copied once into a pooled backlog buffer of the bounded
//!   [`AdmissionQueues`]; drained, that buffer *is* the stored object. A
//!   lossy offer's fit is decided from its wire length before it is encoded,
//!   so an offer turned away touches no residual and no stream position.
//!
//! Updates travel by value from here on: `admit` hands the normalised update
//! to the store, which keeps its buffer. Nobody has to return anything — a
//! buffer the ingress encoded into (or a drained backlog buffer) goes back to
//! the pool when the store recycles the object, or at once if the store
//! refuses it.
//!
//! A slot is a leaf aggregator for a session and a node for a cluster; the
//! backends supply only what differs ([`Backend`]). The state is
//! deterministic (covered by `lifl-lint` R5): the same offer trace always
//! lands the same updates on the same slots, whichever thread encoded them.

use crate::admission::{AdmissionQueues, AdmissionStats};
use crate::gateway::remote_dense_bytes;
use crate::stations::{Job, Turn, Turnstile, Workers};
use lifl_fl::codec::{
    descriptor_dim, EncodedUpdate, EncodedView, ErrorFeedback, FeedbackJob, Residual, UpdateCodec,
};
use lifl_fl::kernels::{le_bytes, StochasticRng};
use lifl_fl::update::Update;
use lifl_fl::DenseModel;
use lifl_shmem::{BufferPool, PooledBuf};
use lifl_types::{
    AdmissionConfig, AdmissionOutcome, ClientId, CodecKind, LiflError, Result, SimDuration,
    WIRE_HEADER_BYTES,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// What a backend without admission queues answers to an offer it has no
/// room for: nothing will drain, so there is nothing to wait for.
const NO_BACKLOG: AdmissionOutcome = AdmissionOutcome::Rejected {
    retry_after: SimDuration::ZERO,
};

/// Where a routed slot came from, so that settling the route knows what to
/// commit or roll back.
#[derive(Debug, Clone, Copy)]
enum Origin {
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

/// What a backend — a session, whose slots are its leaves, or a cluster,
/// whose slots are its nodes — supplies to the one ingest implementation.
pub(crate) trait Backend {
    fn ingress(&mut self) -> &mut Ingress;

    /// Whether the open round can take one more update (counting the ones
    /// still in flight).
    fn has_room(&self) -> bool;

    /// Routes one update and stores it now, attributed to `producer`; a
    /// refusal rolls the route back.
    fn admit(&mut self, update: Update, producer: Option<ClientId>) -> Result<()>;

    /// Routes `client`'s update of `stored` bytes, whose encode is still to
    /// run, and counts it into the round — or refuses it, touching nothing,
    /// exactly when `admit` would refuse it once everything in flight has
    /// landed. Returns where [`Backend::commit`] stores it.
    fn reserve(&mut self, client: ClientId, stored: u64) -> Result<Target>;

    /// Stores an update [`Backend::reserve`] routed to `target`.
    fn commit(&mut self, target: Target, update: Update) -> Result<()>;
}

/// Where a reserved update lands: the slot it was routed to and the leaf
/// under it (a cluster node's session routes too; a session's slot *is*
/// the leaf).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Target {
    pub(crate) slot: usize,
    pub(crate) leaf: usize,
}

/// The one ingest implementation behind `Session::try_ingest` and
/// `Cluster::try_ingest`: normalise, then admit while the round has room
/// and park once it is full. A lossy dense offer is only routed and counted
/// here; its encode runs on the workers and lands in offer order.
///
/// # Errors
/// Store refusals, a zero weight, malformed remote bytes, an encoded offer
/// whose fold factor is not finite and a dimension other than the round's,
/// before anything is counted, parked or encoded.
pub(crate) fn offer(backend: &mut impl Backend, update: Update) -> Result<AdmissionOutcome> {
    if !backend.has_room() {
        settle(backend);
        return backend.ingress().park(update);
    }
    let weight = update.weight();
    let (normalised, dim) = backend.ingress().normalise(update)?;
    match normalised {
        Normalised::Ready(update) => {
            settle(backend);
            let producer = update.client();
            backend.admit(update, producer)?;
        }
        Normalised::Encode(offer) => {
            if backend.ingress().awaits(offer.client) {
                // Its residual is out with the encode still in flight.
                settle(backend);
            }
            let stored = backend.ingress().stored_bytes(&offer);
            let target = backend.reserve(offer.client, stored)?;
            backend.ingress().defer(offer, target, stored);
            commit(backend, false);
        }
    }
    backend.ingress().book(dim, weight);
    Ok(AdmissionOutcome::Admitted)
}

/// Commits every in-flight encode, in offer order, waiting for the ones
/// still running: what every operation but a lossy offer does first. A
/// failed encode (or a refused commit) is kept for the backend's next drive
/// to report ([`Ingress::take_failure`]).
pub(crate) fn settle(backend: &mut impl Backend) {
    commit(backend, true);
}

/// Commits the in-flight encodes at the head of the line — all of them
/// when `wait`, else only those already finished.
fn commit(backend: &mut impl Backend, wait: bool) {
    while let Some((target, update)) = backend.ingress().finished(wait) {
        if let Err(error) = update.and_then(|update| backend.commit(target, update)) {
            backend.ingress().fail(error);
        }
    }
}

/// Drains parked offers into the open round — globally best first (utility
/// desc, arrival asc) — until the round is full or the backlog is empty. An
/// offer that fails to admit, whose dimension is not the round's or whose
/// weight would overflow the round's total, is dropped and the next one is
/// tried.
pub(crate) fn drain(backend: &mut impl Backend) {
    while backend.has_room() {
        let Some((update, producer, dim)) = backend.ingress().take_parked() else {
            break;
        };
        let (weight, ingress) = (update.weight(), backend.ingress());
        let admitted = dim_rule(ingress.dim, dim)
            .and_then(|dim| weight_rule(ingress.weight, weight).map(|_| dim))
            .and_then(|dim| backend.admit(update, producer).map(|()| dim));
        match admitted {
            Ok(dim) => backend.ingress().book(dim, weight),
            Err(_) => backend.ingress().drop_parked(),
        }
    }
}

/// An offer after the normalise rule.
enum Normalised {
    /// Stored (or parked) as it is.
    Ready(Update),
    /// A dense model to encode under a lossy codec.
    Encode(LossyOffer),
}

/// A lossy dense offer: the model, its client (attributed) and its weight.
struct LossyOffer {
    client: ClientId,
    model: DenseModel,
    samples: u64,
}

/// One deferred encode, from offer to commit.
#[derive(Debug)]
struct InFlight {
    /// Where the offer was routed.
    target: Target,
    client: ClientId,
    samples: u64,
    /// Bytes the encoded form will occupy in the store.
    stored: u64,
    job: Job<Result<(EncodedUpdate, Residual)>>,
}

/// A client's encode, on whichever thread runs it: the first sweep, the
/// stream turn (skipped by top-k, which draws nothing), the second sweep.
fn encode(
    job: FeedbackJob<'static>,
    turn: Option<Turn<StochasticRng>>,
) -> Result<(EncodedUpdate, Residual)> {
    let job = job.compensate();
    let mut rng = match turn {
        Some(turn) => turn.take(|stream| job.claim(stream))?,
        None => StochasticRng::from_seed(0),
    };
    Ok(job.finish(&mut rng))
}

/// The ingress state of one backend: codec feedback and the encodes in
/// flight, the open round's fill and routing position, and the bounded
/// backlog.
#[derive(Debug)]
pub(crate) struct Ingress {
    feedback: ErrorFeedback,
    /// The rounding stream every encode draws from, handed on in offer
    /// order.
    stream: Arc<Turnstile<StochasticRng>>,
    workers: Workers,
    /// Deferred encodes, oldest first: committed in this order.
    in_flight: VecDeque<InFlight>,
    /// The first encode (or commit) that failed since the round opened.
    failure: Option<LiflError>,
    pool: BufferPool,
    queues: Option<AdmissionQueues>,
    /// Updates admitted into the open round.
    ingested: u64,
    /// Updates admitted over the backend's whole life (never reset): the
    /// client id an anonymous update is attributed to, so residual slots
    /// never alias across rounds and the codec cannot change attribution.
    lifetime: u64,
    /// Round-robin position of the next update that fills no vacancy.
    /// Equal to `ingested` until churn, so undisturbed routing is update *k*
    /// → slot `k % slots`.
    cursor: u64,
    /// The model dimension the open round's first admitted update pinned.
    dim: Option<usize>,
    /// The weights of the open round's admitted updates, summed: held below
    /// overflow by the weight rule.
    weight: u64,
    /// Slots vacated by departed clients, refilled before the cursor moves:
    /// a replacement lands where the departed client was and the survivors
    /// keep their assignment.
    vacancies: Vec<usize>,
}

/// The dim rule: an update whose model dimension is not the one `pinned`
/// by the round's first admitted update is refused.
fn dim_rule(pinned: Option<usize>, actual: usize) -> Result<usize> {
    match pinned {
        Some(expected) if expected != actual => {
            Err(LiflError::DimensionMismatch { expected, actual })
        }
        _ => Ok(actual),
    }
}

/// The weight rule: the round's admitted weights must sum without overflow
/// — a wrapped total would scale every folded value by the wrong factor —
/// so an update whose `weight` would take `total` past `u64::MAX` is
/// refused. Returns the new total.
fn weight_rule(total: u64, weight: u64) -> Result<u64> {
    (total.checked_add(weight)).ok_or(LiflError::InvalidAggregationGoal(weight))
}

/// The factor rule: a quantized view folds every level at `weight as f32 *
/// scale`, which overflows to ±∞ for a large weight and scale although both
/// are valid, and an infinite factor turns a level-0 lane into 0 · ∞ = NaN
/// — poisoning every station it is folded into. So an encoded offer whose
/// factor is not finite is refused, at the cost of one multiply. Returns
/// the view.
fn factor_rule(view: EncodedView<'_>, weight: u64) -> Result<EncodedView<'_>> {
    match view.level_factor(weight) {
        Some(factor) if !factor.is_finite() => Err(LiflError::Codec(format!(
            "fold factor {factor} of weight {weight} and the view's scale is not finite"
        ))),
        _ => Ok(view),
    }
}

/// Seed of every ingress's client-side error-feedback rounding stream (the
/// value the pre-redesign codec path used).
const SEED: u64 = 0x5EED;

impl Ingress {
    /// An ingress whose encodes run on `workers`, with error feedback under
    /// `kind` whose rounding stream starts at [`SEED`].
    pub(crate) fn new(
        kind: CodecKind,
        pool: BufferPool,
        queues: Option<AdmissionQueues>,
        workers: Workers,
    ) -> Ingress {
        // Every encode claims its place in `stream`; the feedback's own
        // generator is never drawn from.
        Ingress {
            feedback: ErrorFeedback::new(
                UpdateCodec::with_seed(kind, SEED).with_pool(pool.clone()),
            ),
            stream: Turnstile::new(StochasticRng::from_seed(SEED)),
            workers,
            in_flight: VecDeque::new(),
            failure: None,
            pool,
            queues,
            ingested: 0,
            lifetime: 0,
            cursor: 0,
            dim: None,
            weight: 0,
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

    /// Applies the normalise rule (see the module docs) to an update about
    /// to be admitted: the offer as it is stored or encoded, and the model
    /// dimension it folds at.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] for a zero weight or one
    /// that would overflow the round's total, [`LiflError::Codec`] for
    /// malformed remote bytes or an encoded offer whose fold factor is not
    /// finite, and [`LiflError::DimensionMismatch`] for a dimension other
    /// than the round's.
    fn normalise(&self, update: Update) -> Result<(Normalised, usize)> {
        if update.weight() == 0 {
            // A zero weight would fail the round's fold after it was admitted.
            return Err(LiflError::InvalidAggregationGoal(0));
        }
        let weight = update.weight();
        weight_rule(self.weight, weight)?;
        // The dimension, from what the offer already holds: remote bytes
        // state theirs in the wire contract they are validated against.
        let dim = match &update {
            Update::Dense(dense) => dense.model.dim(),
            Update::Encoded { update, .. } => factor_rule(update.view(), weight)?.dim(),
            Update::RemoteBytes {
                wire,
                encoded: true,
                ..
            } => factor_rule(EncodedView::parse(wire)?, weight)?.dim(),
            Update::RemoteBytes { wire, .. } => (remote_dense_bytes(wire, false)? / 4) as usize,
        };
        let dim = dim_rule(self.dim, dim)?;
        let fallback = ClientId::new(self.lifetime);
        let normalised = Normalised::Ready(match update {
            Update::Dense(dense) => {
                let client = dense.client.unwrap_or(fallback);
                if self.feedback.kind().is_lossless() {
                    // Lossless codecs pass the dense model through untouched.
                    Update::dense(client, dense.model, dense.samples)
                } else {
                    let offer = LossyOffer {
                        client,
                        model: dense.model,
                        samples: dense.samples,
                    };
                    return Ok((Normalised::Encode(offer), dim));
                }
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
            remote @ Update::RemoteBytes { .. } => remote,
        });
        Ok((normalised, dim))
    }

    /// The bytes `offer`'s encoded form will occupy in the store: a
    /// function of codec and `dim` alone (descriptor plus body).
    fn stored_bytes(&self, offer: &LossyOffer) -> u64 {
        let dense = offer.model.dim() as u64 * 4;
        WIRE_HEADER_BYTES + self.feedback.kind().encoded_bytes(dense)
    }

    /// Takes the offer's residual out and gives its encode the next place
    /// in the stream order (top-k draws nothing, so it takes none): the
    /// encode, ready to run on any thread.
    fn job(
        &mut self,
        offer: LossyOffer,
    ) -> impl FnOnce() -> Result<(EncodedUpdate, Residual)> + Send + 'static {
        let job = self.feedback.take_job(offer.client, offer.model);
        let turn = job.draws_rounding_words().then(|| self.stream.ticket());
        move || encode(job, turn)
    }

    /// Starts `offer`'s encode on the workers, routed to `target`, its
    /// `stored` bytes counted as in flight until it is committed.
    fn defer(&mut self, offer: LossyOffer, target: Target, stored: u64) {
        let (client, samples) = (offer.client, offer.samples);
        let job = self.job(offer);
        let job = self.workers.submit(job);
        self.in_flight.push_back(InFlight {
            target,
            client,
            samples,
            stored,
            job,
        });
    }

    /// Whether `client` has an encode in flight (its residual is out).
    fn awaits(&self, client: ClientId) -> bool {
        self.in_flight.iter().any(|f| f.client == client)
    }

    /// The bytes the encodes in flight to `slot` (to any slot: `None`) will
    /// store.
    pub(crate) fn in_flight_bytes(&self, slot: Option<usize>) -> u64 {
        self.in_flight
            .iter()
            .filter(|f| slot.is_none_or(|slot| f.target.slot == slot))
            .map(|f| f.stored)
            .sum()
    }

    /// The clients of the encodes in flight, in offer order.
    pub(crate) fn in_flight_clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.in_flight.iter().map(|f| f.client)
    }

    /// The oldest in-flight encode once it has run — waiting for it
    /// (running waiting jobs meanwhile) when `wait` — with its client's
    /// residual back in place: where it was routed and the update to store
    /// there, or why there is none. `None` when nothing is in flight or,
    /// not waiting, the oldest has not finished.
    fn finished(&mut self, wait: bool) -> Option<(Target, Result<Update>)> {
        if !wait && !self.in_flight.front()?.job.is_done() {
            return None;
        }
        let InFlight {
            target,
            client,
            samples,
            job,
            ..
        } = self.in_flight.pop_front()?;
        let encoded = self.workers.join(job).and_then(|encoded| encoded);
        let update = encoded.map(|(encoded, residual)| {
            self.feedback.restore(residual);
            Update::encoded(client, encoded, samples)
        });
        if self.in_flight.is_empty() {
            // Every job has run: a turn a failed job left untaken no longer
            // blocks anyone.
            self.stream.reopen();
        }
        Some((target, update))
    }

    /// Records a failed encode or commit; the first one is what the
    /// backend's next drive reports.
    fn fail(&mut self, error: LiflError) {
        self.failure.get_or_insert(error);
    }

    /// The failure recorded since the round opened, if any (clearing it).
    pub(crate) fn take_failure(&mut self) -> Option<LiflError> {
        self.failure.take()
    }

    /// The route rule: picks the slot for the next update — a vacancy left
    /// by a departed client, else `cursor_slot`, where the round-robin
    /// cursor points.
    pub(crate) fn route(&mut self, cursor_slot: usize) -> Route {
        match self.vacancies.pop() {
            Some(slot) => Route {
                slot,
                origin: Origin::Vacancy,
            },
            None => Route {
                slot: cursor_slot,
                origin: Origin::Cursor,
            },
        }
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

    /// Pins what an update admitted now brings into the open round: its
    /// model dimension and its weight (already held to the weight rule).
    fn book(&mut self, dim: usize, weight: u64) {
        self.dim = Some(dim);
        self.weight = self.weight.saturating_add(weight);
    }

    /// Takes one admitted update back out of the round (its client
    /// departed), leaving `slot` vacant for the next arrival.
    pub(crate) fn vacate(&mut self, slot: usize) {
        self.ingested = self.ingested.saturating_sub(1);
        self.vacancies.push(slot);
    }

    /// Gives `weight` of admitted updates whose clients departed back to the
    /// weight rule.
    pub(crate) fn release(&mut self, weight: u64) {
        self.weight = self.weight.saturating_sub(weight);
    }

    /// Opens an empty round: no fill, cursor at the first slot, no pinned
    /// dimension, no weight, no vacancies, no failure. Residuals, the
    /// lifetime index and the backlog persist. The backend settles first:
    /// nothing is in flight.
    pub(crate) fn reset_round(&mut self) {
        self.ingested = 0;
        self.cursor = 0;
        self.dim = None;
        self.weight = 0;
        self.vacancies.clear();
        self.failure = None;
    }

    /// The park rule: the round is full, so the update is normalised and its
    /// wire form offered to the bounded queues — `Queued{depth}`, or
    /// `Rejected{retry_after}` when the budget is exhausted. Without queues
    /// the offer is turned away untouched (no encode, no residual change).
    /// A lossy dense offer is encoded — here, on the calling thread, after
    /// the backend settled — only once its wire length is known to fit, so
    /// a rejected one touches no residual, stream position or pool.
    ///
    /// The wire form is borrowed where it lies (a dense model through its
    /// little-endian view, an encoded update through its one buffer), so the
    /// queues' copy into a pooled backlog buffer is the only one and nothing
    /// is allocated; the normalised update is dropped on the way out, which
    /// returns an ingress-encoded buffer to the pool.
    ///
    /// # Errors
    /// The errors of [`Ingress::normalise`]; nothing is parked.
    fn park(&mut self, update: Update) -> Result<AdmissionOutcome> {
        if self.queues.is_none() {
            return Ok(NO_BACKLOG);
        }
        let update = match self.normalise(update)?.0 {
            Normalised::Ready(update) => update,
            Normalised::Encode(offer) => {
                let stored = self.stored_bytes(&offer) as usize;
                if let Some(queues) = self.queues.as_mut() {
                    if !queues.would_queue(stored) {
                        return Ok(queues.refuse());
                    }
                }
                let (client, samples) = (offer.client, offer.samples);
                let (encoded, residual) = self.job(offer)()?;
                self.feedback.restore(residual);
                Update::encoded(client, encoded, samples)
            }
        };
        let Some(queues) = self.queues.as_mut() else {
            return Ok(NO_BACKLOG);
        };
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
    /// recycled — and its producer and dimension ride alongside. The
    /// payload was normalised before it was parked, so it is not checked
    /// again here: its dimension is read, not parsed, and [`drain`] holds it
    /// to the round's, which may have been pinned since.
    fn take_parked(&mut self) -> Option<(Update, Option<ClientId>, usize)> {
        let offer = self.queues.as_mut()?.take_best()?;
        let dim = match offer.encoded {
            true => descriptor_dim(&offer.payload),
            false => offer.payload.len() / 4,
        };
        let wire = bytes::Bytes::from_owner(PooledBuf::adopt(offer.payload, &self.pool));
        let update = Update::remote_bytes(wire, offer.weight, offer.encoded);
        Some((update, offer.client, dim))
    }

    /// Records that the offer [`Ingress::take_parked`] handed out was not
    /// admitted after all: it counts as dropped, not drained. Its buffer
    /// needs no attention — the refused store dropped it back into the pool.
    fn drop_parked(&mut self) {
        if let Some(queues) = self.queues.as_mut() {
            queues.drop_taken();
        }
    }

    /// Direct access to the queues, for tests that park behind the rules.
    #[cfg(test)]
    pub(crate) fn queues_mut(&mut self) -> Option<&mut AdmissionQueues> {
        self.queues.as_mut()
    }

    /// `client`'s residual as bits, for tests (settle first: an encode in
    /// flight has it out).
    #[cfg(test)]
    pub(crate) fn residual_bits(&self, client: ClientId) -> Option<Vec<u32>> {
        let residual = self.feedback.residual(client)?;
        Some(residual.as_slice().iter().map(|v| v.to_bits()).collect())
    }

    /// Defers a job that panics in place of an encode routed to `target`,
    /// for the failure-path tests.
    #[cfg(test)]
    pub(crate) fn defer_panicking(&mut self, target: Target) {
        let job = self
            .workers
            .submit(|| -> Result<(EncodedUpdate, Residual)> { panic!("ingress encode blew up") });
        self.in_flight.push_back(InFlight {
            target,
            client: ClientId::new(u64::MAX),
            samples: 1,
            stored: 0,
            job,
        });
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
    use lifl_types::Topology;

    fn ingress() -> Ingress {
        let workers = Workers::with_count(0);
        Ingress::new(CodecKind::Identity, BufferPool::new(), None, workers)
    }

    #[test]
    fn route_prefers_vacancy_then_cursor() {
        let mut ingress = ingress();
        // Undisturbed: the cursor slot, and admitting advances the cursor.
        let route = ingress.route(3);
        assert_eq!(route.slot, 3);
        ingress.settle(route, true);
        assert_eq!((ingress.ingested, ingress.cursor), (1, 1));
        // A departure opens a vacancy, which wins over the cursor.
        ingress.vacate(7);
        assert_eq!(ingress.ingested, 0);
        let route = ingress.route(3);
        assert_eq!(route.slot, 7);
        ingress.settle(route, true);
        // The vacancy consumed no round-robin position.
        assert_eq!((ingress.ingested, ingress.cursor), (1, 1));
        assert_eq!(ingress.route(3).slot, 3);
    }

    #[test]
    fn a_refused_route_is_rolled_back() {
        let mut ingress = ingress();
        ingress.vacate(2);
        let lifetime = ingress.tracked(None);
        let route = ingress.route(0);
        assert_eq!(route.slot, 2);
        ingress.settle(route, false);
        // Nothing counted, the vacancy is open again, attribution unmoved.
        assert_eq!((ingress.ingested, ingress.cursor), (0, 0));
        assert_eq!(ingress.tracked(None), lifetime);
        assert_eq!(ingress.route(0).slot, 2);
        // A refused cursor route does not move the cursor either.
        let route = ingress.route(0);
        ingress.settle(route, false);
        assert_eq!((ingress.ingested, ingress.cursor), (0, 0));
    }

    /// The two doors, as the factor-rule test drives them.
    trait Door {
        fn offer(&mut self, update: Update) -> Result<AdmissionOutcome>;
        fn pending(&self) -> u64;
        /// Drives the round: the aggregate's weight and bits.
        fn round(&mut self) -> (u64, Vec<u32>);
    }

    fn bits(update: &lifl_fl::ModelUpdate) -> (u64, Vec<u32>) {
        let model = update.model.as_slice();
        (update.samples, model.iter().map(|v| v.to_bits()).collect())
    }

    impl Door for crate::session::Session {
        fn offer(&mut self, update: Update) -> Result<AdmissionOutcome> {
            self.try_ingest(update)
        }
        fn pending(&self) -> u64 {
            self.pending_updates()
        }
        fn round(&mut self) -> (u64, Vec<u32>) {
            bits(&self.drive().unwrap().update)
        }
    }

    impl Door for crate::cluster::Cluster {
        fn offer(&mut self, update: Update) -> Result<AdmissionOutcome> {
            self.try_ingest(update)
        }
        fn pending(&self) -> u64 {
            self.pending_updates()
        }
        fn round(&mut self) -> (u64, Vec<u32>) {
            bits(&self.drive().unwrap().update)
        }
    }

    /// Eight honest dense updates of round `round`.
    fn honest(round: usize) -> Vec<Update> {
        (0..8)
            .map(|i| {
                let values =
                    (0..16).map(|d| ((i * 31 + d * 7 + round * 5) % 89) as f32 * 0.02 - 0.9);
                Update::dense(
                    ClientId::new(i as u64),
                    DenseModel::from_vec(values.collect()),
                    i as u64 + 1,
                )
            })
            .collect()
    }

    /// An overflowing-factor `Uniform8` view — a finite scale of ≈ 1e30 at
    /// a weight of 2⁴⁰, whose product is +∞ — offered as an `Encoded`
    /// update and as encoded remote bytes mid-round, is refused by `make`'s
    /// door with nothing counted, and that round and the next drive to the
    /// bits of a twin that never saw it, at 0, 1 and 3 workers.
    fn an_overflowing_factor_is_refused<D: Door>(make: impl Fn(Workers) -> D) {
        let huge = DenseModel::from_vec((0..16).map(|d| 1.27e32 - d as f32 * 1e30).collect());
        let view = UpdateCodec::new(CodecKind::Uniform8).encode(&huge);
        let weight = 1u64 << 40;
        assert_eq!(view.view().level_factor(weight), Some(f32::INFINITY));
        assert!(view.view().level_factor(1).is_some_and(f32::is_finite));
        for workers in [0, 1, 3] {
            let mut twin = make(Workers::with_count(workers));
            let mut door = make(Workers::with_count(workers));
            for round in 0..2 {
                let updates = honest(round);
                for update in &updates {
                    assert!(twin.offer(update.clone()).unwrap().is_admitted());
                }
                for (i, update) in updates.into_iter().enumerate() {
                    if round == 0 && i == 3 {
                        let pending = door.pending();
                        for offer in [
                            Update::encoded(ClientId::new(40), view.clone(), weight),
                            Update::remote_bytes(view.wire().to_vec(), weight, true),
                        ] {
                            let refused = door.offer(offer).unwrap_err();
                            assert!(matches!(refused, LiflError::Codec(_)), "{refused}");
                            assert_eq!(door.pending(), pending);
                        }
                    }
                    assert!(door.offer(update).unwrap().is_admitted());
                }
                assert_eq!(
                    door.round(),
                    twin.round(),
                    "round {round}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn a_session_refuses_an_overflowing_fold_factor() {
        an_overflowing_factor_is_refused(|workers| {
            crate::session::SessionBuilder::new()
                .topology(Topology::new(vec![2, 2, 2]).unwrap())
                .codec(CodecKind::Uniform8)
                .workers(workers)
                .build()
                .unwrap()
        });
    }

    #[test]
    fn a_cluster_refuses_an_overflowing_fold_factor() {
        an_overflowing_factor_is_refused(|workers| {
            crate::cluster::ClusterBuilder::new()
                .topology(Topology::new(vec![2, 2, 2]).unwrap())
                .codec(CodecKind::Uniform8)
                .build_on(workers)
                .unwrap()
        });
    }
}
