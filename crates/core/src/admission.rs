//! Bounded per-leaf admission queues for the streaming ingress path.
//!
//! When a round is full, `Session::try_ingest` / `Cluster::try_ingest` park
//! the offered update here (through the park rule of `crate::ingress`)
//! instead of erroring: each leaf aggregator owns a bounded queue whose slot
//! and byte budgets are enforced by a [`PooledBacklog`], so a million
//! clients hammering a full round cost O(queue caps) memory, never
//! O(clients). A parked update keeps the buffer it was offered in — a dense
//! model its client's vector, an encoded update its one wire buffer —
//! charged at its wire length; only remote bytes, which may be a window on
//! foreign memory, are copied into a pooled backlog buffer. When the next
//! round opens, queued offers are drained in Oort-utility order — the
//! highest-utility clients win admission under pressure, ties broken by
//! arrival order — and each moves into the shared-memory store as it
//! parked, without a copy.
//!
//! Everything here is deterministic (no hash order or wall clock reaches it:
//! clippy's `disallowed_types`/`disallowed_methods`): offers are
//! sequence-numbered, utilities live in a [`BTreeMap`] (bounded by the queue
//! budget, evicted in record order), and drain order is a
//! total order over `(utility, seq)`, so the same offer trace always admits
//! the same clients in the same order.

use lifl_fl::update::Update;
use lifl_shmem::{BufferPool, PooledBacklog};
use lifl_types::{AdmissionConfig, AdmissionOutcome, ClientId};
use std::collections::{BTreeMap, VecDeque};

/// Utility assigned to a client that has never reported feedback: Oort's
/// optimistic prior, so unexplored clients are not starved.
const UNEXPLORED_UTILITY: f64 = 1.0;

/// How many client utility scores the queues keep per slot of their total
/// budget (the queue count times `AdmissionConfig::queue_slots`).
///
/// A score only matters while its client has an offer parked, and at most
/// one total budget of offers is parked at once, so one score per slot
/// would cover every parked offer if clients reported feedback just before
/// parking. They report it rounds earlier, and a queue turns over once per
/// round, so eight budgets keep a score alive for several rounds of churn.
/// The map is then bounded by configuration, not by the number of clients
/// ever scored. When it is full, the least recently recorded client is
/// evicted, in record order; an evicted client scores
/// [`UNEXPLORED_UTILITY`], as a never-scored one does.
const UTILITIES_PER_SLOT: usize = 8;

/// One parked offer, waiting for the next round to open: either an update
/// the engine's ingress parked in the buffer it was offered in, or wire
/// bytes copied into a pooled backlog buffer ([`AdmissionQueues::offer`]).
#[derive(Debug)]
pub struct QueuedOffer {
    /// Producing client, when known (`None` for anonymous remote bytes).
    pub client: Option<ClientId>,
    /// Wire-form payload of an offer copied in as bytes: headerless
    /// little-endian `f32` bytes when `encoded` is false, a self-describing
    /// encoded wire string otherwise. Empty (and unallocated) when `update`
    /// holds the offer.
    pub payload: Vec<u8>,
    /// The update as it was parked, in the buffer it was offered in (a
    /// `Dense` or `Encoded` update); `None` for an offer copied in as bytes.
    pub update: Option<Update>,
    /// Fold weight (training samples).
    pub weight: u64,
    /// Whether the offer is codec-encoded.
    pub encoded: bool,
    /// Global arrival sequence number (FIFO tiebreak and leaf routing).
    pub seq: u64,
}

impl QueuedOffer {
    /// The wire length the offer is charged at: the copied payload's, or
    /// that of the held update's wire form (little-endian `f32` bytes of a
    /// dense model, `[descriptor | body]` of an encoded update).
    fn wire_len(&self) -> usize {
        self.update.as_ref().map_or(self.payload.len(), held_len)
    }
}

/// The wire length of an update held in its own buffer.
fn held_len(update: &Update) -> usize {
    match update {
        Update::Dense(dense) => dense.model.dim() * 4,
        Update::Encoded { update, .. } => update.wire().len(),
        Update::RemoteBytes { wire, .. } => wire.len(),
    }
}

/// One parked offer's place in the drain order.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    utility: f64,
    seq: u64,
    leaf: usize,
}

/// Lifetime counters for one [`AdmissionQueues`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Offers parked in a queue.
    pub queued: u64,
    /// Offers turned away because a queue budget was exhausted.
    pub rejected: u64,
    /// Offers drained into a round.
    pub drained: u64,
    /// Offers dropped without admission (departed clients, discarded
    /// backlogs, queue re-bucketing overflow, offers that failed to enter
    /// the round they were drained for).
    pub dropped: u64,
    /// High-water mark of parked offers across all queues.
    pub peak_queued: usize,
    /// High-water mark of parked payload bytes across all queues.
    pub peak_bytes: usize,
}

#[derive(Debug)]
struct LeafQueue {
    backlog: PooledBacklog,
    offers: VecDeque<QueuedOffer>,
}

impl LeafQueue {
    fn new(pool: BufferPool, config: &AdmissionConfig) -> LeafQueue {
        LeafQueue {
            backlog: PooledBacklog::new(pool, config.queue_slots, config.queue_bytes),
            offers: VecDeque::new(),
        }
    }
}

/// The bounded per-leaf admission queues of one session or cluster: offers
/// route to leaf `seq % leaves` for cap accounting, and drain globally in
/// `(utility desc, seq asc)` order.
#[derive(Debug)]
pub struct AdmissionQueues {
    config: AdmissionConfig,
    queues: Vec<LeafQueue>,
    /// Oort-style utility score per client, with the stamp of its last
    /// record; absent clients score [`UNEXPLORED_UTILITY`]. At most
    /// `max_utilities` entries.
    utilities: BTreeMap<ClientId, (f64, u64)>,
    /// The scored clients by record stamp, oldest first: eviction order.
    recorded: BTreeMap<u64, ClientId>,
    /// Record stamps handed out so far.
    records: u64,
    /// [`UTILITIES_PER_SLOT`] times the queues' total slot budget.
    max_utilities: usize,
    seq: u64,
    /// Parked offers across all queues.
    queued: usize,
    /// Parked payload bytes (wire lengths) across all queues.
    bytes: usize,
    /// The parked offers in drain order, best last, while `ranked`; an
    /// offer, a recorded score or a removed offer clears `ranked`, and the
    /// next [`AdmissionQueues::take_best`] ranks every parked offer again.
    order: Vec<Ranked>,
    ranked: bool,
    stats: AdmissionStats,
}

impl AdmissionQueues {
    /// Creates one bounded queue per leaf, all drawing payload buffers from
    /// `pool`.
    pub fn new(config: AdmissionConfig, leaves: usize, pool: BufferPool) -> AdmissionQueues {
        let queues: Vec<LeafQueue> = (0..leaves.max(1))
            .map(|_| LeafQueue::new(pool.clone(), &config))
            .collect();
        let slots = queues.len().saturating_mul(config.queue_slots);
        AdmissionQueues {
            config,
            queues,
            utilities: BTreeMap::new(),
            recorded: BTreeMap::new(),
            records: 0,
            max_utilities: UTILITIES_PER_SLOT.saturating_mul(slots),
            seq: 0,
            queued: 0,
            bytes: 0,
            order: Vec::new(),
            ranked: false,
            stats: AdmissionStats::default(),
        }
    }

    /// The configured caps and round-close policy.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Records a client's Oort utility score (√samples × loss shape,
    /// computed by the selector); it decides drain priority from now on, or
    /// until the bound on kept scores evicts it (the least recently recorded
    /// client goes first, and then scores as a never-scored one).
    pub fn record_utility(&mut self, client: ClientId, utility: f64) {
        let stamp = self.records;
        self.records += 1;
        if let Some((_, previous)) = self.utilities.insert(client, (utility, stamp)) {
            self.recorded.remove(&previous);
        }
        self.recorded.insert(stamp, client);
        if self.utilities.len() > self.max_utilities {
            if let Some((_, oldest)) = self.recorded.pop_first() {
                self.utilities.remove(&oldest);
            }
        }
        self.ranked = false;
    }

    /// The drain priority an offer from `client` would queue with.
    pub fn utility_of(&self, client: Option<ClientId>) -> f64 {
        client
            .and_then(|c| self.utilities.get(&c))
            .map_or(UNEXPLORED_UTILITY, |&(utility, _)| utility)
    }

    /// Parks one offer in its leaf queue (leaf `seq % leaves`), copying its
    /// wire-form `payload` into a pooled backlog buffer. Returns
    /// `Queued{depth}` with the queue's occupancy after the push, or
    /// `Rejected{retry_after}` when the leaf's slot or byte budget is
    /// exhausted. Never returns `Admitted` — admission into an open round is
    /// the caller's fast path.
    pub fn offer(
        &mut self,
        client: Option<ClientId>,
        payload: &[u8],
        weight: u64,
        encoded: bool,
    ) -> AdmissionOutcome {
        let leaf = self.next_leaf();
        let stored = self
            .queues
            .get_mut(leaf)
            .and_then(|queue| queue.backlog.try_store(payload));
        let Some(payload) = stored else {
            return self.refuse();
        };
        self.push(
            leaf,
            QueuedOffer {
                client,
                payload,
                update: None,
                weight,
                encoded,
                seq: self.seq,
            },
        )
    }

    /// Parks a normalised update in its leaf queue, as
    /// [`AdmissionQueues::offer`] parks bytes, but in the buffer it was
    /// offered in: a dense update keeps its client's vector and an encoded
    /// one its wire buffer, charged at the wire length with no copy. Remote
    /// bytes are the exception: they are copied into a pooled backlog
    /// buffer (as [`AdmissionQueues::offer`] does), because their `Bytes`
    /// may be a window on a larger foreign allocation that the byte budget
    /// would not bound. A refused update is dropped, which sends an encoded
    /// one's pooled buffer home.
    pub(crate) fn park(&mut self, update: Update) -> AdmissionOutcome {
        let encoded = match &update {
            Update::Dense(_) => false,
            Update::Encoded { .. } => true,
            Update::RemoteBytes {
                wire,
                weight,
                encoded,
            } => return self.offer(None, wire, *weight, *encoded),
        };
        let leaf = self.next_leaf();
        let len = held_len(&update);
        let charged = self
            .queues
            .get_mut(leaf)
            .is_some_and(|queue| queue.backlog.try_charge(len));
        if !charged {
            return self.refuse();
        }
        self.push(
            leaf,
            QueuedOffer {
                client: update.client(),
                payload: Vec::new(),
                weight: update.weight(),
                update: Some(update),
                encoded,
                seq: self.seq,
            },
        )
    }

    /// The leaf queue the next offer routes to.
    fn next_leaf(&self) -> usize {
        (self.seq as usize) % self.queues.len()
    }

    /// Appends an offer already charged to `leaf`'s backlog and books it.
    fn push(&mut self, leaf: usize, offer: QueuedOffer) -> AdmissionOutcome {
        let len = offer.wire_len();
        let Some(queue) = self.queues.get_mut(leaf) else {
            return self.refuse();
        };
        queue.offers.push_back(offer);
        let depth = queue.offers.len();
        self.seq += 1;
        self.queued += 1;
        self.bytes += len;
        self.ranked = false;
        self.stats.queued += 1;
        self.stats.peak_queued = self.stats.peak_queued.max(self.queued);
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.bytes);
        AdmissionOutcome::Queued { depth }
    }

    /// Whether the next offer, `len` payload bytes long, fits its leaf
    /// queue's slot and byte budgets — the decision [`AdmissionQueues::offer`]
    /// makes, taken before the payload exists (a lossy offer is encoded
    /// only once it is known to fit).
    pub(crate) fn would_queue(&self, len: usize) -> bool {
        self.queues
            .get(self.next_leaf())
            .is_some_and(|queue| queue.backlog.would_admit(len))
    }

    /// Turns the next offer away, as [`AdmissionQueues::offer`] does when its
    /// budget is exhausted: it takes its arrival number and counts as
    /// rejected.
    pub(crate) fn refuse(&mut self) -> AdmissionOutcome {
        self.seq += 1;
        self.stats.rejected += 1;
        AdmissionOutcome::Rejected {
            retry_after: self.config.retry_after,
        }
    }

    /// Removes and returns the globally best parked offer — maximum
    /// `(utility, -seq)`, so higher utility wins and ties go to the earliest
    /// arrival. Utilities are read from the live score map at drain time, so
    /// a score recorded while an offer was parked still decides its
    /// priority: the first take after an offer, a recorded score or a
    /// removed offer ranks every parked offer once, and the takes after it
    /// pop that order. The offer's budget charge is withdrawn (its payload is
    /// about to move into the object store, not back to the pool).
    pub fn take_best(&mut self) -> Option<QueuedOffer> {
        if !self.ranked {
            self.rank();
        }
        let Ranked { leaf, seq, .. } = self.order.pop()?;
        // A leaf's offers stay in arrival order.
        let queue = self.queues.get(leaf)?;
        let at = queue.offers.binary_search_by_key(&seq, |o| o.seq).ok()?;
        self.remove_taken(leaf, at)
    }

    /// Ranks every parked offer into `order`, best last: ascending by
    /// utility, and among equal utilities by descending arrival.
    fn rank(&mut self) {
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        for (leaf, queue) in self.queues.iter().enumerate() {
            order.extend(queue.offers.iter().map(|offer| Ranked {
                utility: self.utility_of(offer.client),
                seq: offer.seq,
                leaf,
            }));
        }
        order.sort_unstable_by(|a, b| {
            a.utility
                .total_cmp(&b.utility)
                .then_with(|| b.seq.cmp(&a.seq))
        });
        self.order = order;
        self.ranked = true;
    }

    /// Removes the offer at `at` in `leaf`'s queue as drained, withdrawing
    /// its budget charge.
    fn remove_taken(&mut self, leaf: usize, at: usize) -> Option<QueuedOffer> {
        let queue = self.queues.get_mut(leaf)?;
        let offer = queue.offers.remove(at)?;
        let len = offer.wire_len();
        queue.backlog.withdraw(len);
        self.queued -= 1;
        self.bytes -= len;
        self.stats.drained += 1;
        Some(offer)
    }

    /// [`AdmissionQueues::take_best`] as it was first written — a scan of
    /// every parked offer per take, one score lookup each — kept as the
    /// oracle of the ranked drain.
    #[cfg(test)]
    fn take_best_by_scan(&mut self) -> Option<QueuedOffer> {
        let mut best: Option<(usize, usize, f64)> = None;
        for (qi, queue) in self.queues.iter().enumerate() {
            for (oi, offer) in queue.offers.iter().enumerate() {
                let utility = self.utility_of(offer.client);
                let better = match best {
                    None => true,
                    Some((bqi, boi, incumbent_utility)) => {
                        let incumbent = &self.queues[bqi].offers[boi];
                        match utility.total_cmp(&incumbent_utility) {
                            std::cmp::Ordering::Greater => true,
                            std::cmp::Ordering::Less => false,
                            std::cmp::Ordering::Equal => offer.seq < incumbent.seq,
                        }
                    }
                };
                if better {
                    best = Some((qi, oi, utility));
                }
            }
        }
        let (qi, oi, _) = best?;
        self.ranked = false;
        self.remove_taken(qi, oi)
    }

    /// Reclassifies the offer [`AdmissionQueues::take_best`] just handed out
    /// as dropped rather than drained: it failed to enter a round. (Its
    /// buffer went with the refused update, as a refused direct offer's
    /// does: a pooled one is already home.)
    pub(crate) fn drop_taken(&mut self) {
        self.stats.drained = self.stats.drained.saturating_sub(1);
        self.stats.dropped += 1;
    }

    /// Drops every parked offer from `client` (mid-round churn: a departed
    /// client's queued offers must not win admission later). Returns how many
    /// offers were dropped.
    pub fn remove_client(&mut self, client: ClientId) -> usize {
        let mut removed = 0;
        for queue in &mut self.queues {
            while let Some(pos) = queue.offers.iter().position(|o| o.client == Some(client)) {
                if let Some(offer) = queue.offers.remove(pos) {
                    let len = offer.wire_len();
                    match offer.update {
                        // The held update goes with its own buffer.
                        Some(_) => queue.backlog.withdraw(len),
                        None => queue.backlog.release(offer.payload),
                    }
                    self.bytes -= len;
                    removed += 1;
                }
            }
        }
        self.queued -= removed;
        if removed > 0 {
            self.ranked = false;
        }
        self.stats.dropped += removed as u64;
        removed
    }

    /// Occupancy of every leaf queue, in leaf order.
    pub fn depths(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.offers.len()).collect()
    }

    /// Total parked offers across all queues.
    pub fn total_queued(&self) -> usize {
        self.queued
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues(slots: usize, bytes: usize, leaves: usize) -> AdmissionQueues {
        AdmissionQueues::new(
            AdmissionConfig::bounded(slots, bytes),
            leaves,
            BufferPool::new(),
        )
    }

    #[test]
    fn offers_round_robin_leaves_and_report_depth() {
        let mut q = queues(4, 1024, 2);
        for i in 0..4u64 {
            let outcome = q.offer(Some(ClientId::new(i)), &[i as u8; 8], 1, false);
            // Offers 0,2 land on leaf 0; 1,3 on leaf 1 — each reports its
            // own queue's depth.
            assert_eq!(
                outcome,
                AdmissionOutcome::Queued {
                    depth: (i / 2 + 1) as usize
                }
            );
        }
        assert_eq!(q.depths(), vec![2, 2]);
        assert_eq!(q.total_queued(), 4);
        assert_eq!(q.bytes, 32);
    }

    #[test]
    fn slot_and_byte_budgets_reject() {
        let mut q = queues(1, 1024, 1);
        assert!(q.offer(None, &[0u8; 8], 1, false).is_queued());
        assert!(q.offer(None, &[0u8; 8], 1, false).is_rejected());
        let mut q = queues(8, 10, 1);
        assert!(q.offer(None, &[0u8; 8], 1, false).is_queued());
        assert!(q.offer(None, &[0u8; 8], 1, false).is_rejected());
        assert_eq!(q.stats().rejected, 1);
    }

    #[test]
    fn drain_order_is_utility_then_arrival() {
        let mut q = queues(8, 4096, 2);
        q.record_utility(ClientId::new(1), 0.5);
        q.record_utility(ClientId::new(2), 2.0);
        for i in 0..4u64 {
            q.offer(Some(ClientId::new(i)), &[i as u8; 4], 1, false);
        }
        // Client 2 has the highest utility; clients 0 and 3 are unexplored
        // (1.0) and drain in arrival order; client 1 (0.5) drains last.
        let order: Vec<u64> = std::iter::from_fn(|| q.take_best())
            .map(|o| o.client.map_or(u64::MAX, |c| c.index()))
            .collect();
        assert_eq!(order, vec![2, 0, 3, 1]);
        assert_eq!(q.total_queued(), 0);
        assert_eq!(q.stats().drained, 4);
        assert_eq!(q.bytes, 0);
    }

    /// The drain is ranked once, but a score recorded or a client removed
    /// mid-drain still decides what the drain takes next.
    #[test]
    fn a_score_or_a_removal_mid_drain_reranks() {
        let mut q = queues(8, 4096, 2);
        for c in 0..4u64 {
            q.offer(Some(ClientId::new(c)), &[c as u8; 4], 1, false);
        }
        let next = |q: &mut AdmissionQueues| q.take_best().and_then(|o| o.client);
        // Every client unexplored: arrival order.
        assert_eq!(next(&mut q), Some(ClientId::new(0)));
        q.record_utility(ClientId::new(3), 2.0);
        assert_eq!(next(&mut q), Some(ClientId::new(3)));
        assert_eq!(q.remove_client(ClientId::new(1)), 1);
        assert_eq!(next(&mut q), Some(ClientId::new(2)));
        assert_eq!(next(&mut q), None);
        assert_eq!(q.stats().drained, 3);
    }

    /// Past the bound the least recently recorded client is evicted and
    /// drains like one never scored; a re-recorded client counts as recent.
    #[test]
    fn utilities_evict_the_least_recently_recorded_client() {
        // 2 queues of 2 slots: 8 × 4 = 32 scores.
        let mut q = queues(2, 4096, 2);
        let bound = UTILITIES_PER_SLOT * 2 * 2;
        for c in 0..bound as u64 {
            q.record_utility(ClientId::new(c), 2.0 + c as f64);
        }
        // Client 0 reports again, so client 1 is now the oldest record.
        q.record_utility(ClientId::new(0), 50.0);
        q.record_utility(ClientId::new(100), 0.5);
        assert_eq!(q.utilities.len(), bound);
        assert_eq!(q.recorded.len(), bound);
        assert_eq!(q.utility_of(Some(ClientId::new(1))), UNEXPLORED_UTILITY);
        assert_eq!(q.utility_of(Some(ClientId::new(0))), 50.0);
        assert_eq!(q.utility_of(Some(ClientId::new(2))), 4.0);
        // Evicted client 1 ties never-scored client 200 and drains in
        // arrival order behind the survivors, which keep theirs.
        for c in [1, 2, 200, 0] {
            assert!(q
                .offer(Some(ClientId::new(c)), &[c as u8; 4], 1, false)
                .is_queued());
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.take_best())
            .map(|o| o.client.map_or(u64::MAX, |c| c.index()))
            .collect();
        assert_eq!(order, vec![0, 2, 1, 200]);
    }

    #[test]
    fn remove_client_drops_only_their_offers() {
        let mut q = queues(8, 4096, 1);
        q.offer(Some(ClientId::new(1)), &[1u8; 4], 1, false);
        q.offer(Some(ClientId::new(2)), &[2u8; 4], 1, false);
        q.offer(Some(ClientId::new(1)), &[3u8; 4], 1, false);
        assert_eq!(q.remove_client(ClientId::new(1)), 2);
        assert_eq!(q.total_queued(), 1);
        let survivor = q.take_best().expect("client 2 remains");
        assert_eq!(survivor.client, Some(ClientId::new(2)));
        assert_eq!(survivor.payload, vec![2u8; 4]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use lifl_fl::DenseModel;
    use proptest::prelude::*;

    /// What one offer or drain step observes: the offer's outcome, or the
    /// `(client, seq, wire length)` of each offer taken.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Offered(AdmissionOutcome),
        Taken(Vec<(Option<ClientId>, u64, usize)>),
        Removed(usize),
    }

    /// Takes up to `count` offers from `q` with `take`.
    fn drain(
        q: &mut AdmissionQueues,
        count: usize,
        take: fn(&mut AdmissionQueues) -> Option<QueuedOffer>,
    ) -> Vec<(Option<ClientId>, u64, usize)> {
        std::iter::from_fn(|| take(q))
            .take(count)
            .map(|o| (o.client, o.seq, o.wire_len()))
            .collect()
    }

    /// Applies one generated operation to `q`, draining with `take`.
    fn step(
        q: &mut AdmissionQueues,
        (kind, client, param): (u8, u64, usize),
        take: fn(&mut AdmissionQueues) -> Option<QueuedOffer>,
    ) -> Option<Seen> {
        // Client 11 stands for anonymous remote bytes.
        let id = (client != 11).then(|| ClientId::new(client));
        match kind {
            0 | 1 => Some(Seen::Offered(q.offer(
                id,
                &vec![client as u8; param + 1],
                1,
                false,
            ))),
            2 | 3 => {
                let model = DenseModel::from_vec(vec![0.5; param / 4 + 1]);
                let update = Update::dense(ClientId::new(client), model, 2);
                Some(Seen::Offered(q.park(update)))
            }
            4 | 5 => {
                // Few distinct scores, so equal utilities are common.
                q.record_utility(ClientId::new(client), [0.5, 1.0, 2.0, 1.0][param % 4]);
                None
            }
            6 => Some(Seen::Removed(q.remove_client(ClientId::new(client)))),
            _ => Some(Seen::Taken(drain(q, param % 6, take))),
        }
    }

    proptest! {
        /// The ranked drain takes exactly the offers, in exactly the order,
        /// that a scan of every parked offer per take does, across offers
        /// copied and held, equal utilities, scores recorded (and evicted)
        /// while offers are parked, removals and partial drains — and keeps
        /// the same counters.
        #[test]
        fn the_ranked_drain_is_the_scan(
            (leaves, slots, bytes) in (1usize..4, 1usize..6, 16usize..512),
            ops in proptest::collection::vec((0u8..9, 0u64..12, 0usize..40), 1..160),
        ) {
            let config = AdmissionConfig::bounded(slots, bytes);
            let mut ranked = AdmissionQueues::new(config, leaves, BufferPool::new());
            let mut scan = AdmissionQueues::new(config, leaves, BufferPool::new());
            for op in ops {
                prop_assert_eq!(
                    step(&mut ranked, op, AdmissionQueues::take_best),
                    step(&mut scan, op, AdmissionQueues::take_best_by_scan)
                );
                prop_assert_eq!(ranked.stats(), scan.stats());
                prop_assert_eq!(ranked.depths(), scan.depths());
                prop_assert_eq!(ranked.total_queued(), scan.total_queued());
                prop_assert_eq!(ranked.bytes, scan.bytes);
            }
            prop_assert_eq!(
                drain(&mut ranked, usize::MAX, AdmissionQueues::take_best),
                drain(&mut scan, usize::MAX, AdmissionQueues::take_best_by_scan)
            );
            prop_assert_eq!(ranked.stats(), scan.stats());
            prop_assert_eq!(ranked.bytes, 0);
        }
    }
}
