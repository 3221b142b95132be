//! Bounded per-leaf admission queues for the streaming ingress path.
//!
//! When a round is full, `Session::try_ingest` / `Cluster::try_ingest` park
//! the offered update here (through the park rule of `crate::ingress`)
//! instead of erroring: each leaf aggregator owns a bounded queue whose slot
//! and byte budgets are enforced by a pool-backed [`PooledBacklog`], so a
//! million clients hammering a full round cost O(queue caps) memory, never
//! O(clients). When the next round opens, queued
//! offers are drained in Oort-utility order — the highest-utility clients
//! win admission under pressure, ties broken by arrival order — and their
//! payloads move into the shared-memory store without a copy: the pooled
//! backlog buffer becomes the stored object and returns to the pool when the
//! object is recycled.
//!
//! Everything here is deterministic (covered by `lifl-lint` R5): offers are
//! sequence-numbered, utilities live in a [`BTreeMap`], and drain order is a
//! total order over `(utility, seq)`, so the same offer trace always admits
//! the same clients in the same order.

use lifl_shmem::{BufferPool, PooledBacklog};
use lifl_types::{AdmissionConfig, AdmissionOutcome, ClientId};
use std::collections::{BTreeMap, VecDeque};

/// Utility assigned to a client that has never reported feedback: Oort's
/// optimistic prior, so unexplored clients are not starved.
const UNEXPLORED_UTILITY: f64 = 1.0;

/// One parked offer: a client update in wire form, waiting for the next
/// round to open.
#[derive(Debug)]
pub struct QueuedOffer {
    /// Producing client, when known (`None` for anonymous remote bytes).
    pub client: Option<ClientId>,
    /// Wire-form payload: headerless little-endian `f32` bytes when
    /// `encoded` is false, a self-describing encoded wire string otherwise.
    pub payload: Vec<u8>,
    /// Fold weight (training samples).
    pub weight: u64,
    /// Whether `payload` is a codec-encoded wire string.
    pub encoded: bool,
    /// Global arrival sequence number (FIFO tiebreak and leaf routing).
    pub seq: u64,
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
    /// Oort-style utility score per client; absent clients score
    /// [`UNEXPLORED_UTILITY`].
    utilities: BTreeMap<ClientId, f64>,
    seq: u64,
    stats: AdmissionStats,
}

impl AdmissionQueues {
    /// Creates one bounded queue per leaf, all drawing payload buffers from
    /// `pool`.
    pub fn new(config: AdmissionConfig, leaves: usize, pool: BufferPool) -> AdmissionQueues {
        let queues = (0..leaves.max(1))
            .map(|_| LeafQueue::new(pool.clone(), &config))
            .collect();
        AdmissionQueues {
            config,
            queues,
            utilities: BTreeMap::new(),
            seq: 0,
            stats: AdmissionStats::default(),
        }
    }

    /// The configured caps and round-close policy.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Records a client's Oort utility score (√samples × loss shape,
    /// computed by the selector); it decides drain priority from now on.
    pub fn record_utility(&mut self, client: ClientId, utility: f64) {
        self.utilities.insert(client, utility);
    }

    /// The drain priority an offer from `client` would queue with.
    pub fn utility_of(&self, client: Option<ClientId>) -> f64 {
        client
            .and_then(|c| self.utilities.get(&c).copied())
            .unwrap_or(UNEXPLORED_UTILITY)
    }

    /// Parks one offer in its leaf queue (leaf `seq % leaves`). Returns
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
        let seq = self.seq;
        let leaf = (seq as usize) % self.queues.len();
        let Some(queue) = self.queues.get_mut(leaf) else {
            return self.refuse();
        };
        let Some(stored) = queue.backlog.try_store(payload) else {
            return self.refuse();
        };
        self.seq += 1;
        queue.offers.push_back(QueuedOffer {
            client,
            payload: stored,
            weight,
            encoded,
            seq,
        });
        let depth = queue.offers.len();
        self.stats.queued += 1;
        self.stats.peak_queued = self.stats.peak_queued.max(self.total_queued());
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.total_bytes());
        AdmissionOutcome::Queued { depth }
    }

    /// Whether the next offer, `len` payload bytes long, fits its leaf
    /// queue's slot and byte budgets — the decision [`AdmissionQueues::offer`]
    /// makes, taken before the payload exists (a lossy offer is encoded
    /// only once it is known to fit).
    pub(crate) fn would_queue(&self, len: usize) -> bool {
        let leaf = (self.seq as usize) % self.queues.len();
        self.queues
            .get(leaf)
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
    /// priority. The offer's budget charge is withdrawn (its payload is
    /// about to move into the object store, not back to the pool).
    pub fn take_best(&mut self) -> Option<QueuedOffer> {
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
        let queue = self.queues.get_mut(qi)?;
        let offer = queue.offers.remove(oi)?;
        queue.backlog.withdraw(offer.payload.len());
        self.stats.drained += 1;
        Some(offer)
    }

    /// Reclassifies the offer [`AdmissionQueues::take_best`] just handed out
    /// as dropped rather than drained: it failed to enter a round. (Its
    /// buffer travels behind a pool-returning owner and is already home.)
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
                    queue.backlog.release(offer.payload);
                    removed += 1;
                }
            }
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
        self.queues.iter().map(|q| q.offers.len()).sum()
    }

    /// Total parked payload bytes across all queues.
    pub fn total_bytes(&self) -> usize {
        self.queues
            .iter()
            .map(|q| q.backlog.stats().used_bytes)
            .sum()
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
        assert_eq!(q.total_bytes(), 32);
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
        assert_eq!(q.total_bytes(), 0);
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
