//! The unified session API: one builder-driven, codec-transparent entry point
//! for N-level hierarchical aggregation.
//!
//! Before this module, the in-process runtime had forked into parallel
//! codec-blind and codec-aware free functions (plus four `Gateway::ingest_*`
//! variants) and the tree shape was hard-wired to two levels. A [`Session`]
//! owns the whole stack — gateway, shared-memory store, scratch pool,
//! error-feedback encoder and the aggregator tree described by a
//! [`Topology`] — behind exactly two operations:
//!
//! * [`Session::try_ingest`] — the single polymorphic ingress (and
//!   [`Session::ingest`], its strict wrapper). Every representation an
//!   update can arrive in ([`Update::Dense`], [`Update::Encoded`],
//!   [`Update::RemoteBytes`]) goes through the same call; under a lossy
//!   codec, dense updates are transparently encoded with per-client error
//!   feedback before they enter shared memory.
//! * [`Session::drive`] — runs the configured tree to completion on the
//!   session's warm stations (the stations of a level shared between the
//!   calling thread and a session-lifetime worker set, every interior level
//!   folding child intermediates in deterministic child order) and returns a
//!   [`SessionReport`].
//!
//! With [`CodecKind::Identity`] and a two-level topology the session is
//! bit-exact with the seed two-level fold semantics (enforced by the
//! proptests below and the `tests/it` tiers); the legacy free functions that
//! used to shim over this type were deleted in PR 6 — see `MIGRATION.md`.

#![deny(missing_docs)]

use crate::admission::AdmissionQueues;
use crate::gateway::Gateway;
use crate::ingress::{self, Backend, Ingress, Target};
use crate::stations::{Stations, Tree, Workers};
use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::codec::{EncodedView, UpdateCodec};
use lifl_fl::DenseModel;
use lifl_shmem::queue::QueuedUpdate;
use lifl_shmem::{BufferPool, ObjectStore, StoreStats};
use lifl_types::{
    AdmissionConfig, AdmissionOutcome, ClientId, CodecKind, FoldPolicy, LiflError, NodeId, Result,
    RoundClose, Topology,
};

pub use lifl_fl::update::Update;

/// Builds a [`Session`]: topology, codec, fold policy, tree position and
/// store/pool injection, with working defaults for all of them.
///
/// ```
/// use lifl_core::session::SessionBuilder;
/// use lifl_types::{CodecKind, Topology};
///
/// let session = SessionBuilder::new()
///     .topology(Topology::new(vec![2, 2, 2]).unwrap()) // 3-level tree
///     .codec(CodecKind::Uniform8)
///     .build()
///     .unwrap();
/// assert_eq!(session.topology().levels(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    topology: Topology,
    codec: CodecKind,
    policy: FoldPolicy,
    level_offset: usize,
    branch: usize,
    store: Option<ObjectStore>,
    pool: Option<BufferPool>,
    admission: Option<AdmissionConfig>,
    round_close: Option<RoundClose>,
    workers: Option<Workers>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuilder {
    /// A builder with the seed defaults: the classic 4×2 two-level tree,
    /// [`CodecKind::Identity`], a fresh shared-memory store and scratch
    /// pool.
    pub fn new() -> Self {
        SessionBuilder {
            topology: Topology::default(),
            codec: CodecKind::Identity,
            policy: FoldPolicy::FedAvg,
            level_offset: 0,
            branch: 0,
            store: None,
            pool: None,
            admission: None,
            round_close: None,
            workers: None,
        }
    }

    /// Sets the aggregation-tree shape (any [`Topology`]; see
    /// [`Topology::two_level`] for the seed shape).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Convenience for the classic two-level tree: `leaves` leaf aggregators
    /// each consuming `updates_per_leaf` client updates.
    pub fn two_level(self, leaves: usize, updates_per_leaf: usize) -> Self {
        self.topology(Topology::two_level(leaves, updates_per_leaf))
    }

    /// Sets the wire codec every update travels with. Lossy codecs encode
    /// dense ingests with per-client error feedback and re-encode every
    /// interior intermediate; `Identity` is bit-exact with the dense path.
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Accepts a shard count and changes nothing: every station drains its
    /// inbox as one cache-blocked batch on the thread that claimed it, and a
    /// level's stations are the session's parallelism. Kept only so the
    /// whole-round benchmark's engine adapter compiles unchanged.
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    /// Sets the fold policy every aggregator in the tree combines updates
    /// with; the session takes it here and from nowhere else. The default
    /// [`FoldPolicy::FedAvg`] is bit-exact with the pre-policy path; robust
    /// policies compute a coordinate-wise statistic per aggregator (each
    /// level's statistic runs over that level's inputs — raw client updates
    /// at the leaves, child intermediates above).
    pub fn fold_policy(mut self, policy: FoldPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Places this session's tree at a position inside a larger,
    /// cluster-spanning tree: the session drives `branch`-th subtree of the
    /// level-`level_offset` layer, so every aggregator identity — and with
    /// it the deterministic per-position codec stream — matches what a
    /// single session over the whole tree would use at the same position.
    /// This is what makes a multi-node round composed over
    /// [`Update::RemoteBytes`] bit-exact with its single-session equivalent
    /// (see [`crate::cluster::ClusterBuilder`], which wires this up).
    ///
    /// The default `(0, 0)` places the session at the origin of its own
    /// tree — the ordinary standalone case.
    ///
    /// ```
    /// use lifl_core::session::SessionBuilder;
    /// use lifl_types::Topology;
    ///
    /// // Node 1 of a cluster drives the second [2, 2] subtree of a global
    /// // [2, 2, 4] tree; a parent session at level 2 folds the node exports.
    /// let child = SessionBuilder::new()
    ///     .topology(Topology::new(vec![2, 2]).unwrap())
    ///     .tree_position(0, 1)
    ///     .build()
    ///     .unwrap();
    /// let parent = SessionBuilder::new()
    ///     .topology(Topology::flat(4))
    ///     .tree_position(2, 0)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(child.topology().total_updates(), 4);
    /// assert_eq!(parent.topology().total_updates(), 4);
    /// ```
    pub fn tree_position(mut self, level_offset: usize, branch: usize) -> Self {
        self.level_offset = level_offset;
        self.branch = branch;
        self
    }

    /// Injects a shared-memory object store (e.g. one shared with other
    /// components on the node) instead of creating a fresh one.
    pub fn store(mut self, store: ObjectStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Injects the scratch-buffer pool the codecs draw encode bodies from,
    /// instead of creating a fresh one.
    pub fn pool(mut self, pool: BufferPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Enables the bounded streaming-admission path: when a round is full,
    /// [`Session::try_ingest`] parks overflow in per-leaf queues capped by
    /// `config` (instead of erroring), queued clients win admission into the
    /// next round by Oort utility, and the round-close policy in `config`
    /// decides whether [`Session::drive`] demands an exact fill or accepts a
    /// quorum. Without this, `try_ingest` rejects overflow outright and
    /// every legacy exact-fill behaviour is unchanged.
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// Sets the rule [`Session::drive`] closes a round by without giving the
    /// session admission queues: how a cluster lets its queue-less node
    /// subtrees (and its top) drive partially filled under a quorum close.
    pub(crate) fn round_close(mut self, close: RoundClose) -> Self {
        self.round_close = Some(close);
        self
    }

    /// Sets the worker set the session's stations run on instead of a fresh
    /// one: how a cluster runs every node session and its top on one set.
    pub(crate) fn workers(mut self, workers: Workers) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Builds the session: one warm station per tree position (registering
    /// a gateway inbox per leaf) and the error-feedback encoder wired to the
    /// scratch pool. The worker threads start at the first drive that has a
    /// level of two or more stations to share.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] for an invalid codec or fold
    /// policy configuration (e.g. `TopK` with a permille outside `1..=1000`,
    /// or a trimmed mean that trims everything).
    pub fn build(self) -> Result<Session> {
        if let CodecKind::TopK { permille } = self.codec {
            if permille == 0 || permille > 1000 {
                return Err(LiflError::InvalidConfig(format!(
                    "TopK permille must be in 1..=1000, got {permille}"
                )));
            }
        }
        self.policy.validate().map_err(LiflError::InvalidConfig)?;
        if let Some(config) = &self.admission {
            config.validate()?;
        }
        let store = self.store.unwrap_or_default();
        let pool = self.pool.unwrap_or_default();
        let workers = self.workers.unwrap_or_else(Workers::new);
        let mut gateway = Gateway::new(NodeId::default(), store.clone());
        let stations = Stations::new(
            &self.topology,
            (self.level_offset, self.branch),
            &mut gateway,
            &UpdateCodec::new(self.codec).with_pool(pool.clone()),
            self.policy,
            workers.clone(),
        )?;
        let leaves = self.topology.leaves();
        let round_close = self
            .round_close
            .or(self.admission.map(|config| config.round_close))
            .unwrap_or(RoundClose::Exact);
        let queues = self
            .admission
            .map(|config| AdmissionQueues::new(config, leaves, pool.clone()));
        Ok(Session {
            topology: self.topology,
            codec: self.codec,
            store,
            ingress: Ingress::new(self.codec, pool.clone(), queues, workers),
            pool,
            gateway,
            stations,
            round_close,
            ingress_wire_bytes: 0,
            round_keys: Vec::new(),
            round_entries: Vec::new(),
        })
    }
}

/// What one driven round produced, beyond the global model: the
/// shared-memory accounting proving what representation actually flowed
/// through the store.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The aggregated global model (decoded to dense parameters).
    pub update: ModelUpdate,
    /// Object-store statistics at the end of the round (encoded puts, real
    /// and dense-equivalent bytes).
    pub store_stats: StoreStats,
    /// Total data-plane payload bytes the ingested updates occupied in their
    /// wire form.
    pub ingress_wire_bytes: u64,
    /// Updates ingested into this round.
    pub updates_ingested: u64,
    /// The tree the round ran over.
    pub topology: Topology,
}

/// One driven round exported in wire form for a cluster hop: what a node's
/// gateway ships to the parent gateway instead of a decoded model.
#[derive(Debug, Clone)]
pub struct WireExport {
    /// The merged subtree update as [`Update::RemoteBytes`]: a zero-copy
    /// handle onto the session store's top intermediate — the
    /// self-describing encoded form under a lossy codec, headerless
    /// little-endian `f32` otherwise — ready for the parent session's
    /// [`Session::ingest`].
    pub update: Update,
    /// Object-store statistics at the end of the round.
    pub store_stats: StoreStats,
    /// Total data-plane payload bytes the round's ingests occupied in wire
    /// form.
    pub ingress_wire_bytes: u64,
    /// Updates ingested into the round.
    pub updates_ingested: u64,
}

impl WireExport {
    /// Payload bytes this export puts on the inter-node wire (the 16-byte
    /// descriptor of an encoded export rides the control channel and is
    /// excluded, consistent with [`Update::wire_bytes`]).
    pub fn wire_bytes(&self) -> u64 {
        self.update.wire_bytes()
    }
}

/// One in-process aggregation session: the gateway, the shared-memory store,
/// the codec state and an N-level aggregator tree behind a single ingress
/// ([`Session::try_ingest`], with [`Session::ingest`] as its strict wrapper)
/// and a single driver ([`Session::drive`]).
///
/// A session is reusable: after [`Session::drive`] returns — successfully or
/// with an aggregation error (which discards the failed round) — the next
/// round's updates can be ingested immediately, and per-client
/// error-feedback residuals persist across rounds, exactly as a long-lived
/// deployment would keep them.
///
/// ```
/// use lifl_core::session::{SessionBuilder, Update};
/// use lifl_fl::DenseModel;
/// use lifl_types::ClientId;
///
/// // 2 leaves × 2 updates each, identity codec (the defaults, shrunk).
/// let mut session = SessionBuilder::new().two_level(2, 2).build().unwrap();
/// for i in 0..4u64 {
///     let model = DenseModel::from_vec(vec![i as f32; 8]);
///     session
///         .ingest(Update::dense(ClientId::new(i), model, i + 1))
///         .unwrap();
/// }
/// let report = session.drive().unwrap();
/// assert_eq!(report.update.samples, 1 + 2 + 3 + 4);
/// assert_eq!(report.update.model.dim(), 8);
/// ```
#[derive(Debug)]
pub struct Session {
    topology: Topology,
    codec: CodecKind,
    store: ObjectStore,
    pool: BufferPool,
    gateway: Gateway,
    /// One warm aggregator runtime per tree position (identities placed by
    /// [`SessionBuilder::tree_position`]) and the workers they run on.
    stations: Stations,
    /// Offer → slot state: error feedback, the round's fill and routing
    /// position (slots are leaves), and the bounded admission queues when
    /// the streaming path is configured ([`SessionBuilder::admission`]).
    ingress: Ingress,
    /// The rule [`Session::drive`] closes a round by.
    round_close: RoundClose,
    ingress_wire_bytes: u64,
    /// Every object key the current round has put into the store (client
    /// payloads at ingest, intermediates per level): recycled when the round
    /// ends so a long-lived session does not grow the store round over round.
    round_keys: Vec<lifl_types::ObjectKey>,
    /// Per-ingest bookkeeping for the current round, in arrival order (what
    /// was delivered to which leaf, and its wire bytes): what mid-round
    /// churn needs to reclaim a departed client's slot, and what a restarted
    /// runtime re-delivers.
    round_entries: Vec<RoundEntry>,
}

/// Per-ingest bookkeeping: enough to reclaim one client's slot mid-round,
/// or to deliver its update again.
#[derive(Debug, Clone, Copy)]
struct RoundEntry {
    /// What the gateway queued for the leaf: producer, payload key, weight
    /// and form.
    queued: QueuedUpdate,
    wire_bytes: u64,
    leaf: usize,
}

impl Session {
    /// The tree this session aggregates over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The shared-memory store backing the session.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The scratch-buffer pool the session's codecs recycle through.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Updates ingested into the current (not yet driven) round.
    pub fn pending_updates(&self) -> u64 {
        self.ingress.ingested()
    }

    /// Whether the open round can still take an update.
    fn has_room(&self) -> bool {
        (self.ingress.ingested() as usize) < self.topology.total_updates()
    }

    /// The strict ingress: [`Session::try_ingest`], with backpressure the
    /// caller did not ask for turned into an error. `Admitted` and `Queued`
    /// are both `Ok` — with an [`SessionBuilder::admission`] configuration,
    /// overflow parks for the next round instead of failing.
    ///
    /// # Errors
    /// Everything [`Session::try_ingest`] fails on, plus
    /// [`LiflError::RoundFull`] when the round is full and the offer could
    /// not be parked (no admission queues, or their budget is exhausted).
    pub fn ingest(&mut self, update: Update) -> Result<()> {
        match self.try_ingest(update)? {
            AdmissionOutcome::Rejected { .. } => Err(LiflError::RoundFull {
                capacity: self.topology.total_updates(),
            }),
            _ => Ok(()),
        }
    }

    /// Ingests a batch of updates in order (see [`Session::ingest`]).
    ///
    /// # Errors
    /// Same conditions as [`Session::ingest`]; updates before the failing one
    /// stay ingested.
    pub fn ingest_all(&mut self, updates: impl IntoIterator<Item = Update>) -> Result<()> {
        for update in updates {
            self.ingest(update)?;
        }
        Ok(())
    }

    /// The single polymorphic ingress — the only ingest implementation:
    /// offers one update in whatever representation it arrived
    /// ([`Update::Dense`], [`Update::Encoded`], [`Update::RemoteBytes`]) and
    /// answers with typed backpressure.
    ///
    /// Every offer is first normalised (one rule for every path, owned by
    /// the crate's ingress module): an update of weight 0 is refused, a
    /// dense or encoded update missing a client id is attributed to its
    /// session-lifetime arrival index, a dense update under a lossy codec is
    /// encoded with the producing client's error-feedback residual so the
    /// compressed form is what enters shared memory, and remote bytes are
    /// validated — encoded ones against the wire contract of
    /// [`lifl_fl::codec::EncodedView::parse`], dense ones as whole `f32`s.
    ///
    /// While the round has room the update is then admitted: routed to the
    /// next leaf aggregator round-robin (update *k* of a round feeds leaf
    /// `k % leaves`, exactly the distribution of the seed two-level runtime;
    /// a leaf vacated by [`Session::depart_client`] refills first) and
    /// stored in its arriving form (one-time payload processing). Once the
    /// round is full the update is parked in a bounded per-leaf queue
    /// (`Queued{depth}`) or, when the queue's slot/byte budget is exhausted,
    /// turned away (`Rejected{retry_after}`). Queued clients win admission
    /// into the next round in Oort-utility order (see
    /// [`Session::record_client_utility`]). Without an
    /// [`SessionBuilder::admission`] configuration there is no backlog and
    /// overflow is rejected, untouched, with a zero retry hint.
    ///
    /// A lossy dense offer is answered at once: its error-feedback encode
    /// runs on the session's workers (the calling thread runs the oldest
    /// waiting encode itself when more wait than there are workers) and
    /// lands in the store in offer order at the latest when the next other
    /// operation — [`Session::drive`] or any non-lossy offer among them —
    /// starts. Until then [`Session::store`] and [`Session::pool`] may not
    /// show it yet; keys, fold order and every bit are those of an inline
    /// encode.
    ///
    /// # Errors
    /// Fails only on store/codec errors (the store cannot hold the payload,
    /// malformed remote bytes) and on a zero weight
    /// ([`LiflError::InvalidAggregationGoal`]); a full round is an outcome,
    /// not an error. A failed offer counts nothing toward the round, parks
    /// nothing and touches nothing: a lossy offer's encoded size is a
    /// function of codec and dimension alone, so the store refuses it —
    /// counting every encode still in flight — before it is encoded, and the
    /// client's residual, the rounding stream and the scratch pool stay
    /// exactly as they were.
    pub fn try_ingest(&mut self, update: Update) -> Result<AdmissionOutcome> {
        ingress::offer(self, update)
    }

    /// Moves one normalised update into the store behind the routed leaf's
    /// inbox and counts it into the round, attributed to `producer`: the
    /// admit step both the direct path and the backlog drain end in, and
    /// the door a cluster uses for the node it picked. The update's buffer
    /// becomes the stored object; nothing is copied.
    ///
    /// # Errors
    /// [`LiflError::RoundFull`] if the round has no room (never parks), or
    /// the gateway's store/codec error; either way the route is rolled back,
    /// nothing is counted, and the update is dropped — a pooled buffer is
    /// back in the pool by the time this returns.
    pub(crate) fn admit(&mut self, update: Update, producer: Option<ClientId>) -> Result<()> {
        self.room()?;
        let route = self.ingress.route(self.cursor_leaf());
        let stored = self.store_into(route.slot, update, producer);
        self.ingress.settle(route, stored.is_ok());
        stored
    }

    /// [`LiflError::RoundFull`] unless the open round can take an update.
    fn room(&self) -> Result<()> {
        if self.has_room() {
            return Ok(());
        }
        Err(LiflError::RoundFull {
            capacity: self.topology.total_updates(),
        })
    }

    /// The leaf the round-robin cursor points at.
    fn cursor_leaf(&self) -> usize {
        (self.ingress.cursor() as usize) % self.topology.leaves()
    }

    /// Stores `update` behind `leaf`'s inbox and books it into the round.
    fn store_into(
        &mut self,
        leaf: usize,
        update: Update,
        producer: Option<ClientId>,
    ) -> Result<()> {
        let target = self.stations.id(0, leaf);
        let wire_bytes = update.wire_bytes();
        let queued = self.gateway.store_and_deliver(target, update, producer)?;
        // Account only what actually entered the round.
        self.ingress_wire_bytes += wire_bytes;
        self.round_keys.push(queued.key);
        self.round_entries.push(RoundEntry {
            queued,
            wire_bytes,
            leaf,
        });
        Ok(())
    }

    /// The summed weight of the updates stored in the open round.
    pub(crate) fn round_weight(&self) -> u64 {
        (self.round_entries.iter()).fold(0, |sum, e| sum.saturating_add(e.queued.weight))
    }

    /// [`Session::admit`] for an update whose payload does not exist yet (a
    /// lossy encode still to run): routes it and counts it into the round
    /// now — or refuses it, touching nothing, exactly when `admit` would
    /// refuse an update of `stored` bytes after `pending` bytes routed
    /// ahead of it have landed. Returns the leaf [`Session::commit`] stores
    /// it behind.
    pub(crate) fn reserve(&mut self, pending: u64, stored: u64) -> Result<usize> {
        self.room()?;
        self.store.fits(pending, stored)?;
        let route = self.ingress.route(self.cursor_leaf());
        let leaf = route.slot;
        self.ingress.settle(route, true);
        Ok(leaf)
    }

    /// Stores an update [`Session::reserve`] routed to `leaf`.
    pub(crate) fn commit(&mut self, leaf: usize, update: Update) -> Result<()> {
        let producer = update.client();
        self.store_into(leaf, update, producer)
    }

    /// Commits every in-flight encode; one that failed discards the round
    /// (reopening it from the backlog) and is returned, as any drive
    /// failure is.
    fn settle(&mut self) -> Result<()> {
        ingress::settle(self);
        match self.ingress.take_failure() {
            None => Ok(()),
            Some(error) => {
                self.reset_round();
                ingress::drain(self);
                Err(error)
            }
        }
    }

    /// Mid-round churn: removes a departed client's update from the current
    /// round (reclaiming its slot and store object) and drops any offers it
    /// has parked in the admission queues. The vacated leaf is refilled from
    /// the backlog when possible — the replacement lands on the departed
    /// client's leaf *behind* the survivors, so every survivor keeps its
    /// position and the surviving fold stays bit-exact. Returns `true` if
    /// anything (slot or queued offer) was reclaimed.
    pub fn depart_client(&mut self, client: ClientId) -> bool {
        ingress::settle(self);
        let mut departed = self.ingress.remove_parked(client);
        while let Some(pos) = self
            .round_entries
            .iter()
            .position(|e| e.queued.producer == Some(client))
        {
            let entry = self.round_entries.remove(pos);
            let key = entry.queued.key;
            let removed = self
                .stations
                .leaf_inbox(entry.leaf)
                .and_then(|inbox| inbox.remove_first(|q| q.key == key));
            if removed.is_none() {
                continue;
            }
            let _ = self.store.recycle(&key);
            if let Some(kpos) = self.round_keys.iter().position(|k| *k == key) {
                self.round_keys.remove(kpos);
            }
            self.ingress_wire_bytes = self.ingress_wire_bytes.saturating_sub(entry.wire_bytes);
            self.ingress.vacate(entry.leaf);
            self.ingress.release(entry.queued.weight);
            departed = true;
        }
        // Refill vacated slots from the backlog (highest utility first).
        ingress::drain(self);
        departed
    }

    /// Records a client's Oort utility score for admission priority (no-op
    /// without an admission configuration).
    pub fn record_client_utility(&mut self, client: ClientId, utility: f64) {
        self.ingress.record_utility(client, utility);
    }

    /// The producing clients of the current round's updates, in arrival
    /// order (`None` for anonymous remote forwards) — lossy offers whose
    /// encode is still in flight included, last, as they will land.
    pub fn round_clients(&self) -> Vec<Option<ClientId>> {
        let stored = self.round_entries.iter().map(|e| e.queued.producer);
        stored
            .chain(self.ingress.in_flight_clients().map(Some))
            .collect()
    }

    /// Total updates parked in the admission queues.
    pub fn queued_updates(&self) -> usize {
        self.ingress.queued()
    }

    /// Lifetime admission counters (zero-default without an admission
    /// configuration).
    pub fn admission_stats(&self) -> crate::admission::AdmissionStats {
        self.ingress.stats()
    }

    /// Drives the configured tree to completion over the ingested updates and
    /// returns the aggregated global model with the round's accounting.
    ///
    /// The tree runs on the session's warm stations, one runtime per
    /// position for the session's life: the calling thread folds a level's
    /// stations beside the session's parked workers, and intermediates are
    /// handed to the next level in child-index order (not completion order),
    /// so results are bit-identical run-to-run whichever thread ran which
    /// station — and, for `Identity`, bit-identical to the seed two-level
    /// path. No thread is started per round.
    ///
    /// # Errors
    /// Fails if the ingested updates do not exactly fill the tree
    /// ([`Topology::validate`] — the round is kept and can be topped up) or
    /// on any store/codec/aggregation error, an ingress encode that failed
    /// included — in which case the partially folded round cannot be
    /// resumed, so its remaining updates are discarded and the session is
    /// reset to an empty round.
    pub fn drive(&mut self) -> Result<SessionReport> {
        self.open()?;
        let top = self.run_tree();
        let report = top
            .and_then(|top| self.decode(top))
            .map(|(model, weight)| SessionReport {
                update: ModelUpdate::intermediate(model, weight),
                store_stats: self.store.stats(),
                ingress_wire_bytes: self.ingress_wire_bytes,
                updates_ingested: self.ingress.ingested(),
                topology: self.topology.clone(),
            });
        self.close();
        report
    }

    /// A drive's first step: commits every in-flight encode, then checks
    /// the round may close. A failure here leaves nothing to close.
    fn open(&mut self) -> Result<()> {
        self.settle()?;
        self.validate_round()
    }

    /// An opened round's tree, as a forest drive runs it
    /// ([`Stations::run`]): a full round runs every position, a partial
    /// (quorum) one only those with something to aggregate.
    fn tree(&mut self) -> Tree<'_> {
        let full = !self.has_room();
        Tree {
            stations: &self.stations,
            full,
            round_keys: &mut self.round_keys,
        }
    }

    /// Runs the opened round's tree as a forest of one.
    fn run_tree(&mut self) -> Result<QueuedUpdate> {
        let top = Stations::run(&mut [self.tree()]).pop();
        top.unwrap_or_else(|| Err(LiflError::Simulation("the tree did not run".to_string())))
    }

    /// A drive's last step, success or aggregation failure: the round is
    /// over, so its store objects and counters are freed and the session
    /// stays bounded over its life; the next round opens at once, queued
    /// clients winning admission in utility order.
    fn close(&mut self) {
        self.reset_round();
        ingress::drain(self);
    }

    /// Drives every session of `sessions` to its wire export — the cluster
    /// round's node subtrees — as one forest on the first session's workers
    /// ([`Stations::run`]): each session is opened, the opened trees run
    /// level by level together, and each is closed to its export. Returns
    /// each session's outcome in order, exactly what
    /// [`Session::drive_to_wire`] on each in turn returns.
    pub(crate) fn drive_forest_to_wire(sessions: &mut [&mut Session]) -> Vec<Result<WireExport>> {
        let opened: Vec<Result<()>> = sessions.iter_mut().map(|session| session.open()).collect();
        let mut forest: Vec<Tree<'_>> = (sessions.iter_mut().zip(&opened))
            .filter(|(_, open)| open.is_ok())
            .map(|(session, _)| session.tree())
            .collect();
        let mut tops = Stations::run(&mut forest).into_iter();
        (sessions.iter_mut().zip(opened))
            .map(|(session, open)| {
                open?;
                let top = tops.next().unwrap_or_else(|| {
                    Err(LiflError::Simulation("the tree did not run".to_string()))
                });
                session.export(top)
            })
            .collect()
    }

    /// Checks the round may close: an exact fill by default, or the
    /// configured quorum under partial participation.
    fn validate_round(&self) -> Result<()> {
        let capacity = self.topology.total_updates();
        (self.round_close).check(&self.topology, capacity, self.ingress.ingested() as usize)
    }

    /// Drives the configured tree to completion like [`Session::drive`], but
    /// exports the merged update as codec-tagged wire bytes instead of
    /// decoding it — the transmit half of a cluster hop. No intermediate
    /// [`DenseModel`] is materialised: the returned [`Update::RemoteBytes`]
    /// shares the store's top-intermediate buffer (the store's objects are
    /// immutable, so the handle stays valid after the round's objects are
    /// recycled), and the parent gateway ingests it after one in-place
    /// wire-contract check.
    ///
    /// # Errors
    /// Same conditions as [`Session::drive`].
    pub fn drive_to_wire(&mut self) -> Result<WireExport> {
        self.open()?;
        let top = self.run_tree();
        self.export(top)
    }

    /// The close step of a drive to wire: the top's intermediate as a
    /// zero-copy export, then [`Session::close`].
    fn export(&mut self, top: Result<QueuedUpdate>) -> Result<WireExport> {
        let export = top.and_then(|result| {
            let object = self.store.get(&result.key)?;
            Ok(WireExport {
                update: Update::remote_bytes(object.bytes(), result.weight, result.encoded),
                store_stats: self.store.stats(),
                ingress_wire_bytes: self.ingress_wire_bytes,
                updates_ingested: self.ingress.ingested(),
            })
        });
        self.close();
        export
    }

    /// Decodes the top's intermediate into the model a drive returns.
    fn decode(&self, result: QueuedUpdate) -> Result<(DenseModel, u64)> {
        let object = self.store.get(&result.key)?;
        let model = if result.encoded {
            // The one remaining full-decode site: parse the header in place
            // and dequantize straight into the output buffer (no body copy).
            let view = EncodedView::parse(object.as_slice())?;
            let mut out = vec![0.0f32; view.dim()];
            view.decode_into(&mut out)?;
            DenseModel::from_vec(out)
        } else {
            DenseModel::from_vec(object.as_f32_vec())
        };
        Ok((model, result.weight))
    }

    /// Discards the current (not yet driven) round: every ingested update is
    /// dropped, its store objects are recycled and the counters are zeroed,
    /// leaving the session ready for a fresh round. Per-client
    /// error-feedback residuals are kept — the discarded round's loss is
    /// re-absorbed if the clients keep sending, exactly as after a failed
    /// [`Session::drive`] (encodes still in flight finish first). Used by a
    /// cluster coordinator to abort sibling nodes' rounds when one node's
    /// drive fails.
    pub fn discard_round(&mut self) {
        ingress::settle(self);
        self.reset_round();
    }

    /// Returns the session to an empty round: drains whatever a failed (or
    /// finished) round left in the station inboxes, recycles every store
    /// object the round created (only this round's keys — an injected shared
    /// store's other objects are untouched) and zeroes the counters. Nothing
    /// is in flight: every caller has settled.
    fn reset_round(&mut self) {
        self.stations.clear();
        for key in self.round_keys.drain(..) {
            let _ = self.store.recycle(&key);
        }
        self.ingress.reset_round();
        self.ingress_wire_bytes = 0;
        self.round_entries.clear();
    }

    /// Restarts the session's aggregator runtimes after their process died
    /// between drives: whatever the station inboxes held is gone, and every
    /// update of the open round is delivered again, from the key it is
    /// stored under, to the leaf it was routed to, in arrival order — so
    /// each leaf folds the same keys in the same order as before the crash.
    /// The store's objects, the round's routing and its counters are the
    /// node's, not the runtime's, and are untouched: nothing is copied,
    /// re-normalised or re-encoded. The caller has settled.
    pub(crate) fn restart(&mut self) {
        self.stations.clear();
        for entry in &self.round_entries {
            if let Some(inbox) = self.stations.leaf_inbox(entry.leaf) {
                inbox.enqueue(entry.queued);
            }
        }
    }

    /// Every station's identity (see `Stations::checked_ids`).
    #[cfg(test)]
    pub(crate) fn station_ids(&mut self) -> Vec<lifl_types::AggregatorId> {
        self.stations.checked_ids(&mut self.gateway)
    }

    /// Settles, then the stored bytes of every update of the open round, in
    /// arrival order.
    #[cfg(test)]
    pub(crate) fn stored_wires(&mut self) -> Vec<Vec<u8>> {
        ingress::settle(self);
        let stored =
            |e: &RoundEntry| (self.store.get(&e.queued.key)).map(|o| o.as_slice().to_vec());
        self.round_entries
            .iter()
            .map(|e| stored(e).unwrap_or_default())
            .collect()
    }

    /// Settles, then `client`'s residual as bits.
    #[cfg(test)]
    pub(crate) fn residual_bits(&mut self, client: ClientId) -> Option<Vec<u32>> {
        ingress::settle(self);
        self.ingress.residual_bits(client)
    }
}

/// The session's side of the one ingest implementation: its slots are its
/// leaves, all behind one store.
impl Backend for Session {
    fn ingress(&mut self) -> &mut Ingress {
        &mut self.ingress
    }

    fn has_room(&self) -> bool {
        Session::has_room(self)
    }

    fn admit(&mut self, update: Update, producer: Option<ClientId>) -> Result<()> {
        Session::admit(self, update, producer)
    }

    fn reserve(&mut self, _client: ClientId, stored: u64) -> Result<Target> {
        let pending = self.ingress.in_flight_bytes(None);
        let leaf = Session::reserve(self, pending, stored)?;
        Ok(Target { slot: leaf, leaf })
    }

    fn commit(&mut self, target: Target, update: Update) -> Result<()> {
        Session::commit(self, target.leaf, update)
    }
}

/// A session is an [`Ingest`](lifl_fl::Ingest) backend: the single-node
/// target the multi-round training driver
/// ([`crate::training::TrainingDriver`]) runs over — the reference a
/// federated [`crate::cluster::Cluster`] must (and does) match bit-for-bit.
impl lifl_fl::Ingest for Session {
    fn ingest_update(&mut self, update: Update) -> Result<()> {
        self.ingest(update)
    }

    fn try_ingest(&mut self, update: Update) -> Result<lifl_types::AdmissionOutcome> {
        Session::try_ingest(self, update)
    }

    fn round_capacity(&self) -> usize {
        self.topology.total_updates()
    }

    fn ingress_codec(&self) -> CodecKind {
        self.codec
    }

    fn aggregate_round(&mut self) -> Result<lifl_fl::RoundAggregate> {
        let report = self.drive()?;
        Ok(lifl_fl::RoundAggregate {
            update: report.update,
            ingress_wire_bytes: report.ingress_wire_bytes,
            updates_ingested: report.updates_ingested,
        })
    }

    fn discard_round(&mut self) {
        Session::discard_round(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_fl::aggregate::fedavg;
    use lifl_types::SimDuration;

    fn updates(n: usize, dim: usize) -> Vec<ModelUpdate> {
        (0..n)
            .map(|i| {
                let values: Vec<f32> = (0..dim)
                    .map(|d| ((i * dim + d) % 89) as f32 * 0.05 - 2.0)
                    .collect();
                ModelUpdate::from_client(
                    ClientId::new(i as u64),
                    DenseModel::from_vec(values),
                    (i + 1) as u64,
                )
            })
            .collect()
    }

    fn drive(topology: Topology, codec: CodecKind, updates: &[ModelUpdate]) -> SessionReport {
        let mut session = SessionBuilder::new()
            .topology(topology)
            .codec(codec)
            .build()
            .unwrap();
        session
            .ingest_all(updates.iter().cloned().map(Update::Dense))
            .unwrap();
        session.drive().unwrap()
    }

    #[test]
    fn two_level_identity_matches_flat_fedavg() {
        let updates = updates(8, 16);
        let report = drive(Topology::two_level(4, 2), CodecKind::Identity, &updates);
        let flat = fedavg(&updates).unwrap();
        assert_eq!(report.update.samples, flat.samples);
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(flat.model.as_slice())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert_eq!(report.store_stats.encoded_puts, 0);
        assert_eq!(report.updates_ingested, 8);
        assert_eq!(report.ingress_wire_bytes, 8 * 16 * 4);
    }

    #[test]
    fn three_level_tree_matches_flat_fedavg() {
        // 2 updates per leaf, 4 leaves feeding 2 middles, 1 top: 8 updates.
        let updates = updates(8, 16);
        let topology = Topology::new(vec![2, 2, 2]).unwrap();
        let report = drive(topology.clone(), CodecKind::Identity, &updates);
        assert_eq!(report.topology, topology);
        let flat = fedavg(&updates).unwrap();
        assert_eq!(report.update.samples, flat.samples);
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(flat.model.as_slice())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn flat_topology_runs_one_aggregator() {
        let updates = updates(3, 8);
        let report = drive(Topology::flat(3), CodecKind::Identity, &updates);
        let flat = fedavg(&updates).unwrap();
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(flat.model.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "flat session is the flat fold");
        }
    }

    #[test]
    fn wrong_update_count_is_rejected_and_over_ingest_refused() {
        let mut session = SessionBuilder::new().two_level(2, 2).build().unwrap();
        session
            .ingest_all(updates(3, 4).into_iter().map(Update::Dense))
            .unwrap();
        let err = session.drive().unwrap_err().to_string();
        assert!(
            err.contains("expected 4 updates (2 leaves x 2), got 3"),
            "{err}"
        );
        // The round survives the failed drive; topping it up works.
        session
            .ingest(Update::Dense(updates(4, 4).pop().unwrap()))
            .unwrap();
        assert!(session.drive().is_ok());
        // A full round refuses a fifth ingest.
        session
            .ingest_all(updates(4, 4).into_iter().map(Update::Dense))
            .unwrap();
        assert!(session
            .ingest(Update::Dense(updates(1, 4).pop().unwrap()))
            .is_err());
    }

    #[test]
    fn encoded_and_remote_ingests_share_the_round() {
        let dim = 64;
        let batch = updates(4, dim);
        // Two dense, one pre-encoded, one forwarded as remote wire bytes.
        let mut client_codec = UpdateCodec::with_seed(CodecKind::Uniform8, 7);
        let encoded = client_codec.encode(&batch[2].model);
        let remote_wire = client_codec.encode(&batch[3].model).to_bytes();

        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .codec(CodecKind::Uniform8)
            .build()
            .unwrap();
        session.ingest(Update::Dense(batch[0].clone())).unwrap();
        session.ingest(Update::Dense(batch[1].clone())).unwrap();
        session
            .ingest(Update::encoded(ClientId::new(2), encoded, batch[2].samples))
            .unwrap();
        session
            .ingest(Update::remote_bytes(remote_wire, batch[3].samples, true))
            .unwrap();
        let report = session.drive().unwrap();

        let flat = fedavg(&batch).unwrap();
        assert_eq!(report.update.samples, flat.samples);
        let max_abs = batch
            .iter()
            .flat_map(|u| u.model.as_slice())
            .fold(0.0f32, |a, v| a.max(v.abs()));
        let tolerance = 3.0 * max_abs / 127.0;
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(flat.model.as_slice())
        {
            assert!((a - b).abs() <= tolerance, "{a} vs {b}");
        }
        assert!(report.store_stats.encoded_puts > 0);
    }

    #[test]
    fn sessions_are_reusable_across_rounds() {
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .codec(CodecKind::Uniform4)
            .build()
            .unwrap();
        let batch = updates(4, 32);
        for _ in 0..3 {
            session
                .ingest_all(batch.iter().cloned().map(Update::Dense))
                .unwrap();
            let report = session.drive().unwrap();
            assert_eq!(report.updates_ingested, 4);
            assert_eq!(session.pending_updates(), 0);
        }
        // Long-lived sessions stay bounded: every round's store objects are
        // recycled when the round ends.
        assert_eq!(
            session.store().stats().live_objects,
            0,
            "rounds must not leak store objects"
        );
        // Error feedback accumulated residuals for the lossy codec.
        assert_eq!(session.codec, CodecKind::Uniform4);
        assert!(session.store().stats().encoded_puts > 0);
        assert!(session.pool().stats().hits > 0, "codec scratch was pooled");
    }

    #[test]
    fn failed_round_is_discarded_and_the_session_recovers() {
        let mut session = SessionBuilder::new().two_level(2, 2).build().unwrap();
        let batch = updates(4, 16);
        // Three valid updates plus raw remote bytes of the wrong dimension,
        // stored past the door (which refuses them): the fold fails
        // mid-drive.
        for update in batch.iter().take(3) {
            session.ingest(Update::Dense(update.clone())).unwrap();
        }
        let short = Update::remote_bytes(vec![0u8; 8], 1, false);
        session.admit(short, None).unwrap();
        assert!(session.drive().is_err(), "mismatched dimension must fail");
        // The corrupt round is gone: counters are zero, nothing leaked in
        // the store (surviving siblings' intermediates included), and a
        // fresh, fully valid round drives cleanly.
        assert_eq!(session.pending_updates(), 0);
        assert_eq!(
            session.store().stats().live_objects,
            0,
            "failed rounds must not leak store objects"
        );
        session
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let report = session.drive().unwrap();
        assert_eq!(report.updates_ingested, 4);
        // A malformed *encoded* ingest is rejected up front and counts
        // nothing toward the round or its wire accounting.
        assert!(session
            .ingest(Update::remote_bytes(vec![1u8, 2, 3], 1, true))
            .is_err());
        assert_eq!(session.pending_updates(), 0);
    }

    #[test]
    fn invalid_topk_is_rejected_at_build() {
        assert!(SessionBuilder::new()
            .codec(CodecKind::TopK { permille: 0 })
            .build()
            .is_err());
    }

    #[test]
    fn invalid_fold_policy_is_rejected_at_build() {
        assert!(SessionBuilder::new()
            .fold_policy(FoldPolicy::TrimmedMean { trim_permille: 500 })
            .build()
            .is_err());
    }

    #[test]
    fn robust_session_bounds_an_adversarially_scaled_client() {
        // 3 leaves × 3 updates; one client scales its update by 1e6.
        let mut batch = updates(9, 8);
        for v in batch[4].model.as_mut_slice() {
            *v *= 1e6;
        }
        let honest: Vec<ModelUpdate> = batch
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 4)
            .map(|(_, u)| u.clone())
            .collect();
        let honest_mean = fedavg(&honest).unwrap();
        let bound = honest
            .iter()
            .flat_map(|u| u.model.as_slice())
            .fold(0.0f32, |a, v| a.max(v.abs()));

        let drive_with = |policy: FoldPolicy| {
            let mut session = SessionBuilder::new()
                .two_level(3, 3)
                .fold_policy(policy)
                .build()
                .unwrap();
            session
                .ingest_all(batch.iter().cloned().map(Update::Dense))
                .unwrap();
            session.drive().unwrap()
        };
        // FedAvg is dragged far outside the honest envelope...
        let fedavg_report = drive_with(FoldPolicy::FedAvg);
        assert!(fedavg_report
            .update
            .model
            .as_slice()
            .iter()
            .any(|v| v.abs() > 100.0 * bound));
        // ...the median stays inside it, close to the honest mean.
        let median_report = drive_with(FoldPolicy::Median);
        for (v, h) in median_report
            .update
            .model
            .as_slice()
            .iter()
            .zip(honest_mean.model.as_slice())
        {
            assert!(v.abs() <= bound, "median escaped the honest envelope: {v}");
            assert!((v - h).abs() <= 2.0 * bound, "{v} vs honest mean {h}");
        }
    }

    #[test]
    fn try_ingest_queues_overflow_and_drains_next_round() {
        let batch = updates(6, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20))
            .build()
            .unwrap();
        for u in &batch[..4] {
            assert!(session
                .try_ingest(Update::Dense(u.clone()))
                .unwrap()
                .is_admitted());
        }
        // The round is full: the next two offers park in the per-leaf queues.
        assert_eq!(
            session.try_ingest(Update::Dense(batch[4].clone())).unwrap(),
            AdmissionOutcome::Queued { depth: 1 }
        );
        assert_eq!(
            session.try_ingest(Update::Dense(batch[5].clone())).unwrap(),
            AdmissionOutcome::Queued { depth: 1 }
        );
        assert_eq!(session.queued_updates(), 2);
        assert_eq!(session.ingress.depths(), vec![1, 1]);
        session.drive().unwrap();
        // Driving opened the next round and drained the backlog into it.
        assert_eq!(session.pending_updates(), 2);
        assert_eq!(session.queued_updates(), 0);
        let stats = session.admission_stats();
        assert_eq!(stats.queued, 2);
        assert_eq!(stats.drained, 2);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn admission_rejects_past_queue_budget_with_retry_hint() {
        let batch = updates(7, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(
                AdmissionConfig::bounded(1, 1 << 20)
                    .with_retry_after(SimDuration::from_millis(250.0)),
            )
            .build()
            .unwrap();
        for u in &batch[..4] {
            session.ingest(Update::Dense(u.clone())).unwrap();
        }
        // Two offers fit the slot budget; the third is turned away.
        assert!(session
            .try_ingest(Update::Dense(batch[4].clone()))
            .unwrap()
            .is_queued());
        assert!(session
            .try_ingest(Update::Dense(batch[5].clone()))
            .unwrap()
            .is_queued());
        assert_eq!(
            session.try_ingest(Update::Dense(batch[6].clone())).unwrap(),
            AdmissionOutcome::Rejected {
                retry_after: SimDuration::from_millis(250.0)
            }
        );
        // The strict ingress reports budget exhaustion as the typed error.
        assert_eq!(
            session.ingest(Update::Dense(batch[6].clone())),
            Err(LiflError::RoundFull { capacity: 4 })
        );
        assert_eq!(session.admission_stats().rejected, 2);
    }

    #[test]
    fn drain_drops_an_offer_that_fails_to_admit_and_keeps_draining() {
        let batch = updates(7, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20))
            .build()
            .unwrap();
        for u in &batch[..4] {
            session.ingest(Update::Dense(u.clone())).unwrap();
        }
        // A poisoned encoded payload slipped into the backlog behind the
        // session's back (try_ingest itself refuses it), ahead of two valid
        // offers.
        let queues = session.ingress.queues_mut().expect("admission is on");
        assert!(queues.offer(None, &[1u8, 2], 1, true).is_queued());
        for u in &batch[4..6] {
            assert!(session
                .try_ingest(Update::Dense(u.clone()))
                .unwrap()
                .is_queued());
        }
        let idle_before = session.pool().stats().idle_buffers;
        session.drive().unwrap();
        // The poisoned offer was dropped — never counted as drained, its
        // buffer back in the pool — and both valid offers behind it drained.
        assert_eq!(session.pending_updates(), 2);
        assert_eq!(session.queued_updates(), 0);
        let stats = session.admission_stats();
        assert_eq!((stats.drained, stats.dropped), (2, 1));
        assert!(session.pool().stats().idle_buffers > idle_before);
        session.ingest(Update::Dense(batch[6].clone())).unwrap();
        assert_eq!(session.round_clients().len(), 3);
    }

    #[test]
    fn a_parked_offer_of_another_dimension_is_dropped_at_drain() {
        let batch = updates(5, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20))
            .build()
            .unwrap();
        for u in &batch[..4] {
            session.ingest(Update::Dense(u.clone())).unwrap();
        }
        // A 3-parameter offer parked behind the session's back (the door
        // refuses it in a round of 8-parameter updates), ahead of a valid one.
        let queues = session.ingress.queues_mut().expect("admission is on");
        assert!(queues.offer(None, &[0u8; 12], 1, false).is_queued());
        let parked = Update::Dense(batch[4].clone());
        assert!(session.try_ingest(parked).unwrap().is_queued());
        // A departure reopens a slot in the pinned round: the short offer
        // is dropped and the valid one drains into the slot.
        assert!(session.depart_client(ClientId::new(0)));
        let stats = session.admission_stats();
        assert_eq!((stats.drained, stats.dropped), (1, 1));
        assert_eq!(session.pending_updates(), 4);
        let report = session.drive().unwrap();
        let expected = fedavg(&batch[1..]).unwrap();
        for (a, b) in (report.update.model.as_slice().iter()).zip(expected.model.as_slice()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn a_parked_offer_whose_weight_would_overflow_the_round_is_dropped_at_drain() {
        let mut batch = updates(5, 8);
        batch[0].samples = u64::MAX - 100;
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20))
            .build()
            .unwrap();
        for u in &batch[..4] {
            session.ingest(Update::Dense(u.clone())).unwrap();
        }
        // A heavy offer parked behind the session's back (the door refuses
        // it next to client 0's weight), ahead of a light one.
        let queues = session.ingress.queues_mut().expect("admission is on");
        assert!(queues.offer(None, &[0u8; 32], 200, false).is_queued());
        let parked = Update::Dense(batch[4].clone());
        assert!(session.try_ingest(parked).unwrap().is_queued());
        // Client 1's departure reopens a slot, and gives back only its own
        // weight: the heavy offer is dropped and the light one drains.
        assert!(session.depart_client(ClientId::new(1)));
        let stats = session.admission_stats();
        assert_eq!((stats.drained, stats.dropped), (1, 1));
        assert_eq!(session.pending_updates(), 4);
        assert_eq!(session.round_weight(), u64::MAX - 100 + 3 + 4 + 5);
    }

    #[test]
    fn a_failed_admit_hands_its_vacancy_back() {
        // Room for the round's four 32-byte updates and little else.
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .store(ObjectStore::with_capacity(140))
            .build()
            .unwrap();
        session
            .ingest_all(updates(4, 8).into_iter().map(Update::Dense))
            .unwrap();
        assert!(session.depart_client(ClientId::new(1)));
        // Routed into client 1's vacancy on leaf 1 (past the door, which
        // refuses the other dimension first), then refused by the store:
        // the vacancy must reopen and the cursor must not move.
        let too_big = Update::dense(ClientId::new(8), DenseModel::from_vec(vec![0.5; 32]), 1);
        assert!(matches!(
            session.admit(too_big, Some(ClientId::new(8))),
            Err(LiflError::OutOfSharedMemory { .. })
        ));
        assert_eq!(session.pending_updates(), 3);
        assert_eq!(session.ingress.cursor(), 4);
        let fits = Update::dense(ClientId::new(9), DenseModel::from_vec(vec![0.5; 8]), 1);
        assert!(session.try_ingest(fits).unwrap().is_admitted());
        assert_eq!(session.round_entries.last().map(|e| e.leaf), Some(1));
        assert_eq!(session.ingress.cursor(), 4);
    }

    #[test]
    fn pre_encoded_clients_cannot_grow_the_pool() {
        // Regression: every admitted `Update::Encoded` used to be checked
        // into the session pool on the way out of `try_ingest`, and nothing
        // at the ingress ever checks a buffer out — 4 more idle buffers a
        // round, forever (40 after ten rounds, 200 after fifty).
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .codec(CodecKind::Uniform8)
            .build()
            .unwrap();
        let batch = updates(4, 256);
        let mut client_codec = UpdateCodec::with_seed(CodecKind::Uniform8, 11);
        let mut idle = Vec::new();
        for _ in 0..50 {
            for update in &batch {
                // A client-side encode: its buffer is not the session's.
                let encoded = client_codec.encode(&update.model);
                let client = update.client.expect("client update");
                session
                    .ingest(Update::encoded(client, encoded, update.samples))
                    .unwrap();
            }
            session.drive().unwrap();
            idle.push(session.pool().stats().idle_buffers);
        }
        // The pool holds what the session itself checks out — the three
        // aggregators' re-encode buffers and their accumulators (a lossy
        // `send` returns its accumulator at once, so the top reuses a
        // leaf's and there are two only if both leaves ever overlapped) —
        // and not one buffer more.
        assert!(idle.windows(2).all(|w| w[0] <= w[1]), "{idle:?}");
        assert!((4..=5).contains(&idle[49]), "pool grew: {idle:?}");
        assert_eq!(session.pool().stats().peak_idle_buffers, idle[49]);
    }

    #[test]
    fn a_refused_ingress_encode_leaves_the_pool_as_it_was() {
        // Lossy sessions over a store with room for one 64-parameter
        // encoded update (16 + 64 bytes), not for two; the control is never
        // refused anything.
        let build = || {
            SessionBuilder::new()
                .two_level(2, 2)
                .codec(CodecKind::Uniform8)
                .store(ObjectStore::with_capacity(100))
                .build()
                .unwrap()
        };
        let (mut session, mut control) = (build(), build());
        let client = ClientId::new(3);
        let offer = |session: &mut Session, round: usize| {
            let values = (0..64)
                .map(|d| ((d * 7 + round * 13) % 29) as f32 * 0.1 - 1.4)
                .collect();
            session.try_ingest(Update::dense(client, DenseModel::from_vec(values), 1))
        };
        for session in [&mut session, &mut control] {
            assert!(offer(session, 0).unwrap().is_admitted());
            ingress::settle(session);
        }
        let pool = session.pool().stats();
        let residual = session.ingress.residual_bits(client);
        assert!(residual.is_some());
        for _ in 0..2 {
            assert!(matches!(
                offer(&mut session, 1),
                Err(LiflError::OutOfSharedMemory { .. })
            ));
            // Rolled back: nothing counted, cursor unmoved, nothing stored…
            assert_eq!(session.pending_updates(), 1);
            assert_eq!(session.ingress.cursor(), 1);
            assert_eq!(session.store().stats().live_objects, 1);
            // …and nothing encoded: the residual and the pool are exactly
            // as they were before the offer.
            ingress::settle(&mut session);
            assert_eq!(session.ingress.residual_bits(client), residual);
            assert_eq!(session.pool().stats(), pool);
        }
        // Nor did the refusals move the rounding stream: the client's next
        // admitted update is the control's, bit for bit, on the first leaf.
        let next = |session: &mut Session| {
            session.discard_round();
            assert!(offer(session, 1).unwrap().is_admitted());
            ingress::settle(session);
            let entry = *session.round_entries.last().unwrap();
            let stored = session.store().get(&entry.queued.key).unwrap();
            (entry.leaf, stored.as_slice().to_vec())
        };
        let admitted = next(&mut session);
        assert_eq!(admitted.0, 0);
        assert_eq!(admitted, next(&mut control));
        assert_eq!(
            session.ingress.residual_bits(client),
            control.ingress.residual_bits(client)
        );
    }

    #[test]
    fn a_panicking_ingress_encode_fails_the_drive_and_the_workers_serve_on() {
        let offers = |session: &mut Session, n: usize| {
            for update in updates(n, 64) {
                session.try_ingest(Update::Dense(update)).unwrap();
            }
        };
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .codec(CodecKind::Uniform8)
            .workers(Workers::with_count(1))
            .build()
            .unwrap();
        // Three real encodes and, in the fourth slot, a job that panics.
        offers(&mut session, 3);
        let slot = Backend::reserve(&mut session, ClientId::new(99), 0).unwrap();
        session.ingress.defer_panicking(slot);
        assert_eq!(
            session.drive().unwrap_err(),
            LiflError::Simulation("ingress job panicked".to_string())
        );
        // The failed round is discarded, nothing leaks, and the next round
        // runs on the same worker set.
        assert_eq!(session.pending_updates(), 0);
        assert_eq!(session.store().stats().live_objects, 0);
        offers(&mut session, 4);
        assert_eq!(session.drive().unwrap().updates_ingested, 4);
    }

    #[test]
    fn a_refused_drained_offer_is_dropped_and_its_buffer_comes_home() {
        // Room for a driven round of 32-byte objects (four updates, three
        // intermediates), not for a 256-byte one.
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .store(ObjectStore::with_capacity(240))
            .admission(AdmissionConfig::bounded(4, 1 << 20))
            .build()
            .unwrap();
        session
            .ingest_all(updates(4, 8).into_iter().map(Update::Dense))
            .unwrap();
        // Parked behind the session's back: the door refuses the other
        // dimension in this round, but the drain opens the next one with it.
        let queues = session.ingress.queues_mut().expect("admission is on");
        let oversized = lifl_fl::kernels::le_bytes(&[0.5f32; 64]);
        assert!(queues
            .offer(Some(ClientId::new(9)), oversized, 1, false)
            .is_queued());
        let small = Update::dense(ClientId::new(10), DenseModel::from_vec(vec![0.5; 8]), 1);
        assert!(session.try_ingest(small).unwrap().is_queued());
        // Parking copied each wire form once, into pooled backlog buffers.
        assert_eq!(session.pool().stats().misses, 2);
        assert_eq!(session.pool().stats().idle_buffers, 0);
        session.drive().unwrap();
        // The drain tried the oversized offer first (arrival order), the
        // store refused it, and the next one went in.
        assert_eq!(session.pending_updates(), 1);
        assert_eq!(session.round_clients(), vec![Some(ClientId::new(10))]);
        let stats = session.admission_stats();
        assert_eq!((stats.queued, stats.drained, stats.dropped), (2, 1, 1));
        // The refused backlog buffer is home — the next checkout of its
        // size is a hit — while the admitted one is the stored object. The
        // other three idle buffers are the driven round's accumulators.
        let pool = session.pool().stats();
        assert_eq!((pool.idle_buffers, pool.hits), (1 + 3, 0));
        let again = session.pool().checkout_bytes(256);
        assert!(again.capacity() >= 256);
        assert_eq!(session.pool().stats().hits, 1);
        session.pool().checkin_bytes(again);
        // …and comes home too once its round is over.
        session.discard_round();
        assert_eq!(session.pool().stats().idle_buffers, 2 + 3);
    }

    #[test]
    fn a_failed_fold_returns_its_accumulator_to_the_pool() {
        // Regression: a leaf that failed mid-fold kept the pooled
        // accumulator it had half filled, and re-arming it for the next
        // round dropped that buffer — one pool miss a failed round, and a
        // checkout the pool counted as out for good.
        let build = || {
            SessionBuilder::new()
                .two_level(1, 2)
                .codec(CodecKind::Uniform8)
                .workers(Workers::with_count(0))
                .build()
                .unwrap()
        };
        let rounds = |session: &mut Session| {
            for _ in 0..3 {
                session
                    .ingest_all(updates(2, 64).into_iter().map(Update::Dense))
                    .unwrap();
                session.drive().unwrap();
            }
        };
        let (mut session, mut control) = (build(), build());
        // Client 0's update fills the accumulator; a 16-parameter one from
        // an outsider cannot fold into it. The door refuses that one, so it
        // is stored past the door — encoded into the session's pool, as the
        // ingress would have — behind client 0's.
        let batch = updates(1, 64);
        session.ingest(Update::Dense(batch[0].clone())).unwrap();
        let short = lifl_fl::codec::UpdateCodec::new(CodecKind::Uniform8)
            .with_pool(session.pool().clone())
            .encode(&DenseModel::from_vec(vec![0.5; 16]));
        let outsider = ClientId::new(99);
        ingress::settle(&mut session);
        session
            .admit(Update::encoded(outsider, short, 1), Some(outsider))
            .unwrap();
        assert!(matches!(
            session.drive(),
            Err(LiflError::DimensionMismatch { .. })
        ));
        rounds(&mut session);
        rounds(&mut control);
        // The failed round checked out three buffers: two ingress encodes
        // and the accumulator. Only the short update's encode buffer costs a
        // miss more than never running it — home and idle since, too small
        // for anything after it — while client 0's and the accumulator serve
        // later rounds.
        let (pool, reference) = (session.pool().stats(), control.pool().stats());
        assert_eq!(
            (pool.hits, pool.misses, pool.idle_buffers),
            (
                reference.hits + 2,
                reference.misses + 1,
                reference.idle_buffers + 1
            )
        );
    }

    #[test]
    fn a_hop_buffer_returns_to_the_pool_after_the_last_store_lets_go() {
        // Child and parent share one pool, as the sessions of a cluster do.
        let pool = BufferPool::new();
        let mut child = SessionBuilder::new()
            .topology(Topology::flat(2))
            .codec(CodecKind::Uniform8)
            .pool(pool.clone())
            .build()
            .unwrap();
        let mut parent = SessionBuilder::new()
            .topology(Topology::flat(1))
            .codec(CodecKind::Uniform8)
            .tree_position(1, 0)
            .pool(pool.clone())
            .build()
            .unwrap();
        child
            .ingest_all(updates(2, 128).into_iter().map(Update::Dense))
            .unwrap();
        let export = child.drive_to_wire().unwrap();
        // The child's round is over and its store is empty: both ingress
        // encode buffers are home (and the accumulator its lossy `send` was
        // done with), the exported top intermediate is not — the export
        // still shares it.
        assert_eq!(child.store().stats().live_objects, 0);
        assert_eq!(pool.stats().idle_buffers, 2 + 1);
        let Update::RemoteBytes { wire, .. } = &export.update else {
            panic!("a lossy session exports wire bytes");
        };
        let address = wire.as_ptr();
        parent.ingest(export.update).unwrap();
        // Moved into the parent's store as it is: still one buffer, still out.
        assert_eq!(parent.store().stats().live_objects, 1);
        assert_eq!(pool.stats().idle_buffers, 2 + 1);
        // The last store recycles it: now it comes home.
        parent.discard_round();
        assert_eq!(pool.stats().idle_buffers, 3 + 1);
        let home: Vec<Vec<u8>> = (0..3).map(|_| pool.checkout_bytes(1)).collect();
        assert!(home.iter().any(|buf| buf.as_ptr() == address));
    }

    #[test]
    fn queued_clients_drain_in_utility_order() {
        let batch = updates(8, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20))
            .build()
            .unwrap();
        for u in &batch[..4] {
            session.ingest(Update::Dense(u.clone())).unwrap();
        }
        // Clients 4..8 park; 6 is hot, 5 is cold, 4 and 7 are unexplored.
        for u in &batch[4..8] {
            assert!(session
                .try_ingest(Update::Dense(u.clone()))
                .unwrap()
                .is_queued());
        }
        session.record_client_utility(ClientId::new(6), 3.0);
        session.record_client_utility(ClientId::new(5), 0.1);
        session.drive().unwrap();
        // Highest utility first, unexplored (1.0) next in arrival order,
        // lowest last — all four fit the fresh round.
        let drained: Vec<Option<ClientId>> = session.round_clients().to_vec();
        assert_eq!(
            drained,
            vec![
                Some(ClientId::new(6)),
                Some(ClientId::new(4)),
                Some(ClientId::new(7)),
                Some(ClientId::new(5)),
            ]
        );
    }

    #[test]
    fn quorum_round_closes_partial_and_matches_flat_fedavg() {
        let batch = updates(3, 16);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20).with_quorum(3))
            .build()
            .unwrap();
        session
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let report = session.drive().unwrap();
        assert_eq!(report.updates_ingested, 3);
        let flat = fedavg(&batch).unwrap();
        assert_eq!(report.update.samples, flat.samples);
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(flat.model.as_slice())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn quorum_below_minimum_still_refuses_to_close() {
        let batch = updates(2, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20).with_quorum(3))
            .build()
            .unwrap();
        session
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let err = session.drive().unwrap_err().to_string();
        assert!(err.contains("quorum not met"), "{err}");
        // Topping up to the quorum closes the round.
        session
            .ingest(Update::Dense(updates(3, 8).pop().unwrap()))
            .unwrap();
        assert!(session.drive().is_ok());
    }

    #[test]
    fn departed_client_refills_from_backlog_without_perturbing_survivors() {
        let batch = updates(4, 16);
        let replacement =
            ModelUpdate::from_client(ClientId::new(9), DenseModel::from_vec(vec![0.25; 16]), 5);

        let mut churned = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20))
            .build()
            .unwrap();
        churned
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        assert!(churned
            .try_ingest(Update::Dense(replacement.clone()))
            .unwrap()
            .is_queued());
        // Client 1 (leaf 1) departs mid-round; its slot refills from the
        // backlog without disturbing the surviving assignments.
        assert!(churned.depart_client(ClientId::new(1)));
        assert_eq!(churned.pending_updates(), 4);
        assert_eq!(churned.queued_updates(), 0);
        let report = churned.drive().unwrap();

        // Reference: a plain session whose arrival order lands the same
        // updates on the same leaves, the replacement last on leaf 1.
        let mut reference = SessionBuilder::new().two_level(2, 2).build().unwrap();
        reference
            .ingest_all(
                [
                    batch[0].clone(),
                    batch[3].clone(),
                    batch[2].clone(),
                    replacement,
                ]
                .into_iter()
                .map(Update::Dense),
            )
            .unwrap();
        let expected = reference.drive().unwrap();
        assert_eq!(report.update.samples, expected.update.samples);
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(expected.update.model.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "survivor fold diverged");
        }
    }

    #[test]
    fn departing_the_last_quorum_member_reopens_the_round() {
        let batch = updates(3, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20).with_quorum(3))
            .build()
            .unwrap();
        session
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        assert!(session.depart_client(ClientId::new(2)));
        assert_eq!(session.pending_updates(), 2);
        assert!(session.drive().unwrap_err().to_string().contains("quorum"));
        // A departure that never happened reclaims nothing.
        assert!(!session.depart_client(ClientId::new(77)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use lifl_fl::aggregate::CumulativeFedAvg;
    use proptest::prelude::*;

    /// The seed two-level fold semantics, restated from first principles:
    /// update k feeds leaf k % leaves; each leaf folds its share in arrival
    /// order and finalizes; the top folds leaf intermediates in leaf order.
    fn seed_reference(leaves: usize, per_leaf: usize, updates: &[ModelUpdate]) -> ModelUpdate {
        let dim = updates[0].model.dim();
        let mut top = CumulativeFedAvg::new(dim);
        for leaf in 0..leaves {
            let mut acc = CumulativeFedAvg::new(dim);
            for update in updates
                .iter()
                .enumerate()
                .filter(|(k, _)| k % leaves == leaf)
                .map(|(_, u)| u)
            {
                acc.fold(update).unwrap();
            }
            assert_eq!(acc.updates_folded(), per_leaf as u64);
            top.fold(&acc.finalize().unwrap()).unwrap();
        }
        top.finalize().unwrap()
    }

    proptest! {
        /// Acceptance: a `Session` with `Identity` is bit-exact with the seed
        /// two-level fold semantics for arbitrary two-level shapes.
        #[test]
        fn identity_session_bit_exact_with_seed_semantics(
            leaves in 1usize..6,
            per_leaf in 1usize..5,
            dim in 1usize..24,
            values in proptest::collection::vec(-50.0f32..50.0, 30 * 24),
            samples in proptest::collection::vec(1u64..40, 30),
        ) {
            let n = leaves * per_leaf;
            let updates: Vec<ModelUpdate> = (0..n)
                .map(|i| {
                    let params: Vec<f32> =
                        (0..dim).map(|d| values[(i * dim + d) % values.len()]).collect();
                    ModelUpdate::from_client(
                        ClientId::new(i as u64),
                        DenseModel::from_vec(params),
                        samples[i % samples.len()],
                    )
                })
                .collect();
            let mut session = SessionBuilder::new()
                .two_level(leaves, per_leaf)
                .build()
                .unwrap();
            session
                .ingest_all(updates.iter().cloned().map(Update::Dense))
                .unwrap();
            let report = session.drive().unwrap();
            let reference = seed_reference(leaves, per_leaf, &updates);
            prop_assert_eq!(report.update.samples, reference.samples);
            for (a, b) in report
                .update
                .model
                .as_slice()
                .iter()
                .zip(reference.model.as_slice())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "session diverged: {} vs {}", a, b);
            }
        }

        /// Deep trees are deterministic run-to-run for every codec: two
        /// sessions over the same ingests produce bit-identical models.
        #[test]
        fn deep_sessions_are_deterministic(
            fan0 in 1usize..4,
            fan1 in 1usize..4,
            fan2 in 1usize..4,
            seed in 0u64..500,
        ) {
            let topology = Topology::new(vec![fan0, fan1, fan2]).unwrap();
            let n = topology.total_updates();
            let updates: Vec<ModelUpdate> = (0..n)
                .map(|i| {
                    let params: Vec<f32> = (0..16)
                        .map(|d| ((i * 31 + d * 7 + seed as usize) % 101) as f32 * 0.07 - 3.0)
                        .collect();
                    ModelUpdate::from_client(
                        ClientId::new(i as u64),
                        DenseModel::from_vec(params),
                        (i + 1) as u64,
                    )
                })
                .collect();
            for codec in [CodecKind::Uniform8, CodecKind::TopK { permille: 400 }] {
                let run = || {
                    let mut session = SessionBuilder::new()
                        .topology(topology.clone())
                        .codec(codec)
                        .build()
                        .unwrap();
                    session
                        .ingest_all(updates.iter().cloned().map(Update::Dense))
                        .unwrap();
                    session.drive().unwrap()
                };
                let first = run();
                let second = run();
                prop_assert_eq!(first.update.samples, second.update.samples);
                for (a, b) in first
                    .update
                    .model
                    .as_slice()
                    .iter()
                    .zip(second.update.model.as_slice())
                {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{} not deterministic", codec);
                }
            }
        }
    }
}
