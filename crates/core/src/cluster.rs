//! Multi-node session federation over [`Update::RemoteBytes`]: N in-process
//! [`Session`]s composed gateway-to-gateway into one cluster-spanning
//! aggregation tree.
//!
//! The unified session API (see [`crate::session`]) drives an N-level tree
//! inside one process. LIFL's headline claim, however, is hierarchical
//! aggregation that spans *machines*: each node runs its own subtree over its
//! own shared-memory store, and only the node's merged intermediate crosses
//! the network — in its codec-tagged wire form, never re-expanded to dense
//! parameters. [`Cluster`] is that deployment in process form:
//!
//! * [`ClusterBuilder`] splits a configured global [`Topology`] at its top
//!   level: the top fan-in is the machine count, and every node runs the
//!   remaining levels as its own [`Session`] (placed into the global tree via
//!   [`SessionBuilder::tree_position`], so per-position codec streams match a
//!   single session over the whole tree bit-for-bit).
//! * [`Cluster::try_ingest`] (and its strict wrapper [`Cluster::ingest`])
//!   routes each leaf ingest to the owning node with the same round-robin
//!   rule a single session uses, applying per-client error-feedback encoding
//!   once at the cluster ingress.
//! * [`Cluster::drive`] drives every node subtree as one forest on the
//!   shared workers, exports each merged update as wire bytes (what
//!   [`Session::drive_to_wire`] returns — zero-copy, no intermediate
//!   `DenseModel`), ships the exports to the parent session's gateway in
//!   node order as [`Update::RemoteBytes`] (header-only parsing on arrival)
//!   and prices each hop through the `lifl-dataplane` transport cost models.
//!
//! A cluster round is **bit-exact** with the equivalent single-session
//! [`Session::drive`] for every codec (enforced by the `tests/it/cluster.rs`
//! tier), so federating over machines changes where bytes live and what the
//! hops cost — never the aggregate.
//!
//! **Live top placement.** The node hosting the global top is not a static
//! wiring decision: under the default [`TopPlacement::MostLoaded`] policy the
//! cluster keeps a per-node [`EwmaEstimator`] of observed load (each round's
//! per-node ingest counts, plus any external queue-depth observations fed in
//! via [`Cluster::observe_node_load`]) and re-places the top on the
//! most-loaded node at every round boundary — the paper's §5.2 rule, so the
//! largest intermediate never crosses machines. A move is a cheap warm-state
//! handoff (the codec streams are tree-position-derived, so results are
//! unchanged — enforced by the re-placement test in `tests/it/driver.rs`)
//! priced like every other hop through [`CostModel::hop_transfer`].

use crate::admission::AdmissionQueues;
use crate::ewma::EwmaEstimator;
use crate::heartbeat::HeartbeatMonitor;
use crate::ingress::{self, Backend, Ingress, Target};
use crate::recovery::{RecoveryManager, RecoveryOutcome};
use crate::session::{Session, SessionBuilder, Update};
use crate::stations::Workers;
use lifl_dataplane::{CostModel, DataPlaneKind, TransferCost};
use lifl_fl::aggregate::ModelUpdate;
use lifl_serverless::{FleetConfig, FleetController, FleetDecision};
use lifl_shmem::{BufferPool, CheckpointStore, StoreStats};
use lifl_types::{
    AdmissionConfig, AdmissionOutcome, ClientId, CodecKind, FoldPolicy, LiflError, NodeId, Result,
    RoundClose, SimDuration, SimTime, Topology,
};
use std::mem::take;

/// Everything a cluster's sessions are built alike with: each differs only
/// in its tree, its node and where that tree sits in the global one.
#[derive(Debug, Clone)]
struct SessionTemplate {
    codec: CodecKind,
    shards: usize,
    seed: u64,
    policy: FoldPolicy,
    pool: BufferPool,
    /// The one worker set every node session and the top run their stations
    /// on — a re-split node's rebuilt session included.
    workers: Workers,
    /// Whether the cluster closes rounds on a quorum. The quorum itself is
    /// checked once, cluster-wide; the sessions only need to drive whatever
    /// share of a partial round reached them, so they close on "anything
    /// non-empty". They own no admission queues either way.
    quorum: bool,
}

impl SessionTemplate {
    /// Builds the session driving `topology` on `node`, placed at
    /// (`level_offset`, `branch`) of the global tree.
    fn build(
        &self,
        topology: Topology,
        node: usize,
        level_offset: usize,
        branch: usize,
    ) -> Result<Session> {
        let mut builder = SessionBuilder::new()
            .topology(topology)
            .codec(self.codec)
            .shards(self.shards)
            .seed(self.seed)
            .fold_policy(self.policy)
            .node(NodeId::new(node as u64))
            .tree_position(level_offset, branch)
            .pool(self.pool.clone())
            .workers(self.workers.clone());
        if self.quorum {
            builder = builder.round_close(RoundClose::Quorum { min_updates: 1 });
        }
        builder.build()
    }
}

/// How a [`Cluster`] chooses the node hosting the global top aggregator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopPlacement {
    /// Pin the top to a fixed node for the cluster's whole life (the
    /// pre-live-placement behaviour; useful as an experimental control).
    Pinned(usize),
    /// Live placement (§5.2): host the top on the node with the highest
    /// EWMA-smoothed load estimate, re-evaluated at every round boundary.
    /// Ties keep the incumbent, so a uniformly loaded cluster never churns.
    MostLoaded {
        /// EWMA smoothing coefficient α (the paper uses 0.7).
        alpha: f64,
    },
}

impl Default for TopPlacement {
    fn default() -> Self {
        TopPlacement::MostLoaded { alpha: 0.7 }
    }
}

/// A top re-placement performed at a round boundary: the warm top state (the
/// current global intermediate) handed off from the old host to the new,
/// most-loaded one.
#[derive(Debug, Clone)]
pub struct TopMove {
    /// The node that hosted the top until this round.
    pub from: NodeId,
    /// The node hosting the top from this round on.
    pub to: NodeId,
    /// Bytes of warm top state shipped (zero before any round has produced
    /// a global intermediate).
    pub state_bytes: u64,
    /// The modelled transport cost of the handoff (always a cross-machine
    /// transfer).
    pub cost: TransferCost,
}

/// Configuration of a cluster's failure-handling machinery (§3): keep-alive
/// heartbeats per node, periodic checkpointing of committed global models,
/// and the restart delay a replacement runtime needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultToleranceConfig {
    /// Checkpoint the committed global model every this many driven rounds
    /// (see [`RecoveryManager::new`]). Must be at least 1.
    pub checkpoint_every: u64,
    /// Time a replacement aggregator runtime needs to come up after a
    /// failure.
    pub restart_delay: SimDuration,
    /// A node whose last keep-alive heartbeat is older than this is declared
    /// failed by [`Cluster::detect_failed_nodes`].
    pub heartbeat_timeout: SimDuration,
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        FaultToleranceConfig {
            checkpoint_every: 1,
            restart_delay: SimDuration::from_secs(1.0),
            heartbeat_timeout: SimDuration::from_secs(30.0),
        }
    }
}

/// A global-top recovery: the checkpoint restore performed after the node
/// hosting the global top aggregator failed, plus the priced transfer that
/// ships the checkpointed model to the replacement runtime.
#[derive(Debug, Clone)]
pub struct TopRecovery {
    /// What was recovered and what was lost (see
    /// [`RecoveryManager::fail_and_recover`]).
    pub outcome: RecoveryOutcome,
    /// The modelled cost of shipping the checkpointed model from the
    /// persistent store to the replacement top host (a network transfer).
    pub transfer: TransferCost,
}

/// Running totals of the failures a fault-tolerant cluster absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Child-node kills handled by discarding the node's subtree round and
    /// refilling its lost slots (restart-and-redrive).
    pub node_restarts: u64,
    /// Global-top kills handled by restoring the latest checkpoint.
    pub top_recoveries: u64,
    /// Survivor hops *not* re-shipped on a retried drive because their
    /// intermediates were already folded into the global top
    /// (retry-with-dedup on the [`Update::RemoteBytes`] hop).
    pub deduped_hops: u64,
    /// Client updates lost to failures (each must be re-sent by its client).
    pub lost_updates: u64,
}

/// What one injected or detected node kill cost the in-flight round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeKill {
    /// The killed node.
    pub node: NodeId,
    /// Updates that were pending on the node (for a top-host kill: in the
    /// whole round) and are lost.
    pub lost_updates: u64,
    /// Whether the killed node hosted the global top — in which case the
    /// whole round is lost and recovery restores the latest checkpoint
    /// (see [`Cluster::take_recovery`]).
    pub top_host: bool,
}

/// The per-cluster failure-handling state behind
/// [`ClusterBuilder::fault_tolerance`].
#[derive(Debug)]
struct FaultState {
    recovery: RecoveryManager,
    monitor: HeartbeatMonitor,
    clock: SimTime,
    /// A pending [`Cluster::schedule_node_failure`]: kill fires inside the
    /// next drive once this many hops of the round have completed.
    scheduled: Option<(usize, u64)>,
    /// True once the round's top placement ran, so retried drives never
    /// re-place (or double-observe load into the EWMAs) mid-round.
    placed: bool,
    /// Per node: this round's intermediate is already folded into the global
    /// top, so a retried drive skips (dedups) its hop.
    hop_done: Vec<bool>,
    /// Hops / node reports accumulated across retries of the same round.
    partial_hops: Vec<ClusterHop>,
    partial_nodes: Vec<NodeRoundReport>,
    /// Per node: lost update slots a restarted node still needs refilled
    /// (re-ingests route here before round-robin resumes).
    refill: Vec<u64>,
    /// Clients whose updates are pending on each node this round.
    node_clients: Vec<Vec<ClientId>>,
    /// Clients whose updates were lost to kills and must re-send.
    lost_clients: Vec<ClientId>,
    last_recovery: Option<TopRecovery>,
    stats: FaultStats,
}

impl FaultState {
    fn new(config: FaultToleranceConfig, nodes: usize) -> Result<Self> {
        let recovery = RecoveryManager::new(config.checkpoint_every, config.restart_delay)?;
        let mut monitor = HeartbeatMonitor::new(config.heartbeat_timeout);
        for node in 0..nodes {
            monitor.register(ClientId::new(node as u64), SimTime::ZERO);
        }
        Ok(FaultState {
            recovery,
            monitor,
            clock: SimTime::ZERO,
            scheduled: None,
            placed: false,
            hop_done: vec![false; nodes],
            partial_hops: Vec::new(),
            partial_nodes: Vec::new(),
            refill: vec![0; nodes],
            node_clients: vec![Vec::new(); nodes],
            lost_clients: Vec::new(),
            last_recovery: None,
            stats: FaultStats::default(),
        })
    }

    /// Forgets everything scoped to the current round (a completed,
    /// discarded or top-lost round). Heartbeats, stats, the recovery manager
    /// and any pending [`TopRecovery`] persist.
    fn clear_round(&mut self) {
        self.scheduled = None;
        self.placed = false;
        self.hop_done.fill(false);
        self.partial_hops.clear();
        self.partial_nodes.clear();
        self.refill.fill(0);
        self.node_clients.iter_mut().for_each(Vec::clear);
        self.lost_clients.clear();
    }

    fn advance_clock(&mut self, now: SimTime) {
        if now > self.clock {
            self.clock = now;
        }
    }
}

/// Builds a [`Cluster`]: the global tree, codec, shard count, seed, hop cost
/// model and the top-placement policy, with working defaults.
///
/// ```
/// use lifl_core::cluster::ClusterBuilder;
/// use lifl_types::{CodecKind, Topology};
///
/// // A 3-level global tree whose top fan-in is the machine count: 4 nodes
/// // each drive a [2, 2] subtree, and live placement picks the top host.
/// let cluster = ClusterBuilder::new()
///     .topology(Topology::new(vec![2, 2, 4]).unwrap())
///     .codec(CodecKind::Uniform8)
///     .build()
///     .unwrap();
/// assert_eq!(cluster.nodes(), 4);
/// assert_eq!(cluster.subtree().levels(), 2);
/// assert_eq!(cluster.topology().total_updates(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    topology: Topology,
    codec: CodecKind,
    shards: usize,
    seed: u64,
    placement: TopPlacement,
    cost: CostModel,
    dataplane: DataPlaneKind,
    policy: FoldPolicy,
    faults: Option<FaultToleranceConfig>,
    admission: Option<AdmissionConfig>,
    fleet: Option<FleetConfig>,
    deferred_error: Option<String>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// A builder with the session defaults: the classic 4×2 two-level tree
    /// split into 4 single-leaf nodes, [`CodecKind::Identity`], one shard,
    /// the paper-calibrated hop cost model, LIFL's shared-memory data plane
    /// for same-node hops, and live [`TopPlacement::MostLoaded`] placement
    /// of the global top (which starts on node 0 until load signals differ).
    pub fn new() -> Self {
        ClusterBuilder {
            topology: Topology::default(),
            codec: CodecKind::Identity,
            shards: 1,
            seed: 0x5EED,
            placement: TopPlacement::default(),
            cost: CostModel::paper_calibrated(),
            dataplane: DataPlaneKind::LiflSharedMemory,
            policy: FoldPolicy::FedAvg,
            faults: None,
            admission: None,
            fleet: None,
            deferred_error: None,
        }
    }

    /// Sets the global aggregation-tree shape. The top level's fan-in is the
    /// machine count; every node drives the remaining levels in process.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Convenience mirroring the hierarchy planner's sizing rule (§5.2):
    /// plans each node's subtree with [`Topology::for_load_capped`] for an
    /// even share of `total_updates` across `nodes` machines, then appends
    /// the cross-machine top level.
    ///
    /// Like the planner, the built tree covers *at least* `total_updates`:
    /// when the load does not divide evenly, per-node shares round up, and a
    /// round must still fill the tree exactly —
    /// [`Cluster::drive`] aggregates `cluster.topology().total_updates()`
    /// updates, which may exceed the `total_updates` planned for (pad with
    /// real ingests, as the planner's under-filled leaves do).
    pub fn for_load(
        mut self,
        total_updates: usize,
        leaf_fan_in: usize,
        max_interior_fan_in: usize,
        nodes: usize,
    ) -> Self {
        let nodes = nodes.max(1);
        let per_node = total_updates.max(1).div_ceil(nodes);
        let subtree = Topology::for_load_capped(per_node, leaf_fan_in, max_interior_fan_in);
        let mut fan_in = subtree.fan_ins().to_vec();
        fan_in.push(nodes);
        // Builders never panic: an invalid planned tree is deferred to
        // `build()`'s Result like every other configuration error.
        match Topology::new(fan_in) {
            Ok(topology) => self.topology = topology,
            Err(error) => {
                self.deferred_error = Some(format!(
                    "for_load({total_updates}, {leaf_fan_in}, {max_interior_fan_in}, \
                     {nodes}) planned an invalid tree: {error}"
                ));
            }
        }
        self
    }

    /// Sets the wire codec every update — and every inter-node hop — travels
    /// with.
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Sets how many threads every node's aggregators split a large batch
    /// fold across (see [`SessionBuilder::shards`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Seeds the cluster-ingress error-feedback encoder (per-aggregator
    /// codec streams derive from tree positions, exactly as in a single
    /// session with the same seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Picks the policy deciding which node hosts the global top aggregator.
    /// The paper places it on the most loaded node so the largest
    /// intermediate never crosses machines — that live policy
    /// ([`TopPlacement::MostLoaded`]) is the default; pin with
    /// [`TopPlacement::Pinned`] to reproduce the old static wiring. The
    /// hosting node's hop is priced as an intra-node shared-memory transfer
    /// instead of a network transfer.
    pub fn placement(mut self, placement: TopPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Injects the transport cost model every hop is priced through.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the data plane same-node hops cross (remote hops always price as
    /// network transfers).
    pub fn dataplane(mut self, dataplane: DataPlaneKind) -> Self {
        self.dataplane = dataplane;
        self
    }

    /// Sets the fold policy every aggregator — on every node, and at the
    /// global top — applies (see [`SessionBuilder::fold_policy`]). The
    /// default [`FoldPolicy::FedAvg`] is bit-exact with a cluster built
    /// before the policy existed; robust policies discard per-coordinate
    /// tails at each level, so corrupted or adversarially scaled client
    /// updates cannot drag the global aggregate.
    pub fn fold_policy(mut self, policy: FoldPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the cluster's failure-handling machinery (§3): per-node
    /// keep-alive heartbeats, a child [`Session`] killable mid-round
    /// ([`Cluster::inject_node_failure`] /
    /// [`Cluster::schedule_node_failure`]), retry-with-dedup re-drives from
    /// surviving subtrees, and checkpoint-based recovery of the global top
    /// through a [`RecoveryManager`]. Without this, any failure aborts the
    /// round exactly as before.
    pub fn fault_tolerance(mut self, config: FaultToleranceConfig) -> Self {
        self.faults = Some(config);
        self
    }

    /// Enables the streaming admission path at the cluster ingress: one
    /// bounded, [`BufferPool`]-backed queue per node with the given slot and
    /// byte caps. [`Cluster::try_ingest`] answers with typed backpressure,
    /// overflow on the strict [`Cluster::ingest`] parks instead of erroring,
    /// queued offers drain into the next round in Oort-utility order
    /// ([`Cluster::record_client_utility`]), and a
    /// [`RoundClose::Quorum`] close lets [`Cluster::drive`] run partial
    /// rounds (the quorum propagates into every node subtree and the global
    /// top). Without this the cluster keeps its legacy exact-fill semantics.
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// Enables KPA-driven aggregator-fleet scaling: at every round boundary
    /// each node's observed admission-queue depth feeds a per-node
    /// [`FleetController`] control loop, and nodes whose desired leaf count
    /// changed get their subtree re-split (grown or retired) before the next
    /// round's backlog drains — each re-split priced through the cluster's
    /// [`CostModel::hop_transfer`]. Decisions land in
    /// [`ClusterReport::scaling`]. The controller runs on a synthetic
    /// per-round clock, so the same arrival trace always produces the same
    /// spawn/retire sequence.
    pub fn fleet_scaling(mut self, config: FleetConfig) -> Self {
        self.fleet = Some(config);
        self
    }

    /// Builds the cluster: one child session per node (each with its own
    /// gateway and shared-memory store, all recycling scratch through one
    /// shared [`BufferPool`]) plus the parent session hosting the global
    /// top.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] if the global topology is flat
    /// (a cluster needs a top level to split off), a pinned top node lies
    /// outside the machine count, an earlier builder step (such as
    /// [`ClusterBuilder::for_load`]) produced an invalid configuration, or
    /// the codec, fold-policy or fault-tolerance configuration is invalid.
    pub fn build(self) -> Result<Cluster> {
        self.build_on(Workers::new())
    }

    /// [`ClusterBuilder::build`] over a given worker set, which the
    /// cluster's ingress encodes and every node's stations run on (the
    /// crate's tests pin worker counts with it).
    pub(crate) fn build_on(self, workers: Workers) -> Result<Cluster> {
        if let Some(deferred) = self.deferred_error {
            return Err(LiflError::InvalidConfig(deferred));
        }
        self.policy.validate().map_err(LiflError::InvalidConfig)?;
        let Some((subtree, nodes)) = self.topology.split_top() else {
            return Err(LiflError::InvalidConfig(format!(
                "cluster federation needs at least two levels to split \
                 gateway-to-gateway, got {}",
                self.topology
            )));
        };
        let (top_node, alpha) = match self.placement {
            TopPlacement::Pinned(node) => {
                if node >= nodes {
                    return Err(LiflError::InvalidConfig(format!(
                        "pinned top node {node} outside the cluster's {nodes} nodes"
                    )));
                }
                (node, 0.7)
            }
            TopPlacement::MostLoaded { alpha } => (0, alpha),
        };
        if let Some(config) = &self.admission {
            config.validate()?;
        }
        let pool = BufferPool::new();
        let sessions = SessionTemplate {
            codec: self.codec,
            shards: self.shards,
            seed: self.seed,
            policy: self.policy,
            pool: pool.clone(),
            workers,
            quorum: self
                .admission
                .is_some_and(|c| matches!(c.round_close, RoundClose::Quorum { .. })),
        };
        let children = (0..nodes)
            .map(|k| sessions.build(subtree.clone(), k, 0, k))
            .collect::<Result<Vec<Session>>>()?;
        let parent = sessions.build(Topology::flat(nodes), top_node, subtree.levels(), 0)?;
        let faults = match self.faults {
            Some(config) => Some(FaultState::new(config, nodes)?),
            None => None,
        };
        let queues = self
            .admission
            .map(|config| AdmissionQueues::new(config, nodes, pool.clone()));
        let fleet = match self.fleet {
            Some(config) => Some(FleetController::new(config, nodes)?),
            None => None,
        };
        let ingress = Ingress::new(
            self.codec,
            self.seed,
            pool,
            queues,
            sessions.workers.clone(),
        );
        Ok(Cluster {
            topology: self.topology,
            subtree,
            placement: self.placement,
            top_node,
            estimators: vec![EwmaEstimator::new(alpha); nodes],
            node_pending: vec![0; nodes],
            handoff_bytes: 0,
            cost: self.cost,
            dataplane: self.dataplane,
            children,
            parent,
            ingress,
            sessions,
            faults,
            fleet,
        })
    }
}

/// One priced gateway-to-gateway hop of a driven cluster round.
#[derive(Debug, Clone)]
pub struct ClusterHop {
    /// The node whose merged intermediate crossed to the top.
    pub node: NodeId,
    /// Payload bytes the hop put on the data plane (codec-encoded form; the
    /// 16-byte descriptor rides the control channel).
    pub wire_bytes: u64,
    /// Whether the hop stayed on the top-hosting node (shared memory) or
    /// crossed the network.
    pub same_node: bool,
    /// The modelled transport cost of the hop.
    pub cost: TransferCost,
}

/// What one node's subtree contributed to a driven cluster round.
#[derive(Debug, Clone)]
pub struct NodeRoundReport {
    /// The node.
    pub node: NodeId,
    /// The node store's statistics at the end of the round.
    pub store_stats: StoreStats,
    /// Data-plane payload bytes the node's leaf ingests occupied.
    pub ingress_wire_bytes: u64,
    /// Client updates the node's subtree aggregated.
    pub updates_ingested: u64,
}

/// One fleet-scaling action applied at a round boundary: a node's subtree
/// re-split to the controller's desired leaf count, priced as the warm-state
/// transfer that moves aggregator state onto (or off) the node.
#[derive(Debug, Clone)]
pub struct ScalingAction {
    /// The controller's decision (observed depth, current and desired
    /// leaves, panic state).
    pub decision: FleetDecision,
    /// The modelled transport cost of re-splitting the subtree (zero bytes
    /// before any round has produced warm state).
    pub cost: TransferCost,
}

/// Everything a driven cluster round produced.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The aggregated global model (decoded once, at the global top).
    pub update: ModelUpdate,
    /// The global tree the round ran over.
    pub topology: Topology,
    /// Per-node subtree accounting, in node order.
    pub nodes: Vec<NodeRoundReport>,
    /// Every gateway-to-gateway hop, in node order, priced through the
    /// cluster's transport cost model.
    pub hops: Vec<ClusterHop>,
    /// The node that hosted the global top for this round (after any
    /// round-boundary re-placement).
    pub top_node: NodeId,
    /// The top re-placement performed at this round's boundary, if the
    /// placement policy moved the top to a newly most-loaded node.
    pub replacement: Option<TopMove>,
    /// The top-hosting node store's statistics at the end of the round.
    pub top_store_stats: StoreStats,
    /// Per-node admission-queue depths observed at the round boundary
    /// (before the backlog drained into the next round; empty without an
    /// admission configuration).
    pub queue_depths: Vec<usize>,
    /// The fleet-scaling decisions applied at this round's boundary, in node
    /// order (empty without fleet scaling; holds a decision per node every
    /// round, resize or not, so traces are complete).
    pub scaling: Vec<ScalingAction>,
}

impl ClusterReport {
    /// Total client updates the round aggregated.
    pub fn updates_ingested(&self) -> u64 {
        self.nodes.iter().map(|n| n.updates_ingested).sum()
    }

    /// Payload bytes that actually crossed machines (same-node hops stay in
    /// shared memory and are excluded).
    pub fn inter_node_wire_bytes(&self) -> u64 {
        self.hops
            .iter()
            .filter(|h| !h.same_node)
            .map(|h| h.wire_bytes)
            .sum()
    }

    /// Modelled wall-clock cost of the round's *remote* hops when the top
    /// node's gateway serialises arrivals one update at a time (§4.2),
    /// exactly the contention rule the simulated platform applies at its top
    /// stage — the top-hosting node's own intermediate arrives over shared
    /// memory concurrently and is excluded.
    pub fn serialized_hop_latency(&self) -> SimDuration {
        self.hops
            .iter()
            .filter(|h| !h.same_node)
            .map(|h| h.cost.latency)
            .fold(SimDuration::ZERO, |acc, l| acc + l)
    }
}

/// N in-process sessions composed gateway-to-gateway over
/// [`Update::RemoteBytes`] into one cluster-spanning aggregation tree: the
/// multi-node deployment of the unified session API.
///
/// A cluster is reusable across rounds exactly like a [`Session`]: after
/// [`Cluster::drive`] returns (or fails, discarding the round on every
/// node), the next round's ingests begin immediately, and per-client
/// error-feedback residuals persist at the cluster ingress.
///
/// ```
/// use lifl_core::cluster::ClusterBuilder;
/// use lifl_core::session::Update;
/// use lifl_fl::DenseModel;
/// use lifl_types::{ClientId, Topology};
///
/// // Two nodes, each driving a [2, 2] subtree of the global [2, 2, 2] tree.
/// let mut cluster = ClusterBuilder::new()
///     .topology(Topology::new(vec![2, 2, 2]).unwrap())
///     .build()
///     .unwrap();
/// for i in 0..8u64 {
///     let model = DenseModel::from_vec(vec![i as f32; 16]);
///     cluster
///         .ingest(Update::dense(ClientId::new(i), model, i + 1))
///         .unwrap();
/// }
/// let report = cluster.drive().unwrap();
/// assert_eq!(report.update.samples, (1..=8).sum::<u64>());
/// assert_eq!(report.hops.len(), 2);
/// // Node 0 hosts the top: only node 1's intermediate crossed machines.
/// assert!(report.hops[0].same_node && !report.hops[1].same_node);
/// assert_eq!(report.inter_node_wire_bytes(), 16 * 4);
/// ```
#[derive(Debug)]
pub struct Cluster {
    topology: Topology,
    subtree: Topology,
    placement: TopPlacement,
    top_node: usize,
    estimators: Vec<EwmaEstimator>,
    node_pending: Vec<u64>,
    handoff_bytes: u64,
    cost: CostModel,
    dataplane: DataPlaneKind,
    children: Vec<Session>,
    parent: Session,
    /// Offer → slot state at the cluster ingress: error feedback (applied
    /// once, here), the round's fill and routing position (slots are nodes)
    /// and the per-node bounded queues of the streaming admission path.
    ingress: Ingress,
    /// What node sessions are (re)built from when the fleet re-splits.
    sessions: SessionTemplate,
    faults: Option<FaultState>,
    /// The KPA fleet controller re-splitting node subtrees at round
    /// boundaries, when fleet scaling is enabled.
    fleet: Option<FleetController>,
}

impl Cluster {
    /// The global tree this cluster aggregates over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The per-node subtree every child session drives.
    pub fn subtree(&self) -> &Topology {
        &self.subtree
    }

    /// The wire codec in use.
    pub fn codec(&self) -> CodecKind {
        self.sessions.codec
    }

    /// Number of nodes (child sessions) in the cluster.
    pub fn nodes(&self) -> usize {
        self.children.len()
    }

    /// The per-node child sessions, in node order (read-only observability;
    /// ingests must go through [`Cluster::try_ingest`] so routing and
    /// error-feedback state stay consistent).
    pub fn node_sessions(&self) -> &[Session] {
        &self.children
    }

    /// The scratch-buffer pool shared by every session's codecs.
    pub fn pool(&self) -> &BufferPool {
        &self.sessions.pool
    }

    /// The placement policy deciding which node hosts the global top.
    pub fn placement(&self) -> TopPlacement {
        self.placement
    }

    /// The node currently hosting the global top aggregator.
    pub fn top_node(&self) -> NodeId {
        NodeId::new(self.top_node as u64)
    }

    /// Feeds an external load observation (e.g. a node's reported pending
    /// queue depth, as the coordinator's metric reports do) into the node's
    /// EWMA load estimator. Ingest routing already feeds each round's
    /// per-node update counts automatically; this adds out-of-band signals
    /// so placement can react to load the cluster ingress does not see.
    pub fn observe_node_load(&mut self, node: NodeId, pending: f64) {
        let index = node.index() as usize;
        if index < self.estimators.len() {
            self.estimators[index].observe(pending);
        }
    }

    /// The smoothed per-node load estimates live placement decides over, in
    /// node order (zero until a node has been observed).
    pub fn load_estimates(&self) -> Vec<(NodeId, f64)> {
        self.estimators
            .iter()
            .enumerate()
            .map(|(k, e)| (NodeId::new(k as u64), e.estimate().unwrap_or(0.0)))
            .collect()
    }

    /// Updates ingested into the current (not yet driven) round.
    pub fn pending_updates(&self) -> u64 {
        self.ingress.ingested()
    }

    /// Updates one round aggregates across every node subtree. Equals the
    /// built topology's total until fleet scaling re-splits a subtree, after
    /// which it tracks the live per-node shapes.
    pub fn round_capacity(&self) -> usize {
        self.children
            .iter()
            .map(|c| c.topology().total_updates())
            .sum()
    }

    /// Leaf aggregators currently deployed per node, in node order.
    pub fn node_leaves(&self) -> Vec<usize> {
        self.children
            .iter()
            .map(|c| c.topology().leaves())
            .collect()
    }

    /// The node owning global leaf `leaf`, under the live per-node shapes
    /// (each node owns a contiguous block of leaves, exactly the built
    /// split until fleet scaling changes a block's width).
    fn node_of_leaf(&self, leaf: usize) -> usize {
        let mut remaining = leaf;
        for (node, child) in self.children.iter().enumerate() {
            let leaves = child.topology().leaves();
            if remaining < leaves {
                return node;
            }
            remaining -= leaves;
        }
        self.children.len().saturating_sub(1)
    }

    /// The node the round-robin cursor routes to next.
    fn cursor_node(&self) -> usize {
        let total: usize = self.children.iter().map(|c| c.topology().leaves()).sum();
        let leaf = (self.ingress.cursor() as usize) % total.max(1);
        self.node_of_leaf(leaf)
    }

    /// Whether the open round can still take an update.
    fn has_room(&self) -> bool {
        (self.ingress.ingested() as usize) < self.round_capacity()
    }

    /// The strict cluster ingress: [`Cluster::try_ingest`], with
    /// backpressure the caller did not ask for turned into an error.
    /// `Admitted` and `Queued` are both `Ok` — with a
    /// [`ClusterBuilder::admission`] configuration, overflow parks for the
    /// next round instead of failing.
    ///
    /// # Errors
    /// Everything [`Cluster::try_ingest`] fails on, plus
    /// [`LiflError::RoundFull`] when the round is full and the offer could
    /// not be parked (no admission queues, or their budget is exhausted).
    pub fn ingest(&mut self, update: Update) -> Result<()> {
        match self.try_ingest(update)? {
            AdmissionOutcome::Rejected { .. } => Err(LiflError::RoundFull {
                capacity: self.round_capacity(),
            }),
            _ => Ok(()),
        }
    }

    /// Ingests a batch of updates in order (see [`Cluster::ingest`]).
    ///
    /// # Errors
    /// Same conditions as [`Cluster::ingest`]; updates before the failing
    /// one stay ingested.
    pub fn ingest_all(&mut self, updates: impl IntoIterator<Item = Update>) -> Result<()> {
        for update in updates {
            self.ingest(update)?;
        }
        Ok(())
    }

    /// The cluster-wide ingress — the only ingest implementation: offers one
    /// update and answers with typed backpressure, by the same normalise →
    /// admit-or-park pipeline as [`Session::try_ingest`].
    ///
    /// Normalising happens once, here: anonymous updates take the
    /// *cluster*-lifetime arrival index and, under a lossy codec, dense
    /// updates are encoded with per-client error feedback seeded like a
    /// single session's ingress — so child sessions store the compressed
    /// form as-is and the cluster stays bit-exact with its single-session
    /// equivalent.
    ///
    /// While the round has room the update is admitted on the node owning
    /// the next leaf, with the exact round-robin rule a single session over
    /// the global tree applies (update *k* of a round feeds global leaf
    /// `k % leaves`, and each node owns a contiguous block of leaves); once
    /// the round is full it is parked in the owning node's bounded queue
    /// (`Queued{depth}`) or, when that queue's slot/byte budget is
    /// exhausted, turned away (`Rejected{retry_after}`). Queued clients win
    /// admission into the next round in Oort-utility order. Without a
    /// [`ClusterBuilder::admission`] configuration there is no backlog and
    /// overflow is rejected, untouched, with a zero retry hint.
    ///
    /// A lossy dense offer is answered at once — routed and counted on its
    /// node — and encoded on the cluster's workers, landing in its node's
    /// store in offer order (see [`Session::try_ingest`]); until the next
    /// other operation settles it, the stores of [`Cluster::node_sessions`]
    /// may not show it yet.
    ///
    /// # Errors
    /// Fails only on store/codec errors, exactly as [`Session::try_ingest`];
    /// a full round is an outcome, not an error. A failed offer counts
    /// nothing toward the round, parks nothing and touches nothing — no
    /// residual, no rounding-stream position, no pool buffer: a lossy
    /// offer is refused from its encoded size before it is encoded.
    pub fn try_ingest(&mut self, update: Update) -> Result<AdmissionOutcome> {
        ingress::offer(self, update)
    }

    /// The node owed an update by a fault refill, if any.
    fn refill_node(&self) -> Option<usize> {
        self.faults
            .as_ref()
            .and_then(|f| f.refill.iter().position(|&r| r > 0))
    }

    /// Admits one normalised update on the routed node — moved through the
    /// node session's own `admit`, never its public door — and counts it
    /// into the round: the step both the direct path and the backlog drain
    /// end in.
    ///
    /// Refill slots of a restarted node take priority over round-robin:
    /// re-sent updates route straight to the node that lost them, so the
    /// survivors' leaf assignment is untouched by the failure. Vacancies
    /// reclaimed by mid-round churn refill next, for the same reason.
    fn admit(&mut self, update: Update, producer: Option<ClientId>) -> Result<()> {
        let refill = self.refill_node();
        let route = self.ingress.route(refill, self.cursor_node());
        let node = route.slot;
        let admitted = self.children[node].admit(update, producer);
        if admitted.is_ok() {
            self.count_in(node, refill.is_some(), producer);
        }
        self.ingress.settle(route, admitted.is_ok());
        admitted
    }

    /// Books an update admitted on `node` (before its route settles):
    /// the node's pending count, a refill it paid back, the client it must
    /// re-send should the node die.
    fn count_in(&mut self, node: usize, refilled: bool, producer: Option<ClientId>) {
        self.node_pending[node] += 1;
        if let Some(f) = &mut self.faults {
            if refilled {
                f.refill[node] -= 1;
            }
            f.node_clients[node].push(self.ingress.tracked(producer));
        }
    }

    /// Commits every in-flight encode; one that failed aborts the round on
    /// every node and is returned, as any drive failure is.
    fn settle(&mut self) -> Result<()> {
        ingress::settle(self);
        match self.ingress.take_failure() {
            None => Ok(()),
            Some(error) => {
                self.abort_round();
                Err(error)
            }
        }
    }

    /// Mid-round churn: removes a departed client's update from the current
    /// round on whichever node holds it (reclaiming the slot) and drops any
    /// offers it has parked in the admission queues. Reclaimed slots refill
    /// from the backlog when possible — replacements land on the departed
    /// client's node *behind* the survivors, so every survivor keeps its
    /// position. Returns `true` if anything (slot or queued offer) was
    /// reclaimed.
    pub fn depart_client(&mut self, client: ClientId) -> bool {
        ingress::settle(self);
        let mut departed = self.ingress.remove_parked(client);
        for node in 0..self.children.len() {
            let before = self.children[node].pending_updates();
            self.children[node].depart_client(client);
            let removed = before.saturating_sub(self.children[node].pending_updates());
            if removed == 0 {
                continue;
            }
            departed = true;
            self.node_pending[node] = self.node_pending[node].saturating_sub(removed);
            for _ in 0..removed {
                self.ingress.vacate(node);
            }
            if let Some(f) = &mut self.faults {
                let mut to_drop = removed;
                f.node_clients[node].retain(|c| {
                    if *c == client && to_drop > 0 {
                        to_drop -= 1;
                        false
                    } else {
                        true
                    }
                });
            }
        }
        // Refill reclaimed slots from the backlog (highest utility first).
        ingress::drain(self);
        departed
    }

    /// Records a client's Oort utility score for admission priority (no-op
    /// without an admission configuration).
    pub fn record_client_utility(&mut self, client: ClientId, utility: f64) {
        self.ingress.record_utility(client, utility);
    }

    /// The admission configuration, when the streaming path is enabled.
    pub fn admission_config(&self) -> Option<&AdmissionConfig> {
        self.ingress.config()
    }

    /// Occupancy of every per-node admission queue, in node order (empty
    /// without an admission configuration).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.ingress.depths()
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

    /// Whether KPA fleet scaling is enabled.
    pub fn fleet_scaling_enabled(&self) -> bool {
        self.fleet.is_some()
    }

    /// The fleet controller's configuration, when fleet scaling is enabled.
    pub fn fleet_config(&self) -> Option<&FleetConfig> {
        self.fleet.as_ref().map(FleetController::config)
    }

    /// Drives the round across every node as one tree: the node subtrees run
    /// as one forest on the cluster's workers — level ℓ of every node is one
    /// claim set — and each exports its merged update as codec-tagged wire
    /// bytes (what [`Session::drive_to_wire`] returns, no intermediate
    /// `DenseModel`); the parent gateway then ingests the exports in node
    /// order via [`Update::RemoteBytes`] (header-only parsing, the arriving
    /// buffer is stored as-is) and the global top folds them in node order,
    /// so results are deterministic — and bit-exact with a single session
    /// over the global tree, and with driving the nodes one at a time.
    ///
    /// Every hop is priced through the cluster's [`CostModel`]: a network
    /// transfer for remote nodes, a shared-memory transfer for the node
    /// hosting the top.
    ///
    /// At the round boundary (after the round's load is known, before any
    /// hop is priced) the placement policy re-evaluates which node should
    /// host the top: under [`TopPlacement::MostLoaded`] the round's per-node
    /// ingest counts (plus any [`Cluster::observe_node_load`] signals) feed
    /// the per-node EWMAs, and a now-more-loaded node takes the top over —
    /// a warm-state handoff priced in [`ClusterReport::replacement`]. The
    /// aggregate is placement-invariant: only hop pricing moves.
    ///
    /// # Errors
    /// Fails if the ingested updates do not exactly fill the global tree
    /// (the round is kept and can be topped up), or on any store, codec or
    /// aggregation error — in which case the round is discarded on every
    /// node and the cluster is reset to an empty round.
    ///
    /// With [`ClusterBuilder::fault_tolerance`] enabled, a node kill instead
    /// surfaces as [`LiflError::NodeFailure`] and the round *survives*: the
    /// killed node's subtree restarts empty while every other node (and any
    /// intermediate already folded into the global top) keeps its state.
    /// Re-ingest the lost clients' updates ([`Cluster::take_lost_clients`])
    /// and call `drive` again — the retry re-ships only the hops that never
    /// arrived, skipping (and counting, see [`FaultStats::deduped_hops`])
    /// the survivors'. A [`Cluster::schedule_node_failure`] kill strikes
    /// where a node-at-a-time walk would, once the hops before it landed. A
    /// kill of the top-hosting node surfaces as
    /// [`LiflError::AggregatorFailure`]: the round is lost wholesale and the
    /// latest checkpoint is restored ([`Cluster::take_recovery`]).
    pub fn drive(&mut self) -> Result<ClusterReport> {
        self.settle()?;
        if let (Some(node), Some(f)) = (self.refill_node(), &self.faults) {
            let lost_updates = f.refill[node];
            return Err(LiflError::NodeFailure {
                node: node as u64,
                lost_updates,
            });
        }
        self.validate_round()?;
        let resuming = self.faults.as_ref().is_some_and(|f| f.placed);
        let replacement = if resuming { None } else { self.place_top() };
        if let Some(f) = &mut self.faults {
            f.placed = true;
        }
        match self.drive_hops() {
            Ok(mut report) => {
                report.replacement = replacement;
                self.ingress.reset_round();
                self.node_pending.fill(0);
                // Next move's handoff ships the warm global intermediate.
                self.handoff_bytes = report.update.model.dim() as u64 * 4;
                if let Some(f) = &mut self.faults {
                    let now = f.clock;
                    f.recovery.commit_version(&report.update.model, now);
                    f.clear_round();
                }
                // The round boundary: observe queue depths, let the fleet
                // controller re-split subtrees, then drain the backlog into
                // the (possibly resized) fresh round.
                report.queue_depths = self.queue_depths();
                report.scaling = self.apply_fleet_scaling();
                ingress::drain(self);
                Ok(report)
            }
            Err(error) => {
                // A survivable node kill keeps the partial round for retry;
                // a top kill already cleaned up after itself. Everything
                // else aborts the round exactly as without fault tolerance.
                let survivable = self.faults.is_some()
                    && matches!(
                        error,
                        LiflError::NodeFailure { .. } | LiflError::AggregatorFailure { .. }
                    );
                if !survivable {
                    self.abort_round();
                }
                Err(error)
            }
        }
    }

    /// Validates the round is closable: exact fill by default, the
    /// configured quorum under a [`RoundClose::Quorum`] admission close.
    fn validate_round(&self) -> Result<()> {
        let capacity = self.round_capacity();
        let ingested = self.ingress.ingested() as usize;
        let close = self
            .ingress
            .config()
            .map_or(RoundClose::Exact, |config| config.round_close);
        match close {
            RoundClose::Exact => {
                if capacity == self.topology.total_updates() {
                    self.topology.validate(ingested)
                } else if ingested != capacity {
                    // Fleet scaling has re-split a subtree: the built
                    // topology's error message would mislead, so report
                    // against the live capacity.
                    Err(LiflError::InvalidConfig(format!(
                        "cluster round incomplete: the scaled fleet aggregates {capacity} \
                         updates, got {ingested}"
                    )))
                } else {
                    Ok(())
                }
            }
            quorum @ RoundClose::Quorum { .. } => {
                let required = quorum.required_updates(capacity);
                if ingested < required {
                    return Err(LiflError::InvalidConfig(format!(
                        "quorum not met: round has {ingested} of {required} required updates"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Applies the KPA fleet decisions of one round boundary: every node
    /// whose desired leaf count changed gets its subtree re-split to a
    /// two-level tree of that many leaves at the node's existing leaf
    /// fan-in, priced as a warm-state transfer per changed leaf. Returns
    /// one action per node (resize or hold) so scaling traces are complete.
    fn apply_fleet_scaling(&mut self) -> Vec<ScalingAction> {
        let Some(fleet) = self.fleet.as_mut() else {
            return Vec::new();
        };
        let mut depths: Vec<f64> = self.ingress.depths().iter().map(|&d| d as f64).collect();
        depths.resize(self.children.len(), 0.0);
        let current = self.children.iter().map(|c| c.topology().leaves() as u32);
        let decisions = fleet.observe_round(&depths, &current.collect::<Vec<u32>>());
        let handoff = self.handoff_bytes;
        let mut actions = Vec::with_capacity(decisions.len());
        for decision in decisions {
            let changed = (decision.spawned() + decision.retired()) as u64;
            let cost = self
                .cost
                .hop_transfer(false, self.dataplane, changed * handoff);
            if decision.is_resize() {
                // A failed rebuild (impossible for in-bounds leaf counts)
                // keeps the old subtree; the decision still lands in the
                // trace so divergence is visible.
                let _ = self.resize_node(decision.node, decision.desired_leaves as usize);
            }
            actions.push(ScalingAction { decision, cost });
        }
        actions
    }

    /// Re-splits one node's subtree to `desired_leaves` leaf aggregators at
    /// the node's existing leaf fan-in (the [`Topology::split_top`]-style
    /// re-split, applied per node). The rebuilt session keeps the node's
    /// tree position, codec seed, fold policy and pool, so scaled rounds
    /// stay deterministic.
    fn resize_node(&mut self, node: usize, desired_leaves: usize) -> Result<()> {
        let fan_in = self.children[node].topology().fan_in(0);
        let topology = Topology::two_level(desired_leaves.max(1), fan_in);
        self.children[node] = self.sessions.build(topology, node, 0, node)?;
        Ok(())
    }

    /// Re-evaluates top placement at a round boundary: feeds the round's
    /// per-node ingest counts into the EWMAs, then (under live placement)
    /// moves the top to the most-loaded node unless the incumbent already
    /// ties it. Returns the priced handoff when a move happened.
    fn place_top(&mut self) -> Option<TopMove> {
        for (estimator, pending) in self.estimators.iter_mut().zip(&self.node_pending) {
            estimator.observe(*pending as f64);
        }
        if !matches!(self.placement, TopPlacement::MostLoaded { .. }) {
            return None;
        }
        let estimates: Vec<f64> = self
            .estimators
            .iter()
            .map(|e| e.estimate().unwrap_or(0.0))
            .collect();
        let best = estimates.iter().copied().fold(f64::MIN, f64::max);
        // Incumbent-wins tie-breaking: equal load never churns the top.
        if estimates[self.top_node] >= best {
            return None;
        }
        let to = estimates.iter().position(|&e| e == best)?;
        let from = NodeId::new(self.top_node as u64);
        self.top_node = to;
        Some(TopMove {
            from,
            to: NodeId::new(to as u64),
            state_bytes: self.handoff_bytes,
            cost: self
                .cost
                .hop_transfer(false, self.dataplane, self.handoff_bytes),
        })
    }

    /// Plans a drive attempt exactly as a node-at-a-time walk would take
    /// it: every node passed in order as `(node, ships)` — `false` for a hop
    /// an earlier attempt already folded (dedup) — up to the victim of a
    /// scheduled kill that strikes once as many hops are done (earlier
    /// attempts' and this plan's). The kill is checked before an empty
    /// quorum subtree is skipped, so an empty node at the kill point fires.
    fn plan(&self) -> (Vec<(usize, bool)>, Option<usize>) {
        let done = |k: usize| self.faults.as_ref().is_some_and(|f| f.hop_done[k]);
        let scheduled = self.faults.as_ref().and_then(|f| f.scheduled);
        let mut hopped = (0..self.children.len()).filter(|&k| done(k)).count() as u64;
        let mut steps = Vec::with_capacity(self.children.len());
        for (k, child) in self.children.iter().enumerate() {
            if done(k) {
                steps.push((k, false));
            } else if let Some((victim, _)) = scheduled.filter(|&(_, after)| hopped >= after) {
                return (steps, Some(victim));
            } else if child.pending_updates() > 0 || !self.sessions.quorum {
                // A quorum round can leave whole subtrees empty: no export,
                // no hop, nothing for the top to fold from this node.
                steps.push((k, true));
                hopped += 1;
            }
        }
        (steps, None)
    }

    /// One drive attempt as one tree: **plan** it in node order, **run**
    /// every planned node subtree as one forest, **commit** the hops into
    /// the parent in node order, then **fire** the scheduled kill or drive
    /// the global top. Resumes a partially shipped round when fault
    /// tolerance is enabled.
    fn drive_hops(&mut self) -> Result<ClusterReport> {
        let (mut hops, mut nodes) = match &mut self.faults {
            Some(f) => (take(&mut f.partial_hops), take(&mut f.partial_nodes)),
            None => (Vec::new(), Vec::new()),
        };
        let (steps, kill) = self.plan();
        let mut planned: Vec<&mut Session> = (self.children.iter_mut().enumerate())
            .filter(|(k, _)| steps.contains(&(*k, true)))
            .map(|(_, child)| child)
            .collect();
        let mut exports = Session::drive_forest_to_wire(&mut planned).into_iter();
        for (k, ships) in steps {
            // Retry-with-dedup: a node whose intermediate already reached
            // the global top on an earlier attempt never re-ships (or
            // re-prices) its hop.
            let Some(export) = ships.then(|| exports.next()).flatten() else {
                if let Some(f) = &mut self.faults {
                    f.stats.deduped_hops += 1;
                }
                continue;
            };
            // The first failure in node order is the drive's; the round is
            // aborted, the later nodes' exports with it.
            let export = export?;
            let (node, wire_bytes) = (NodeId::new(k as u64), export.wire_bytes());
            nodes.push(NodeRoundReport {
                node,
                store_stats: export.store_stats,
                ingress_wire_bytes: export.ingress_wire_bytes,
                updates_ingested: export.updates_ingested,
            });
            self.parent.ingest(export.update)?;
            let same_node = k == self.top_node;
            hops.push(ClusterHop {
                node,
                wire_bytes,
                same_node,
                cost: self
                    .cost
                    .hop_transfer(same_node, self.dataplane, wire_bytes),
            });
            // The export is safely folded at the top: from here on a kill of
            // this node loses nothing of the round.
            self.node_pending[k] = 0;
            if let Some(f) = &mut self.faults {
                f.hop_done[k] = true;
                f.node_clients[k].clear();
                f.recovery.record_fold();
            }
        }
        if let (Some(victim), Some(f)) = (kill, &mut self.faults) {
            f.scheduled = None;
            f.partial_hops = hops;
            f.partial_nodes = nodes;
            return Err(self.kill_node(victim));
        }
        let report = self.parent.drive()?;
        Ok(ClusterReport {
            update: report.update,
            topology: self.topology.clone(),
            nodes,
            hops,
            top_node: NodeId::new(self.top_node as u64),
            replacement: None,
            top_store_stats: report.store_stats,
            queue_depths: Vec::new(),
            scaling: Vec::new(),
        })
    }

    /// Discards the current (not yet driven) round on every node, returning
    /// the cluster to an empty round. Per-client error-feedback residuals
    /// (encodes still in flight finish first) and the load estimators
    /// persist.
    pub fn discard_round(&mut self) {
        ingress::settle(self);
        self.abort_round();
    }

    /// Discards the round on every node (failed drives already reset the
    /// failing session; this sweeps the survivors and the parent).
    fn abort_round(&mut self) {
        for child in &mut self.children {
            child.discard_round();
        }
        self.parent.discard_round();
        self.ingress.reset_round();
        self.node_pending.fill(0);
        if let Some(f) = &mut self.faults {
            f.clear_round();
        }
    }

    /// The fold policy every aggregator in the cluster applies.
    pub fn fold_policy(&self) -> FoldPolicy {
        self.sessions.policy
    }

    /// Whether the failure-handling machinery is enabled.
    pub fn fault_tolerance_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// The checkpoint store the cluster's recovery manager commits global
    /// models to, when fault tolerance is enabled.
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.faults.as_ref().map(|f| f.recovery.store())
    }

    /// Running failure-handling totals, when fault tolerance is enabled.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats)
    }

    /// Advances the cluster's fault clock (used to timestamp checkpoints and
    /// recoveries). Heartbeats and failure detection advance it implicitly.
    pub fn set_time(&mut self, now: SimTime) {
        if let Some(f) = &mut self.faults {
            f.advance_clock(now);
        }
    }

    /// Records a keep-alive heartbeat from a node's LIFL agent.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when fault tolerance is not
    /// enabled or the node is outside the cluster.
    pub fn node_heartbeat(&mut self, node: NodeId, now: SimTime) -> Result<()> {
        let f = self.require_faults(Some(node))?;
        f.advance_clock(now);
        f.monitor.heartbeat(ClientId::new(node.index()), now);
        Ok(())
    }

    /// Declares failed — and kills, exactly like
    /// [`Cluster::inject_node_failure`] — every node whose last heartbeat is
    /// older than the configured timeout at `now`, returning the kills in
    /// node order. Each overdue node is reported (and killed) exactly once;
    /// restarted nodes resume heartbeating from `now`.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when fault tolerance is not
    /// enabled, or a checkpoint-restore error when a top-host kill finds a
    /// corrupt checkpoint.
    pub fn detect_failed_nodes(&mut self, now: SimTime) -> Result<Vec<NodeKill>> {
        let f = self.require_faults(None)?;
        f.advance_clock(now);
        let overdue: Vec<usize> = f
            .monitor
            .take_failed(now)
            .into_iter()
            .map(|client| client.index() as usize)
            .collect();
        let mut kills = Vec::with_capacity(overdue.len());
        for node in overdue {
            kills.push(self.kill_checked(node)?);
        }
        Ok(kills)
    }

    /// Kills a node *now* (the fault-injection hook): its child [`Session`]
    /// loses the in-flight round state, exactly as a crashed process would.
    ///
    /// For an ordinary node the cluster round survives: the lost slots are
    /// tracked for refill ([`Cluster::take_lost_clients`] says whose updates
    /// must be re-sent) and the next [`Cluster::drive`] fails with
    /// [`LiflError::NodeFailure`] until they are. A node whose intermediate
    /// already reached the global top this round loses nothing. Killing the
    /// top-hosting node loses the whole round and restores the latest
    /// checkpoint ([`Cluster::take_recovery`]).
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when fault tolerance is not
    /// enabled or the node is outside the cluster, and a checkpoint-restore
    /// error when a top-host kill finds a corrupt checkpoint.
    pub fn inject_node_failure(&mut self, node: NodeId) -> Result<NodeKill> {
        self.require_faults(Some(node))?;
        self.kill_checked(node.index() as usize)
    }

    /// Schedules a node kill that fires *inside* the next drive, once
    /// `after_hops` gateway-to-gateway hops of the round have completed —
    /// the mid-round fault-injection hook the fault test tier drives.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when fault tolerance is not
    /// enabled or the node is outside the cluster.
    pub fn schedule_node_failure(&mut self, node: NodeId, after_hops: u64) -> Result<()> {
        let f = self.require_faults(Some(node))?;
        f.scheduled = Some((node.index() as usize, after_hops));
        Ok(())
    }

    /// Clients whose updates were lost to node kills and must be re-sent
    /// (each reported exactly once). Re-ingesting them refills the restarted
    /// node directly, leaving the survivors' leaf assignment untouched.
    pub fn take_lost_clients(&mut self) -> Vec<ClientId> {
        self.faults
            .as_mut()
            .map(|f| std::mem::take(&mut f.lost_clients))
            .unwrap_or_default()
    }

    /// The checkpoint restore performed for the most recent top-host kill,
    /// if one happened since the last take.
    pub fn take_recovery(&mut self) -> Option<TopRecovery> {
        self.faults.as_mut().and_then(|f| f.last_recovery.take())
    }

    /// The failure-handling state, once `node` (when given) is checked to
    /// lie inside the cluster.
    fn require_faults(&mut self, node: Option<NodeId>) -> Result<&mut FaultState> {
        let nodes = self.children.len();
        let Some(f) = self.faults.as_mut() else {
            return Err(LiflError::InvalidConfig(
                "fault tolerance is not enabled on this cluster \
                 (see ClusterBuilder::fault_tolerance)"
                    .to_string(),
            ));
        };
        match node {
            Some(node) if node.index() as usize >= nodes => Err(LiflError::InvalidConfig(format!(
                "node {node:?} outside the cluster's {nodes} nodes"
            ))),
            _ => Ok(f),
        }
    }

    /// Kills `node` (bounds already checked), translating the resulting
    /// error into the [`NodeKill`] report the injection APIs return.
    fn kill_checked(&mut self, node: usize) -> Result<NodeKill> {
        // What was offered before the kill has landed when it strikes.
        ingress::settle(self);
        let top_host = node == self.top_node;
        let lost_updates = if top_host {
            self.ingress.ingested()
        } else {
            self.node_pending[node]
        };
        match self.kill_node(node) {
            LiflError::NodeFailure { .. } | LiflError::AggregatorFailure { .. } => Ok(NodeKill {
                node: NodeId::new(node as u64),
                lost_updates,
                top_host,
            }),
            other => Err(other),
        }
    }

    /// The kill itself: discards what the dead process held and records what
    /// the round must get back. Returns the failure as an error value (the
    /// mid-drive path propagates it out of [`Cluster::drive`]).
    fn kill_node(&mut self, node: usize) -> LiflError {
        if node == self.top_node {
            return self.kill_top(node);
        }
        let lost = self.node_pending[node];
        // The crashed process takes its subtree's in-flight round with it;
        // the restarted (stateless) session starts from an empty round.
        self.children[node].discard_round();
        self.ingress.forfeit(lost);
        self.node_pending[node] = 0;
        // lifl-lint: allow(panic) — node kills are only injectable through
        // the fault harness, which populates `self.faults` at construction.
        let f = self.faults.as_mut().expect("kill paths require faults");
        f.refill[node] += lost;
        let clients = std::mem::take(&mut f.node_clients[node]);
        f.lost_clients.extend(clients);
        f.stats.node_restarts += 1;
        f.stats.lost_updates += lost;
        let now = f.clock;
        // The restarted node resumes heartbeating.
        f.monitor.register(ClientId::new(node as u64), now);
        LiflError::NodeFailure {
            node: node as u64,
            lost_updates: lost,
        }
    }

    /// A kill of the node hosting the global top: the whole round is lost
    /// (its partially folded top state died with the process) and the
    /// replacement runtime restores the latest checkpoint, priced as a
    /// network transfer from the persistent store.
    fn kill_top(&mut self, node: usize) -> LiflError {
        let lost = self.ingress.ingested();
        let lost_clients: u64 = self
            .faults
            .as_ref()
            .map(|f| f.node_clients.iter().map(|c| c.len() as u64).sum())
            .unwrap_or(0);
        self.abort_round();
        let cost = self.cost;
        let dataplane = self.dataplane;
        // lifl-lint: allow(panic) — top kills are only injectable through
        // the fault harness, which populates `self.faults` at construction.
        let f = self.faults.as_mut().expect("kill paths require faults");
        f.stats.top_recoveries += 1;
        f.stats.lost_updates += lost.max(lost_clients);
        let now = f.clock;
        match f.recovery.fail_and_recover(now) {
            Ok(outcome) => {
                let bytes = outcome
                    .recovered_model
                    .as_ref()
                    .map_or(0, |m| m.dim() as u64 * 4);
                let transfer = cost.hop_transfer(false, dataplane, bytes);
                f.last_recovery = Some(TopRecovery { outcome, transfer });
                f.monitor.register(ClientId::new(node as u64), now);
                LiflError::AggregatorFailure { node: node as u64 }
            }
            Err(error) => error,
        }
    }
}

/// The cluster's side of the one ingest implementation: its slots are its
/// nodes, each behind its own session and store.
impl Backend for Cluster {
    fn ingress(&mut self) -> &mut Ingress {
        &mut self.ingress
    }

    fn has_room(&self) -> bool {
        Cluster::has_room(self)
    }

    fn admit(&mut self, update: Update, producer: Option<ClientId>) -> Result<()> {
        Cluster::admit(self, update, producer)
    }

    fn reserve(&mut self, client: ClientId, stored: u64) -> Result<Target> {
        let refill = self.refill_node();
        let route = self.ingress.route(refill, self.cursor_node());
        let node = route.slot;
        // The node's store sees the encodes in flight to it only when they
        // are committed.
        let pending = self.ingress.in_flight_bytes(Some(node));
        let leaf = self.children[node].reserve(pending, stored);
        if leaf.is_ok() {
            self.count_in(node, refill.is_some(), Some(client));
        }
        self.ingress.settle(route, leaf.is_ok());
        leaf.map(|leaf| Target { slot: node, leaf })
    }

    fn commit(&mut self, target: Target, update: Update) -> Result<()> {
        self.children[target.slot].commit(target.leaf, update)
    }
}

/// A cluster is an [`Ingest`](lifl_fl::Ingest) backend: the federated,
/// multi-node target the multi-round training driver
/// ([`crate::training::TrainingDriver`]) runs over — bit-exact with the
/// same driver over a single [`Session`] of the global tree (enforced by
/// the `tests/it/driver.rs` tier).
impl lifl_fl::Ingest for Cluster {
    fn ingest_update(&mut self, update: Update) -> Result<()> {
        self.ingest(update)
    }

    fn try_ingest(&mut self, update: Update) -> Result<AdmissionOutcome> {
        Cluster::try_ingest(self, update)
    }

    fn round_capacity(&self) -> usize {
        Cluster::round_capacity(self)
    }

    fn ingress_codec(&self) -> CodecKind {
        self.sessions.codec
    }

    fn aggregate_round(&mut self) -> Result<lifl_fl::RoundAggregate> {
        let report = self.drive()?;
        Ok(lifl_fl::RoundAggregate {
            ingress_wire_bytes: report.nodes.iter().map(|n| n.ingress_wire_bytes).sum(),
            updates_ingested: report.updates_ingested(),
            update: report.update,
        })
    }

    fn discard_round(&mut self) {
        Cluster::discard_round(self);
    }
}

#[cfg(test)]
impl Cluster {
    /// Settles, then the stored bytes of every update of the open round,
    /// node by node in arrival order.
    pub(crate) fn stored_wires(&mut self) -> Vec<Vec<u8>> {
        ingress::settle(self);
        self.children
            .iter_mut()
            .flat_map(Session::stored_wires)
            .collect()
    }

    /// Settles, then `client`'s residual at the cluster ingress as bits.
    pub(crate) fn residual_bits(&mut self, client: ClientId) -> Option<Vec<u32>> {
        ingress::settle(self);
        self.ingress.residual_bits(client)
    }

    /// Re-splits `node`'s subtree to `leaves` leaves, as fleet scaling does.
    pub(crate) fn resplit(&mut self, node: usize, leaves: usize) {
        self.resize_node(node, leaves).unwrap();
    }

    /// [`Cluster::drive`] the way it was before node subtrees ran as one
    /// forest — each node driven alone through [`Session::drive_to_wire`]
    /// and its hop shipped, node after node — for a cluster without fault
    /// tolerance or fleet scaling: the twin the forest is checked against.
    pub(crate) fn drive_one_node_at_a_time(&mut self) -> Result<ClusterReport> {
        ingress::settle(self);
        self.validate_round()?;
        let replacement = self.place_top();
        let (mut hops, mut nodes) = (Vec::new(), Vec::new());
        for k in 0..self.children.len() {
            if self.children[k].pending_updates() == 0 && self.sessions.quorum {
                continue;
            }
            let export = self.children[k].drive_to_wire()?;
            let (node, wire_bytes) = (NodeId::new(k as u64), export.wire_bytes());
            nodes.push(NodeRoundReport {
                node,
                store_stats: export.store_stats,
                ingress_wire_bytes: export.ingress_wire_bytes,
                updates_ingested: export.updates_ingested,
            });
            self.parent.ingest(export.update)?;
            let same_node = k == self.top_node;
            hops.push(ClusterHop {
                node,
                wire_bytes,
                same_node,
                cost: self
                    .cost
                    .hop_transfer(same_node, self.dataplane, wire_bytes),
            });
        }
        let report = self.parent.drive()?;
        self.ingress.reset_round();
        self.node_pending.fill(0);
        self.handoff_bytes = report.update.model.dim() as u64 * 4;
        ingress::drain(self);
        Ok(ClusterReport {
            update: report.update,
            topology: self.topology.clone(),
            nodes,
            hops,
            top_node: NodeId::new(self.top_node as u64),
            replacement,
            top_store_stats: report.store_stats,
            queue_depths: Vec::new(),
            scaling: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_fl::aggregate::fedavg;
    use lifl_fl::DenseModel;

    fn updates(n: usize, dim: usize) -> Vec<ModelUpdate> {
        (0..n)
            .map(|i| {
                let values: Vec<f32> = (0..dim)
                    .map(|d| ((i * dim + d * 5) % 97) as f32 * 0.04 - 1.9)
                    .collect();
                ModelUpdate::from_client(
                    ClientId::new(i as u64),
                    DenseModel::from_vec(values),
                    (i + 1) as u64,
                )
            })
            .collect()
    }

    #[test]
    fn flat_topology_cannot_federate() {
        assert!(ClusterBuilder::new()
            .topology(Topology::flat(4))
            .build()
            .is_err());
        assert!(ClusterBuilder::new()
            .placement(TopPlacement::Pinned(9))
            .build()
            .is_err());
    }

    #[test]
    fn every_station_identity_is_unique_and_is_its_inbox_registration() {
        // Regression: each node's stations used to report their *local*
        // position, so every node's leaf 0 was the same aggregator.
        let topology = Topology::new(vec![8, 4, 4]).unwrap();
        let mut cluster = ClusterBuilder::new()
            .topology(topology.clone())
            .build()
            .unwrap();
        let mut ids = std::collections::BTreeSet::new();
        for session in cluster.children.iter_mut().chain([&mut cluster.parent]) {
            for id in session.station_ids() {
                assert!(ids.insert(id), "{id} serves two positions");
            }
        }
        assert_eq!(ids.len(), topology.aggregators());
    }

    #[test]
    fn live_placement_moves_top_to_most_loaded_node() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .build()
            .unwrap();
        assert_eq!(cluster.top_node(), NodeId::new(0));
        // A cluster round always fills the tree evenly, so ingest counts
        // alone never move the top: uniform load keeps the incumbent.
        let batch = updates(8, 16);
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let report = cluster.drive().unwrap();
        assert!(report.replacement.is_none());
        assert_eq!(report.top_node, NodeId::new(0));
        // An out-of-band signal (a deep pending queue reported for node 1)
        // tips the EWMA and the next round's boundary moves the top.
        cluster.observe_node_load(NodeId::new(1), 64.0);
        let estimates = cluster.load_estimates();
        assert!(estimates[1].1 > estimates[0].1);
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let report = cluster.drive().unwrap();
        let moved = report.replacement.as_ref().expect("top must move");
        assert_eq!(moved.from, NodeId::new(0));
        assert_eq!(moved.to, NodeId::new(1));
        // The handoff ships the previous round's warm global intermediate.
        assert_eq!(moved.state_bytes, 16 * 4);
        assert!(moved.cost.latency > SimDuration::ZERO);
        assert_eq!(report.top_node, NodeId::new(1));
        assert_eq!(cluster.top_node(), NodeId::new(1));
        // Hop pricing follows the move: node 1's hop is now the local one.
        assert!(!report.hops[0].same_node);
        assert!(report.hops[1].same_node);
        // With no fresh signal the EWMA decays slowly: the top stays put
        // rather than churning back on the next round.
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let report = cluster.drive().unwrap();
        assert!(report.replacement.is_none());
        assert_eq!(report.top_node, NodeId::new(1));
    }

    #[test]
    fn pinned_placement_never_moves() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .placement(TopPlacement::Pinned(1))
            .build()
            .unwrap();
        cluster.observe_node_load(NodeId::new(0), 1000.0);
        let batch = updates(8, 16);
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let report = cluster.drive().unwrap();
        assert!(report.replacement.is_none());
        assert_eq!(report.top_node, NodeId::new(1));
        assert!(!report.hops[0].same_node);
        assert!(report.hops[1].same_node);
    }

    #[test]
    fn identity_cluster_matches_flat_fedavg() {
        let topology = Topology::new(vec![2, 2, 2]).unwrap();
        let batch = updates(topology.total_updates(), 24);
        let mut cluster = ClusterBuilder::new()
            .topology(topology.clone())
            .build()
            .unwrap();
        assert_eq!(cluster.nodes(), 2);
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let report = cluster.drive().unwrap();
        let flat = fedavg(&batch).unwrap();
        assert_eq!(report.update.samples, flat.samples);
        assert_eq!(report.updates_ingested(), 8);
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(flat.model.as_slice())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        // Every node contributed half the round through its own store.
        assert_eq!(report.nodes.len(), 2);
        for node in &report.nodes {
            assert_eq!(node.updates_ingested, 4);
        }
        // One hop stayed on the top node, one crossed the network.
        assert_eq!(report.hops.len(), 2);
        assert!(report.hops[0].same_node);
        assert!(!report.hops[1].same_node);
        assert!(report.hops[1].cost.latency > report.hops[0].cost.latency);
        assert_eq!(report.inter_node_wire_bytes(), 24 * 4);
        assert!(report.serialized_hop_latency() > SimDuration::ZERO);
    }

    #[test]
    fn quantized_hops_cross_fewer_bytes() {
        let topology = Topology::new(vec![2, 2, 3]).unwrap();
        let batch = updates(topology.total_updates(), 256);
        let run = |codec: CodecKind| {
            let mut cluster = ClusterBuilder::new()
                .topology(topology.clone())
                .codec(codec)
                .build()
                .unwrap();
            cluster
                .ingest_all(batch.iter().cloned().map(Update::Dense))
                .unwrap();
            cluster.drive().unwrap()
        };
        let dense = run(CodecKind::Identity);
        let quantized = run(CodecKind::Uniform8);
        assert!(quantized.inter_node_wire_bytes() * 3 < dense.inter_node_wire_bytes());
        assert!(quantized.serialized_hop_latency() < dense.serialized_hop_latency());
        // The compressed form is what the top node's store received.
        assert!(quantized.top_store_stats.encoded_puts > 0);
        assert_eq!(dense.top_store_stats.encoded_puts, 0);
    }

    #[test]
    fn clusters_are_reusable_and_stores_stay_bounded() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .codec(CodecKind::Uniform4)
            .build()
            .unwrap();
        let batch = updates(8, 64);
        for _ in 0..3 {
            cluster
                .ingest_all(batch.iter().cloned().map(Update::Dense))
                .unwrap();
            let report = cluster.drive().unwrap();
            assert_eq!(report.updates_ingested(), 8);
            assert_eq!(cluster.pending_updates(), 0);
        }
        for session in cluster.node_sessions() {
            assert_eq!(
                session.store().stats().live_objects,
                0,
                "node rounds must not leak store objects"
            );
        }
        assert!(cluster.pool().stats().hits > 0, "codec scratch was pooled");
    }

    #[test]
    fn failed_round_is_discarded_on_every_node() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 1, 2]).unwrap())
            .build()
            .unwrap();
        let batch = updates(4, 16);
        for update in batch.iter().take(3) {
            cluster.ingest(Update::Dense(update.clone())).unwrap();
        }
        // Wrong dimension on the last leaf: node 1's subtree fails mid-drive.
        cluster
            .ingest(Update::remote_bytes(vec![0u8; 8], 1, false))
            .unwrap();
        assert!(cluster.drive().is_err());
        assert_eq!(cluster.pending_updates(), 0);
        for session in cluster.node_sessions() {
            assert_eq!(session.store().stats().live_objects, 0);
        }
        // A fresh, fully valid round drives cleanly.
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        assert!(cluster.drive().is_ok());
    }

    #[test]
    fn for_load_builds_the_planner_shape() {
        let cluster = ClusterBuilder::new().for_load(40, 2, 0, 4).build().unwrap();
        // 10 updates per node at fan-in 2: a [2, 5] subtree per node.
        assert_eq!(cluster.nodes(), 4);
        assert_eq!(cluster.subtree(), &Topology::two_level(5, 2));
        // A capped interior fan-in grows deeper per-node subtrees.
        let deep = ClusterBuilder::new().for_load(64, 2, 4, 2).build().unwrap();
        assert!(deep.subtree().levels() > 2);
    }

    #[test]
    fn for_load_overflow_is_deferred_to_build_not_a_panic() {
        // A load this large overflows the planned tree's update count; the
        // builder must carry the error to build() instead of panicking.
        let outcome = ClusterBuilder::new().for_load(usize::MAX, 1, 0, 2).build();
        assert!(matches!(outcome, Err(LiflError::InvalidConfig(_))));
    }

    #[test]
    fn invalid_fold_policy_is_rejected_at_build() {
        let outcome = ClusterBuilder::new()
            .fold_policy(FoldPolicy::TrimmedMean { trim_permille: 500 })
            .build();
        assert!(matches!(outcome, Err(LiflError::InvalidConfig(_))));
        let cluster = ClusterBuilder::new()
            .fold_policy(FoldPolicy::Median)
            .build()
            .unwrap();
        assert_eq!(cluster.fold_policy(), FoldPolicy::Median);
    }

    #[test]
    fn fault_apis_require_fault_tolerance() {
        let mut cluster = ClusterBuilder::new().build().unwrap();
        assert!(!cluster.fault_tolerance_enabled());
        assert!(cluster.inject_node_failure(NodeId::new(0)).is_err());
        assert!(cluster.schedule_node_failure(NodeId::new(0), 1).is_err());
        assert!(cluster.detect_failed_nodes(SimTime::ZERO).is_err());
        assert!(cluster
            .node_heartbeat(NodeId::new(0), SimTime::ZERO)
            .is_err());
        assert!(cluster.take_lost_clients().is_empty());
        assert!(cluster.take_recovery().is_none());
        assert!(cluster.fault_stats().is_none());
        assert!(cluster.checkpoint_store().is_none());
    }

    #[test]
    fn injected_child_failure_survives_via_refill_and_redrive() {
        let topology = Topology::new(vec![2, 2, 2]).unwrap();
        let batch = updates(8, 16);
        let mut clean = ClusterBuilder::new()
            .topology(topology.clone())
            .build()
            .unwrap();
        clean
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let clean_report = clean.drive().unwrap();

        let mut cluster = ClusterBuilder::new()
            .topology(topology)
            .fault_tolerance(FaultToleranceConfig::default())
            .build()
            .unwrap();
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        // Kill node 1 (not the top host) with the whole round pending.
        let kill = cluster.inject_node_failure(NodeId::new(1)).unwrap();
        assert!(!kill.top_host);
        assert_eq!(kill.lost_updates, 4);
        // Driving before the lost slots are refilled reports the failure.
        assert!(matches!(
            cluster.drive(),
            Err(LiflError::NodeFailure {
                node: 1,
                lost_updates: 4
            })
        ));
        // The lost clients re-send; their updates refill the restarted node
        // directly, leaving node 0's leaf assignment untouched.
        let lost = cluster.take_lost_clients();
        assert_eq!(lost.len(), 4);
        assert!(cluster.take_lost_clients().is_empty(), "reported once");
        for client in &lost {
            let update = batch
                .iter()
                .find(|u| u.client == Some(*client))
                .expect("lost client came from the batch");
            cluster.ingest(Update::Dense(update.clone())).unwrap();
        }
        let report = cluster.drive().unwrap();
        assert_eq!(report.updates_ingested(), 8);
        // Same updates, same order, lossless codec: the survived round is
        // bit-exact with the undisturbed one.
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(clean_report.update.model.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        let stats = cluster.fault_stats().unwrap();
        assert_eq!(stats.node_restarts, 1);
        assert_eq!(stats.lost_updates, 4);
        assert_eq!(stats.top_recoveries, 0);
    }

    #[test]
    fn mid_drive_kill_retries_with_deduped_survivor_hops() {
        let topology = Topology::new(vec![2, 2, 2]).unwrap();
        let batch = updates(8, 16);
        let mut clean = ClusterBuilder::new()
            .topology(topology.clone())
            .build()
            .unwrap();
        clean
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let clean_report = clean.drive().unwrap();

        let mut cluster = ClusterBuilder::new()
            .topology(topology)
            .fault_tolerance(FaultToleranceConfig::default())
            .build()
            .unwrap();
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        // Node 1 dies mid-drive, after node 0's intermediate already reached
        // the global top.
        cluster.schedule_node_failure(NodeId::new(1), 1).unwrap();
        assert!(matches!(
            cluster.drive(),
            Err(LiflError::NodeFailure {
                node: 1,
                lost_updates: 4
            })
        ));
        for client in cluster.take_lost_clients() {
            let update = batch
                .iter()
                .find(|u| u.client == Some(client))
                .expect("lost client came from the batch");
            cluster.ingest(Update::Dense(update.clone())).unwrap();
        }
        let report = cluster.drive().unwrap();
        assert_eq!(report.updates_ingested(), 8);
        // Node 0's hop was not re-shipped: the retry deduped it, and the
        // report still prices exactly one hop per node.
        assert_eq!(report.hops.len(), 2);
        assert_eq!(cluster.fault_stats().unwrap().deduped_hops, 1);
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(clean_report.update.model.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn already_exported_node_kill_loses_nothing() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .placement(TopPlacement::Pinned(1))
            .fault_tolerance(FaultToleranceConfig::default())
            .build()
            .unwrap();
        let batch = updates(8, 16);
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        // Node 0 (not the top host) dies after its own hop completed: its
        // intermediate is already safe at the top, so nothing is lost.
        cluster.schedule_node_failure(NodeId::new(0), 1).unwrap();
        assert!(matches!(
            cluster.drive(),
            Err(LiflError::NodeFailure {
                node: 0,
                lost_updates: 0
            })
        ));
        assert!(cluster.take_lost_clients().is_empty());
        // The retry completes without any re-sends.
        let report = cluster.drive().unwrap();
        assert_eq!(report.updates_ingested(), 8);
    }

    #[test]
    fn top_host_kill_restores_the_latest_checkpoint() {
        use crate::recovery::model_from_bytes;

        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .fault_tolerance(FaultToleranceConfig {
                checkpoint_every: 1,
                ..FaultToleranceConfig::default()
            })
            .build()
            .unwrap();
        let batch = updates(8, 16);
        // Round 1 commits and checkpoints the global model.
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let committed = cluster.drive().unwrap();
        // Round 2 is mid-flight when the top-hosting node dies: the round is
        // lost wholesale and the checkpoint is restored.
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let kill = cluster.inject_node_failure(cluster.top_node()).unwrap();
        assert!(kill.top_host);
        assert_eq!(kill.lost_updates, 8);
        let recovery = cluster.take_recovery().expect("a recovery happened");
        let recovered = recovery.outcome.recovered_model.expect("checkpointed");
        // The restore is bit-exact with the checkpointed bytes, which are
        // bit-exact with the committed round-1 model.
        let latest = cluster
            .checkpoint_store()
            .unwrap()
            .latest()
            .expect("round 1 checkpointed");
        assert_eq!(model_from_bytes(&latest.data).unwrap(), recovered);
        for (a, b) in recovered
            .as_slice()
            .iter()
            .zip(committed.update.model.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        assert!(recovery.transfer.latency > SimDuration::ZERO);
        let stats = cluster.fault_stats().unwrap();
        assert_eq!(stats.top_recoveries, 1);
        assert_eq!(stats.lost_updates, 8);
        // The cluster is empty and immediately reusable.
        assert_eq!(cluster.pending_updates(), 0);
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        assert!(cluster.drive().is_ok());
    }

    #[test]
    fn silent_nodes_are_detected_and_killed_by_heartbeat_timeout() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .fault_tolerance(FaultToleranceConfig {
                heartbeat_timeout: SimDuration::from_secs(30.0),
                ..FaultToleranceConfig::default()
            })
            .build()
            .unwrap();
        let batch = updates(8, 16);
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        // Node 0 keeps heartbeating; node 1 has been silent since start.
        let now = SimTime::from_secs(40.0);
        cluster.node_heartbeat(NodeId::new(0), now).unwrap();
        let kills = cluster.detect_failed_nodes(now).unwrap();
        assert_eq!(
            kills,
            vec![NodeKill {
                node: NodeId::new(1),
                lost_updates: 4,
                top_host: false,
            }]
        );
        // Each failure is detected exactly once: the restarted node resumes
        // heartbeating from the detection time.
        assert!(cluster
            .detect_failed_nodes(SimTime::from_secs(45.0))
            .unwrap()
            .is_empty());
        // The round survives once the lost updates are re-sent.
        for client in cluster.take_lost_clients() {
            let update = batch
                .iter()
                .find(|u| u.client == Some(client))
                .expect("lost client came from the batch");
            cluster.ingest(Update::Dense(update.clone())).unwrap();
        }
        assert_eq!(cluster.drive().unwrap().updates_ingested(), 8);
    }

    #[test]
    fn over_offer_without_admission_keeps_the_legacy_error() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .build()
            .unwrap();
        let batch = updates(9, 16);
        cluster
            .ingest_all(batch.iter().take(8).cloned().map(Update::Dense))
            .unwrap();
        // The strict path still fails loudly, now with the typed error…
        let overflow = cluster.ingest(Update::Dense(batch[8].clone()));
        assert_eq!(overflow, Err(LiflError::RoundFull { capacity: 8 }));
        // …and the streaming path reports it as backpressure, not an error.
        let outcome = cluster.try_ingest(Update::Dense(batch[8].clone())).unwrap();
        assert_eq!(
            outcome,
            AdmissionOutcome::Rejected {
                retry_after: SimDuration::ZERO
            }
        );
        assert_eq!(cluster.drive().unwrap().updates_ingested(), 8);
    }

    #[test]
    fn malformed_offer_is_refused_not_parked_and_the_backlog_still_drains() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .admission(AdmissionConfig::bounded(4, 1 << 20))
            .build()
            .unwrap();
        let batch = updates(10, 16);
        cluster
            .ingest_all(batch.iter().take(8).cloned().map(Update::Dense))
            .unwrap();
        // The round is full. A malformed encoded payload is refused with the
        // same codec error a session gives — before anything is parked.
        let poisoned = || Update::remote_bytes(vec![1u8, 2], 1, true);
        let refused = cluster.try_ingest(poisoned()).unwrap_err();
        let mut session = SessionBuilder::new()
            .two_level(1, 1)
            .admission(AdmissionConfig::bounded(4, 1 << 20))
            .build()
            .unwrap();
        session.ingest(Update::Dense(batch[0].clone())).unwrap();
        assert_eq!(refused, session.try_ingest(poisoned()).unwrap_err());
        assert!(matches!(refused, LiflError::Codec(_)));
        assert_eq!(cluster.queued_updates(), 0);
        // Two valid offers park behind it and both drain at the boundary.
        for update in &batch[8..] {
            assert!(cluster
                .try_ingest(Update::Dense(update.clone()))
                .unwrap()
                .is_queued());
        }
        cluster.drive().unwrap();
        assert_eq!(cluster.queued_updates(), 0);
        assert_eq!(cluster.pending_updates(), 2);
        let stats = cluster.admission_stats();
        assert_eq!((stats.queued, stats.drained, stats.dropped), (2, 2, 0));
    }

    #[test]
    fn drain_drops_an_offer_that_fails_to_admit_and_keeps_draining() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .admission(AdmissionConfig::bounded(4, 1 << 20))
            .build()
            .unwrap();
        let batch = updates(10, 16);
        cluster
            .ingest_all(batch.iter().take(8).cloned().map(Update::Dense))
            .unwrap();
        // A poisoned payload parked behind the cluster's back, ahead of two
        // valid offers: the hardening that does not rely on try_ingest
        // having refused it.
        let queues = cluster.ingress.queues_mut().expect("admission is on");
        assert!(queues.offer(None, &[1u8, 2], 1, true).is_queued());
        for update in &batch[8..] {
            assert!(cluster
                .try_ingest(Update::Dense(update.clone()))
                .unwrap()
                .is_queued());
        }
        let idle_before = cluster.pool().stats().idle_buffers;
        cluster.drive().unwrap();
        assert_eq!(cluster.queued_updates(), 0);
        assert_eq!(cluster.pending_updates(), 2);
        let stats = cluster.admission_stats();
        assert_eq!((stats.drained, stats.dropped), (2, 1));
        assert!(cluster.pool().stats().idle_buffers > idle_before);
    }

    /// Rebuilds every node session of `cluster` over a store capped at
    /// `capacity` bytes (same tree position, codec and shared pool), so a
    /// test can make a node's store refuse a payload.
    fn cap_node_stores(cluster: &mut Cluster, capacity: u64) {
        let subtree = cluster.subtree.clone();
        for (k, child) in cluster.children.iter_mut().enumerate() {
            *child = SessionBuilder::new()
                .topology(subtree.clone())
                .codec(cluster.sessions.codec)
                .seed(cluster.sessions.seed)
                .node(NodeId::new(k as u64))
                .tree_position(0, k)
                .pool(cluster.sessions.pool.clone())
                .workers(cluster.sessions.workers.clone())
                .store(lifl_shmem::ObjectStore::with_capacity(capacity))
                .build()
                .unwrap();
        }
    }

    #[test]
    fn a_refused_ingress_encode_leaves_the_cluster_pool_as_it_was() {
        // Node stores with room for a driven [2, 2] round of 64-parameter
        // encoded objects (seven of 80 bytes), not for a 1 024-parameter one.
        let build = || {
            let mut cluster = ClusterBuilder::new()
                .topology(Topology::new(vec![2, 2, 2]).unwrap())
                .codec(CodecKind::Uniform8)
                .build()
                .unwrap();
            cap_node_stores(&mut cluster, 600);
            cluster
        };
        let (mut cluster, mut control) = (build(), build());
        let outsider = ClientId::new(50);
        for _ in 0..2 {
            let too_big = Update::dense(outsider, DenseModel::from_vec(vec![0.5; 1024]), 1);
            assert!(matches!(
                cluster.try_ingest(too_big),
                Err(LiflError::OutOfSharedMemory { .. })
            ));
            // Rolled back on the cluster and never reached the node…
            assert_eq!(cluster.pending_updates(), 0);
            assert_eq!(cluster.ingress.cursor(), 0);
            assert_eq!(cluster.node_sessions()[0].pending_updates(), 0);
            // …and never encoded: no residual, no pool buffer.
            assert_eq!(cluster.ingress.residual_bits(outsider), None);
            assert_eq!(cluster.pool().stats(), control.pool().stats());
        }
        // Nor did the refusals move the rounding stream: the next round is
        // the control's, bit for bit.
        let round = |cluster: &mut Cluster| {
            cluster
                .ingest_all(updates(8, 64).into_iter().map(Update::Dense))
                .unwrap();
            let report = cluster.drive().unwrap();
            let model = report.update.model.as_slice();
            model.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        assert_eq!(round(&mut cluster), round(&mut control));
    }

    #[test]
    fn a_refused_drained_offer_is_dropped_and_its_buffer_comes_home() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .admission(AdmissionConfig::bounded(4, 1 << 20))
            .build()
            .unwrap();
        // Each node: room for a driven [2, 2] round of 32-byte objects (four
        // updates, three intermediates), not for a 256-byte one.
        cap_node_stores(&mut cluster, 240);
        cluster
            .ingest_all(updates(8, 8).into_iter().map(Update::Dense))
            .unwrap();
        let oversized = Update::dense(ClientId::new(20), DenseModel::from_vec(vec![0.5; 64]), 1);
        assert!(cluster.try_ingest(oversized).unwrap().is_queued());
        let small = Update::dense(ClientId::new(21), DenseModel::from_vec(vec![0.5; 8]), 1);
        assert!(cluster.try_ingest(small).unwrap().is_queued());
        assert_eq!(cluster.pool().stats().misses, 2);
        cluster.drive().unwrap();
        // The oversized offer drained first, node 0's store refused it, and
        // the offer behind it took the slot.
        assert_eq!(cluster.pending_updates(), 1);
        assert_eq!(cluster.node_sessions()[0].pending_updates(), 1);
        let stats = cluster.admission_stats();
        assert_eq!((stats.queued, stats.drained, stats.dropped), (2, 1, 1));
        // The refused backlog buffer is home: the next checkout of its size
        // is a hit. The admitted one is node 0's stored object until the
        // round ends. The drive's seven positions (three a node, the top)
        // drew six accumulators: both nodes' subtrees run as one forest, so
        // each level's stations fold side by side and only the global top,
        // which runs once both node rounds closed, found one back in the
        // pool — one hit — and all six are idle now.
        let pool = cluster.pool().stats();
        assert_eq!((pool.idle_buffers, pool.hits), (1 + 6, 1));
        let again = cluster.pool().checkout_bytes(256);
        assert_eq!(cluster.pool().stats().hits, 1 + 1);
        cluster.pool().checkin_bytes(again);
        cluster.discard_round();
        assert_eq!(cluster.pool().stats().idle_buffers, 2 + 6);
    }

    #[test]
    fn cluster_overflow_queues_and_drains_into_the_next_round() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .admission(AdmissionConfig::bounded(4, 1 << 20))
            .build()
            .unwrap();
        let batch = updates(10, 16);
        for update in batch.iter().take(8) {
            assert!(cluster
                .try_ingest(Update::Dense(update.clone()))
                .unwrap()
                .is_admitted());
        }
        // The round is full: the next two offers park in the per-node queues
        // instead of failing (satellite-5 regression: `ingest` also parks).
        assert!(cluster
            .try_ingest(Update::Dense(batch[8].clone()))
            .unwrap()
            .is_queued());
        cluster.ingest(Update::Dense(batch[9].clone())).unwrap();
        assert_eq!(cluster.queued_updates(), 2);
        let report = cluster.drive().unwrap();
        assert_eq!(report.updates_ingested(), 8);
        // The report captures the boundary's depths, then the backlog drains
        // into the fresh round.
        assert_eq!(report.queue_depths.iter().sum::<usize>(), 2);
        assert_eq!(cluster.queued_updates(), 0);
        assert_eq!(cluster.pending_updates(), 2);
        cluster
            .ingest_all(updates(6, 16).into_iter().map(Update::Dense))
            .unwrap();
        assert_eq!(cluster.drive().unwrap().updates_ingested(), 8);
    }

    #[test]
    fn exhausted_queue_budget_rejects_with_the_retry_hint() {
        let retry = SimDuration::from_millis(125.0);
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .admission(AdmissionConfig::bounded(1, 1 << 20).with_retry_after(retry))
            .build()
            .unwrap();
        let batch = updates(12, 16);
        cluster
            .ingest_all(batch.iter().take(8).cloned().map(Update::Dense))
            .unwrap();
        // One slot per node: two offers park, the third is turned away.
        assert!(cluster
            .try_ingest(Update::Dense(batch[8].clone()))
            .unwrap()
            .is_queued());
        assert!(cluster
            .try_ingest(Update::Dense(batch[9].clone()))
            .unwrap()
            .is_queued());
        assert_eq!(
            cluster
                .try_ingest(Update::Dense(batch[10].clone()))
                .unwrap(),
            AdmissionOutcome::Rejected { retry_after: retry }
        );
        // The strict path surfaces the same exhaustion as an error.
        assert!(cluster.ingest(Update::Dense(batch[11].clone())).is_err());
        assert!(cluster.admission_stats().rejected >= 1);
    }

    #[test]
    fn quorum_cluster_round_closes_partial_and_matches_flat_fedavg() {
        let topology = Topology::new(vec![2, 2, 2]).unwrap();
        let batch = updates(5, 24);
        let mut cluster = ClusterBuilder::new()
            .topology(topology)
            .admission(AdmissionConfig::default().with_quorum(5))
            .build()
            .unwrap();
        cluster
            .ingest_all(batch.iter().take(4).cloned().map(Update::Dense))
            .unwrap();
        // Below quorum the round refuses to close…
        let short = cluster.drive();
        match short {
            Err(LiflError::InvalidConfig(message)) => {
                assert!(message.contains("quorum not met"), "{message}");
            }
            other => panic!("expected a quorum error, got {other:?}"),
        }
        // …and the refused round is kept: one more update meets the quorum.
        cluster.ingest(Update::Dense(batch[4].clone())).unwrap();
        let report = cluster.drive().unwrap();
        assert_eq!(report.updates_ingested(), 5);
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
    fn departed_cluster_client_is_refilled_from_the_backlog() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .admission(AdmissionConfig::bounded(4, 1 << 20))
            .build()
            .unwrap();
        let batch = updates(9, 16);
        for update in batch.iter().take(8) {
            assert!(cluster
                .try_ingest(Update::Dense(update.clone()))
                .unwrap()
                .is_admitted());
        }
        assert!(cluster
            .try_ingest(Update::Dense(batch[8].clone()))
            .unwrap()
            .is_queued());
        // Client 3 churns out mid-round: its slot is reclaimed on its node
        // and the parked offer refills it without touching the survivors.
        assert!(cluster.depart_client(ClientId::new(3)));
        assert_eq!(cluster.pending_updates(), 8);
        assert_eq!(cluster.queued_updates(), 0);
        let report = cluster.drive().unwrap();
        assert_eq!(report.updates_ingested(), 8);
        let survivors: Vec<ModelUpdate> = batch
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3)
            .map(|(_, u)| u.clone())
            .collect();
        let flat = fedavg(&survivors).unwrap();
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
        // Departing an unknown client reclaims nothing.
        assert!(!cluster.depart_client(ClientId::new(99)));
    }

    #[test]
    fn fleet_scaling_grows_under_a_spike_where_the_fixed_tree_saturates() {
        let topology = Topology::new(vec![2, 2, 2]).unwrap();
        // Partial (quorum) rounds: a streaming fleet closes on whatever
        // arrived, whether or not the grown capacity is saturated.
        let admission = AdmissionConfig::bounded(64, 1 << 24).with_quorum(1);
        let mut scaled = ClusterBuilder::new()
            .topology(topology.clone())
            .admission(admission)
            .fleet_scaling(
                FleetConfig::default()
                    .with_target_depth(1.0)
                    .with_leaf_bounds(2, 16),
            )
            .build()
            .unwrap();
        let mut fixed = ClusterBuilder::new()
            .topology(topology)
            .admission(admission)
            .build()
            .unwrap();
        assert!(scaled.fleet_scaling_enabled());
        assert!(!fixed.fleet_scaling_enabled());
        // A sustained spike: 24 arrivals per round against an 8-update tree.
        let mut spawned = 0u32;
        let mut scaled_aggregated = 0u64;
        let mut fixed_aggregated = 0u64;
        for _ in 0..12 {
            for update in updates(24, 16) {
                let _ = scaled.try_ingest(Update::Dense(update.clone())).unwrap();
                let _ = fixed.try_ingest(Update::Dense(update)).unwrap();
            }
            let report = scaled.drive().unwrap();
            assert_eq!(report.scaling.len(), scaled.nodes());
            spawned += report
                .scaling
                .iter()
                .map(|a| a.decision.spawned())
                .sum::<u32>();
            scaled_aggregated += report.updates_ingested();
            fixed_aggregated += fixed.drive().unwrap().updates_ingested();
        }
        // The controller re-split subtrees: the fleet grew and the grown
        // capacity aggregated far more of the offered load.
        assert!(spawned > 0, "the spike must spawn leaf aggregators");
        assert!(
            scaled.round_capacity() > 8,
            "capacity should have grown, still {}",
            scaled.round_capacity()
        );
        assert!(
            scaled_aggregated > fixed_aggregated * 2,
            "scaled fleet should clear a multiple of the fixed tree's load \
             ({scaled_aggregated} vs {fixed_aggregated})"
        );
        // The fixed tree's bounded queues saturate and start turning offers
        // away; the scaled fleet keeps absorbing them.
        assert!(fixed.admission_stats().rejected > 0);
        assert_eq!(scaled.admission_stats().rejected, 0);
        assert!(fixed.queued_updates() >= scaled.queued_updates());
    }

    #[test]
    fn fleet_scaling_is_deterministic_per_arrival_trace() {
        let run = || {
            let mut cluster = ClusterBuilder::new()
                .topology(Topology::new(vec![2, 2, 2]).unwrap())
                .admission(AdmissionConfig::bounded(64, 1 << 24).with_quorum(1))
                .fleet_scaling(
                    FleetConfig::default()
                        .with_target_depth(2.0)
                        .with_leaf_bounds(2, 8),
                )
                .build()
                .unwrap();
            let mut decisions: Vec<FleetDecision> = Vec::new();
            for round in 0..10 {
                // A deterministic, bursty trace: quiet, spike, drain.
                let arrivals = if round % 4 < 2 { 8 } else { 20 };
                for update in updates(arrivals, 16) {
                    let _ = cluster.try_ingest(Update::Dense(update)).unwrap();
                }
                let report = cluster.drive().unwrap();
                decisions.extend(report.scaling.iter().map(|a| a.decision));
            }
            decisions
        };
        assert_eq!(run(), run(), "same trace, same spawn/retire sequence");
    }

    #[test]
    fn resized_fleet_rounds_still_match_flat_fedavg() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .admission(AdmissionConfig::bounded(64, 1 << 24).with_quorum(1))
            .fleet_scaling(
                FleetConfig::default()
                    .with_target_depth(1.0)
                    .with_leaf_bounds(2, 16),
            )
            .build()
            .unwrap();
        // Grow the fleet with a spike, then let the backlog drain.
        for _ in 0..6 {
            for update in updates(24, 16) {
                let _ = cluster.try_ingest(Update::Dense(update)).unwrap();
            }
            cluster.drive().unwrap();
        }
        while cluster.pending_updates() > 0 {
            cluster.drive().unwrap();
        }
        assert_eq!(cluster.queued_updates(), 0);
        // A clean round over the (re-split) fleet still matches flat FedAvg.
        let batch = updates(cluster.round_capacity(), 24);
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let report = cluster.drive().unwrap();
        assert_eq!(report.updates_ingested(), batch.len() as u64);
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
}
