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
//!   node order as [`Update::RemoteBytes`] (checked in place on arrival)
//!   and prices each hop through the `lifl-dataplane` transport cost models.
//!
//! A cluster round is **bit-exact** with the equivalent single-session
//! [`Session::drive`] for every codec (enforced by the `tests/it/cluster.rs`
//! tier), so federating over machines changes where bytes live and what the
//! hops cost — never the aggregate.
//!
//! This module routes offers to nodes and drives the node forest into the
//! top; each other concern of a cluster has one owner module beside it:
//!
//! * `placement` — live top placement (§5.2): the top moves to the node
//!   with the highest EWMA load estimate at every round boundary
//!   ([`TopPlacement`]);
//! * `faults` — node kills and the only fault state (§3): each node's last
//!   keep-alive and the latest checkpoint a top kill restores
//!   ([`Cluster::checkpoint`]); a killed child node restarts and
//!   re-delivers its round from the stored keys ([`FaultToleranceConfig`]);
//! * `scaling` — KPA fleet scaling: node subtrees re-split at round
//!   boundaries ([`ScalingAction`]).

mod faults;
mod placement;
mod scaling;

pub use faults::{FaultStats, FaultToleranceConfig, NodeKill, RecoveryOutcome};
pub use placement::{TopMove, TopPlacement};
pub use scaling::ScalingAction;

use crate::admission::AdmissionQueues;
use crate::ingress::{self, Backend, Ingress, Target};
use crate::session::{Session, SessionBuilder, SessionReport, Update, WireExport};
use crate::stations::Workers;
use faults::Faults;
use lifl_dataplane::{CostModel, DataPlaneKind, TransferCost};
use lifl_fl::aggregate::ModelUpdate;
use lifl_serverless::{FleetConfig, FleetController};
use lifl_shmem::{BufferPool, StoreStats};
use lifl_types::{
    AdmissionConfig, AdmissionOutcome, ClientId, CodecKind, FoldPolicy, LiflError, NodeId, Result,
    RoundClose, SimDuration, Topology,
};
use placement::Placement;

/// Everything a cluster's sessions are built alike with: each differs only
/// in its tree, its node and where that tree sits in the global one.
#[derive(Debug, Clone)]
struct SessionTemplate {
    codec: CodecKind,
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
    /// Builds the session driving `topology`, placed at (`level_offset`,
    /// `branch`) of the global tree.
    fn build(&self, topology: Topology, level_offset: usize, branch: usize) -> Result<Session> {
        let mut builder = SessionBuilder::new()
            .topology(topology)
            .codec(self.codec)
            .fold_policy(self.policy)
            .tree_position(level_offset, branch)
            .pool(self.pool.clone())
            .workers(self.workers.clone());
        if self.quorum {
            builder = builder.round_close(RoundClose::Quorum { min_updates: 1 });
        }
        builder.build()
    }
}

/// How every transfer of a cluster is priced: the paper-calibrated transport
/// cost model, with LIFL's shared-memory data plane on same-node hops.
#[derive(Debug, Clone, Copy)]
struct Pricing {
    cost: CostModel,
}

impl Pricing {
    /// The modelled cost of moving `bytes` within a node (shared memory) or
    /// across the network.
    fn hop(&self, same_node: bool, bytes: u64) -> TransferCost {
        let plane = DataPlaneKind::LiflSharedMemory;
        self.cost.hop_transfer(same_node, plane, bytes)
    }
}

/// Builds a [`Cluster`]: the global tree, codec, fold policy and the
/// top-placement policy, with working defaults.
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
/// assert_eq!(cluster.round_capacity(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    topology: Topology,
    codec: CodecKind,
    placement: TopPlacement,
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
    /// split into 4 single-leaf nodes, [`CodecKind::Identity`], hops priced
    /// by the paper-calibrated cost model, LIFL's shared-memory data plane
    /// for same-node hops, and live [`TopPlacement::MostLoaded`]
    /// placement of the global top (which starts on node 0 until load
    /// signals differ).
    pub fn new() -> Self {
        ClusterBuilder {
            topology: Topology::default(),
            codec: CodecKind::Identity,
            placement: TopPlacement::default(),
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
    /// [`Cluster::drive`] aggregates `cluster.round_capacity()`
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

    /// Accepts a shard count and changes nothing (see
    /// [`SessionBuilder::shards`]). Kept only so the whole-round benchmark's
    /// engine adapter compiles unchanged.
    pub fn shards(self, _shards: usize) -> Self {
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
    /// [`Cluster::schedule_node_failure`]), and recovery of the global top
    /// from the latest checkpoint ([`Cluster::checkpoint`]).
    /// A killed node's round survives: the node restarts and re-delivers it
    /// from the keys its store holds, and a drive the kill struck re-plans,
    /// shipping only the hops that never arrived. Without this, nothing can
    /// kill a node, and a failed drive discards the round.
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
    /// [`FleetController`] control loop,
    /// and nodes whose desired leaf count changed get their subtree
    /// re-split (grown or retired) before the next round's backlog drains.
    /// Decisions land in [`ClusterReport::scaling`]. The controller runs on
    /// a synthetic per-round clock, so the same arrival trace always
    /// produces the same spawn/retire sequence.
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
    /// outside the machine count, a live placement's EWMA `alpha` is not a
    /// number in `[0, 1]`, an earlier builder step (such as
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
        let placement = Placement::new(self.placement, nodes)?;
        if let Some(config) = &self.admission {
            config.validate()?;
        }
        let pool = BufferPool::new();
        let sessions = SessionTemplate {
            codec: self.codec,
            policy: self.policy,
            pool: pool.clone(),
            workers,
            quorum: self
                .admission
                .is_some_and(|c| matches!(c.round_close, RoundClose::Quorum { .. })),
        };
        let children = (0..nodes)
            .map(|k| sessions.build(subtree.clone(), 0, k))
            .collect::<Result<Vec<Session>>>()?;
        let parent = sessions.build(Topology::flat(nodes), subtree.levels(), 0)?;
        let faults = Faults::new(self.faults, nodes)?;
        let queues = self
            .admission
            .map(|config| AdmissionQueues::new(config, nodes, pool.clone()));
        let fleet = (self.fleet)
            .map(|config| FleetController::new(config, nodes))
            .transpose()?;
        let ingress = Ingress::new(self.codec, pool, queues, sessions.workers.clone());
        Ok(Cluster {
            topology: self.topology,
            subtree,
            pricing: Pricing {
                cost: CostModel::paper_calibrated(),
            },
            children,
            parent,
            ingress,
            sessions,
            placement,
            faults,
            fleet,
            rounds: 0,
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
    /// The node store's statistics at the end of the round.
    pub store_stats: StoreStats,
    /// Data-plane payload bytes the node's leaf ingests occupied.
    pub ingress_wire_bytes: u64,
    /// Client updates the node's subtree aggregated.
    pub updates_ingested: u64,
}

/// Everything a driven cluster round produced.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The aggregated global model: the global top's dense accumulator.
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
    pricing: Pricing,
    children: Vec<Session>,
    parent: Session,
    /// Offer → slot state at the cluster ingress: error feedback (applied
    /// once, here), the round's fill and routing position (slots are nodes)
    /// and the per-node bounded queues of the streaming admission path.
    ingress: Ingress,
    /// What node sessions are (re)built from when the fleet re-splits.
    sessions: SessionTemplate,
    /// Which node hosts the top, and the load estimates that move it.
    placement: Placement,
    /// Scheduled kills, fault totals, and the §3 machinery when enabled.
    faults: Faults,
    /// The KPA fleet controller re-splitting node subtrees at round
    /// boundaries, when fleet scaling is enabled (driven by `scaling`).
    fleet: Option<FleetController>,
    /// Rounds closed by a drive — to an output or to a failure, a top kill
    /// included — over the cluster's life: the index every node's hop
    /// encode of the open round is keyed by. A killed child's round is
    /// resumed within its drive and keeps it, so it draws the words the
    /// undisturbed round would have, and no two driven rounds share one.
    rounds: u64,
}

impl Cluster {
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

    /// The node the round-robin cursor routes to next, under the live
    /// per-node shapes: update *k* of a round feeds global leaf
    /// `k % leaves`, and each node owns a contiguous block of leaves —
    /// exactly the built split until fleet scaling changes a block's width.
    fn cursor_node(&self) -> usize {
        let widths = self.children.iter().map(|c| c.topology().leaves());
        let mut leaf = (self.ingress.cursor() as usize) % widths.clone().sum::<usize>().max(1);
        for (node, width) in widths.enumerate() {
            if leaf < width {
                return node;
            }
            leaf -= width;
        }
        self.children.len().saturating_sub(1)
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
    /// Fails only on store/codec errors and a zero weight, exactly as
    /// [`Session::try_ingest`]; a full round is an outcome, not an error. A
    /// failed offer counts nothing toward the round, parks nothing and
    /// touches nothing — no residual, no client's encode count, no pool
    /// buffer: a lossy offer is refused from its encoded size before it is
    /// encoded.
    pub fn try_ingest(&mut self, update: Update) -> Result<AdmissionOutcome> {
        ingress::offer(self, update)
    }

    /// Routes one update and runs `store` for it on the routed node,
    /// booking the outcome: the step both [`Backend::admit`] and
    /// [`Backend::reserve`] take. Vacancies reclaimed by mid-round churn
    /// refill before round-robin resumes, so the survivors' leaf assignment
    /// is untouched by a departure.
    fn route<T>(&mut self, store: impl FnOnce(&mut Self, usize) -> Result<T>) -> Result<T> {
        let route = self.ingress.route(self.cursor_node());
        let stored = store(self, route.slot);
        self.ingress.settle(route, stored.is_ok());
        stored
    }

    /// Admits one normalised update on the routed node — moved through the
    /// node session's own `admit`, never its public door — and counts it
    /// into the round: the step both the direct path and the backlog drain
    /// end in. The node session records it under its producer, or under
    /// its cluster arrival index when it has none, so every update of the
    /// round can be named — and departed — by its client.
    fn admit(&mut self, update: Update, producer: Option<ClientId>) -> Result<()> {
        self.route(|cluster, node| {
            let tracked = cluster.ingress.tracked(producer);
            cluster.children[node].admit(update, Some(tracked))
        })
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
        for (node, child) in self.children.iter_mut().enumerate() {
            let (before, weight) = (child.pending_updates(), child.round_weight());
            child.depart_client(client);
            for _ in child.pending_updates()..before {
                self.ingress.vacate(node);
                departed = true;
            }
            self.ingress
                .release(weight.saturating_sub(child.round_weight()));
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

    /// Total updates parked in the admission queues.
    pub fn queued_updates(&self) -> usize {
        self.ingress.queued()
    }

    /// Lifetime admission counters (zero-default without an admission
    /// configuration).
    pub fn admission_stats(&self) -> crate::admission::AdmissionStats {
        self.ingress.stats()
    }

    /// Drives the round across every node as one tree: the node subtrees run
    /// as one forest on the cluster's workers — level ℓ of every node is one
    /// claim set — and each exports its merged update as codec-tagged wire
    /// bytes (what [`Session::drive_to_wire`] returns, no intermediate
    /// `DenseModel`); the parent gateway then ingests the exports in node
    /// order via [`Update::RemoteBytes`] (one in-place wire-contract check,
    /// the arriving buffer is stored as-is) and the global top folds them in
    /// node order, so results are deterministic — and bit-exact with a single
    /// session over the global tree, and with driving the nodes one at a time.
    ///
    /// Every hop is priced through the paper-calibrated transport cost
    /// model: a network transfer for remote nodes, a shared-memory transfer
    /// for the node hosting the top.
    ///
    /// At the round boundary (after the round's load is known, before any
    /// hop is priced) the placement policy re-evaluates which node should
    /// host the top: under [`TopPlacement::MostLoaded`] the round's per-node
    /// ingest counts (plus any [`Cluster::observe_node_load`] signals) feed
    /// the per-node EWMAs, and a now-more-loaded node takes the top over —
    /// a warm-state handoff priced in [`ClusterReport::replacement`]. The
    /// aggregate is placement-invariant: only hop pricing moves.
    ///
    /// With [`ClusterBuilder::fault_tolerance`] enabled, a child-node kill
    /// that strikes inside the drive ([`Cluster::schedule_node_failure`],
    /// where a node-at-a-time walk would, once the hops before it landed)
    /// costs the round nothing: the node restarts and re-delivers its round
    /// from the stored keys, and the same call re-plans — re-shipping only
    /// the hops that never arrived, skipping (and counting, see
    /// [`FaultStats::deduped_hops`]) the ones already folded into the global
    /// top — and returns the round bit-exact with an undisturbed one.
    ///
    /// # Errors
    /// Fails if the ingested updates do not exactly fill the global tree
    /// (the round is kept and can be topped up), or on any store, codec or
    /// aggregation error — in which case the round is discarded on every
    /// node and the cluster is reset to an empty round. A kill of the
    /// top-hosting node fails with [`LiflError::AggregatorFailure`]: the
    /// round is lost wholesale and the latest checkpoint is restored
    /// ([`Cluster::take_recovery`]).
    pub fn drive(&mut self) -> Result<ClusterReport> {
        self.settle()?;
        self.validate_round()?;
        let loads = self.children.iter().map(Session::pending_updates);
        let replacement = self.placement.place(loads, self.pricing);
        let driven = self.drive_hops();
        self.rounds += 1;
        let (top, hops, nodes) = driven.inspect_err(|_| self.abort_round())?;
        self.faults.commit(&top.update.model);
        self.placement.committed(top.update.model.dim());
        self.ingress.reset_round();
        // The round boundary: let the fleet controller re-split subtrees,
        // then drain the backlog into the (possibly resized) fresh round.
        let scaling = self.scale_fleet();
        ingress::drain(self);
        Ok(ClusterReport {
            update: top.update,
            topology: self.topology.clone(),
            nodes,
            hops,
            top_node: self.top_node(),
            replacement,
            top_store_stats: top.store_stats,
            scaling,
        })
    }

    /// Checks the round may close: an exact fill of the live capacity by
    /// default, the configured quorum under a [`RoundClose::Quorum`]
    /// admission close.
    fn validate_round(&self) -> Result<()> {
        let close = (self.ingress.config()).map_or(RoundClose::Exact, |config| config.round_close);
        let ingested = self.ingress.ingested() as usize;
        close.check(&self.topology, self.round_capacity(), ingested)
    }

    /// The round's node subtrees into the global top, as one tree: **plan**
    /// a pass in node order, **run** every planned node subtree as one
    /// forest, **ship** the hops into the parent in node order, then **fire**
    /// the scheduled kill — a child restarts and the next pass resumes the
    /// round — or drive the global top. Returns the top's report with the
    /// round's hops and node reports, in node order.
    fn drive_hops(&mut self) -> Result<(SessionReport, Vec<ClusterHop>, Vec<NodeRoundReport>)> {
        // A quorum round can leave whole subtrees empty: no export, no hop,
        // nothing for the top to fold from this node.
        let quorum = self.sessions.quorum;
        let mut shipped = vec![false; self.children.len()];
        let (mut hops, mut nodes) = (Vec::new(), Vec::new());
        loop {
            let has_hop = (self.children.iter()).map(|c| c.pending_updates() > 0 || !quorum);
            let (steps, kill) = self.faults.plan(&shipped, has_hop);
            let mut planned: Vec<&mut Session> = (self.children.iter_mut().enumerate())
                .filter(|(k, _)| steps.contains(&(*k, true)))
                .map(|(_, child)| child)
                .collect();
            let mut exports = Session::drive_forest_to_wire(&mut planned, self.rounds).into_iter();
            for (k, ships) in steps {
                // Dedup: a node whose intermediate already reached the
                // global top in an earlier pass never re-ships (or
                // re-prices) its hop.
                let Some(export) = ships.then(|| exports.next()).flatten() else {
                    self.faults.deduped();
                    continue;
                };
                // The first failure in node order is the drive's; the round
                // is aborted, the later nodes' exports with it.
                let (hop, node) = self.ship(k, export?)?;
                self.faults.folded();
                shipped[k] = true;
                hops.push(hop);
                nodes.push(node);
            }
            let Some(victim) = kill else {
                return Ok((self.parent.drive()?, hops, nodes));
            };
            if self.kill_node(victim).top_host {
                let node = victim as u64;
                return Err(LiflError::AggregatorFailure { node });
            }
        }
    }

    /// Ships node `k`'s export into the top's gateway: the priced hop and
    /// the node's report.
    fn ship(&mut self, k: usize, export: WireExport) -> Result<(ClusterHop, NodeRoundReport)> {
        let (node, wire_bytes) = (NodeId::new(k as u64), export.wire_bytes());
        let report = NodeRoundReport {
            store_stats: export.store_stats,
            ingress_wire_bytes: export.ingress_wire_bytes,
            updates_ingested: export.updates_ingested,
        };
        self.parent.ingest(export.update)?;
        let same_node = k == self.placement.top();
        let cost = self.pricing.hop(same_node, wire_bytes);
        let hop = ClusterHop {
            node,
            wire_bytes,
            same_node,
            cost,
        };
        Ok((hop, report))
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
        self.faults.clear_round();
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

    fn reserve(&mut self, _client: ClientId, stored: u64) -> Result<Target> {
        self.route(|cluster, node| {
            // The node's store sees the encodes in flight to it only when
            // they are committed.
            let pending = cluster.ingress.in_flight_bytes(Some(node));
            let leaf = cluster.children[node].reserve(pending, stored)?;
            Ok(Target { slot: node, leaf })
        })
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

    /// The checkpoint a top-host kill restored ([`Cluster::take_recovery`]).
    fn take_recovered_model(&mut self) -> Option<lifl_fl::DenseModel> {
        self.take_recovery()?.recovered_model
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

    /// Settles, then where the stored bytes of every update of the open
    /// round start, node by node in arrival order.
    pub(crate) fn stored_ptrs(&mut self) -> Vec<*const u8> {
        ingress::settle(self);
        self.children
            .iter_mut()
            .flat_map(Session::stored_ptrs)
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
        let loads = self.children.iter().map(Session::pending_updates);
        let replacement = self.placement.place(loads, self.pricing);
        let (mut hops, mut nodes) = (Vec::new(), Vec::new());
        for k in 0..self.children.len() {
            if self.children[k].pending_updates() == 0 && self.sessions.quorum {
                continue;
            }
            let export = Session::drive_forest_to_wire(&mut [&mut self.children[k]], self.rounds);
            let export = export.into_iter().next().expect("one node, one export")?;
            let (hop, node) = self.ship(k, export)?;
            hops.push(hop);
            nodes.push(node);
        }
        let top = self.parent.drive()?;
        self.ingress.reset_round();
        self.rounds += 1;
        self.placement.committed(top.update.model.dim());
        ingress::drain(self);
        Ok(ClusterReport {
            update: top.update,
            topology: self.topology.clone(),
            nodes,
            hops,
            top_node: self.top_node(),
            replacement,
            top_store_stats: top.store_stats,
            scaling: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_fl::aggregate::fedavg;
    use lifl_fl::DenseModel;
    use lifl_serverless::FleetDecision;
    use lifl_types::SimTime;

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
        // Wrong dimension on the last leaf, stored past the door (which
        // refuses it): node 1's subtree fails mid-drive.
        let short = Update::remote_bytes(vec![0u8; 8], 1, false);
        cluster.admit(short, None).unwrap();
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
        assert_eq!(cluster.sessions.policy, FoldPolicy::Median);
    }

    #[test]
    fn fault_apis_require_fault_tolerance() {
        let mut cluster = ClusterBuilder::new().build().unwrap();
        assert!(cluster.inject_node_failure(NodeId::new(0)).is_err());
        assert!(cluster.schedule_node_failure(NodeId::new(0), 1).is_err());
        assert!(cluster.detect_failed_nodes(SimTime::ZERO).is_err());
        assert!(cluster
            .node_heartbeat(NodeId::new(0), SimTime::ZERO)
            .is_err());
        assert!(cluster.take_recovery().is_none());
        assert!(cluster.fault_stats().is_none());
        assert!(cluster.checkpoint().is_none());
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
        // Kill node 1 (not the top host) with the whole round pending: the
        // restarted node refills its leaf inboxes from the keys its store
        // holds, and the next drive needs nothing re-sent.
        let kill = cluster.inject_node_failure(NodeId::new(1)).unwrap();
        assert!(!kill.top_host);
        assert_eq!(kill.lost_updates, 4);
        assert_eq!(cluster.pending_updates(), 8);
        let report = cluster.drive().unwrap();
        assert_eq!(report.updates_ingested(), 8);
        // Same keys, same leaves, same order: the survived round is
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
        // the global top: the same drive restarts it and re-plans.
        cluster.schedule_node_failure(NodeId::new(1), 1).unwrap();
        let report = cluster.drive().unwrap();
        assert_eq!(report.updates_ingested(), 8);
        // Node 0's hop was not re-shipped: the re-plan deduped it, and the
        // report still prices exactly one hop per node.
        assert_eq!(report.hops.len(), 2);
        let stats = cluster.fault_stats().unwrap();
        assert_eq!((stats.deduped_hops, stats.node_restarts), (1, 1));
        assert_eq!(stats.lost_updates, 4);
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
        // intermediate is already safe at the top, so its restart has
        // nothing to re-deliver and the drive completes.
        cluster.schedule_node_failure(NodeId::new(0), 1).unwrap();
        let report = cluster.drive().unwrap();
        assert_eq!(report.updates_ingested(), 8);
        let stats = cluster.fault_stats().unwrap();
        assert_eq!((stats.node_restarts, stats.lost_updates), (1, 0));
    }

    #[test]
    fn top_host_kill_restores_the_latest_checkpoint() {
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
        let recovered = recovery.recovered_model.expect("checkpointed");
        // The restore is bit-exact with the checkpoint, which is bit-exact
        // with the committed round-1 model.
        let (_, latest) = cluster.checkpoint().expect("round 1 checkpointed");
        assert_eq!(*latest, recovered);
        for (a, b) in recovered
            .as_slice()
            .iter()
            .zip(committed.update.model.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
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
        // The round survives: the restarted node re-delivered its updates.
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

    /// Under a lossy codec a station encodes its output only if its parent
    /// is the global top: the node tops of an [8, 4, 4] cluster (its hops)
    /// and of the single session over the same tree, the leaves of an
    /// [8, 4] session, and nothing in a flat session, whose one station is
    /// the top. A session driven to wire encodes its top alone, the export
    /// the global top folds. A store counts every encoded put: what is not
    /// a client's ingress encode or a hop's arrival at the top is an
    /// encoded `send`.
    #[test]
    fn only_outputs_bound_for_the_global_top_are_encoded() {
        const ROUNDS: u64 = 3;
        let rounds_of = |session: &mut Session, to_wire: bool| {
            let capacity = session.topology().total_updates();
            for _ in 0..ROUNDS {
                for update in updates(capacity, 16) {
                    session.ingest(Update::Dense(update)).unwrap();
                }
                if to_wire {
                    session.drive_to_wire().unwrap();
                } else {
                    session.drive().unwrap();
                }
            }
            session.store().stats().encoded_puts - ROUNDS * capacity as u64
        };
        for codec in [CodecKind::Uniform8, CodecKind::TopK { permille: 250 }] {
            let mut cluster = ClusterBuilder::new()
                .topology(Topology::new(vec![8, 4, 4]).unwrap())
                .codec(codec)
                .build()
                .unwrap();
            let mut puts = 0;
            for _ in 0..ROUNDS {
                let round = updates(128, 16).into_iter().map(Update::Dense);
                cluster.ingest_all(round).unwrap();
                let report = cluster.drive().unwrap();
                let nodes = report.nodes.iter().map(|n| n.store_stats.encoded_puts);
                puts = nodes.sum::<u64>() + report.top_store_stats.encoded_puts;
            }
            // Per round: 128 ingress encodes and 4 hop arrivals.
            let sends = puts - ROUNDS * (128 + 4);
            assert_eq!(sends, 4 * ROUNDS, "{codec}: [8, 4, 4] cluster");
            for (fan_in, to_wire, per_round) in [
                (vec![8, 4], false, 4),
                (vec![8, 4, 4], false, 4),
                (vec![8], false, 0),
                (vec![8, 4], true, 1),
            ] {
                let mut session = SessionBuilder::new()
                    .topology(Topology::new(fan_in.clone()).unwrap())
                    .codec(codec)
                    .build()
                    .unwrap();
                let sends = rounds_of(&mut session, to_wire);
                let case = format!("{codec}: {fan_in:?} session, to wire {to_wire}");
                assert_eq!(sends, per_round * ROUNDS, "{case}");
            }
        }
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
        // Node stores with room for a driven [2, 2] round of 64 parameters,
        // not for a 1 024-parameter offer (1 040 encoded bytes): four
        // encoded client updates (4 x 80 bytes), two dense leaf
        // intermediates (2 x 256) and the node top's encoded export (80)
        // are 912 bytes, the smallest cap the round fits.
        let build = || {
            let mut cluster = ClusterBuilder::new()
                .topology(Topology::new(vec![2, 2, 2]).unwrap())
                .codec(CodecKind::Uniform8)
                .build()
                .unwrap();
            cap_node_stores(&mut cluster, 912);
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
        // Nor did the refusals move any client's encode count: the next
        // round is the control's, bit for bit.
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
        // Parked behind the cluster's back: the door refuses the other
        // dimension in this round, but the drain opens the next one with it.
        let queues = cluster.ingress.queues_mut().expect("admission is on");
        let oversized = lifl_fl::kernels::le_bytes(&[0.5f32; 64]);
        assert!(queues
            .offer(Some(ClientId::new(20)), oversized, 1, false)
            .is_queued());
        let small = Update::dense(ClientId::new(21), DenseModel::from_vec(vec![0.5; 8]), 1);
        assert!(cluster.try_ingest(small).unwrap().is_queued());
        // Only the bytes were copied into a pooled backlog buffer; the dense
        // offer parked in its own vector.
        assert_eq!(cluster.pool().stats().misses, 1);
        cluster.drive().unwrap();
        // The oversized offer drained first, node 0's store refused it, and
        // the offer behind it took the slot.
        assert_eq!(cluster.pending_updates(), 1);
        assert_eq!(cluster.node_sessions()[0].pending_updates(), 1);
        let stats = cluster.admission_stats();
        assert_eq!((stats.queued, stats.drained, stats.dropped), (2, 1, 1));
        // The refused backlog buffer is home: the next checkout of its size
        // is a hit. The admitted offer's vector is node 0's stored object
        // until the round ends, and is freed then: the pool is owed nothing. The drive's seven positions (three a node, the top)
        // drew six accumulators: both nodes' subtrees run as one forest, so
        // each level's stations fold side by side and only the global top,
        // which runs once both node rounds closed, found one back in the
        // pool — the one hit. The top handed that accumulator out as the
        // model; the client vectors the round recycled stand in for it, so
        // six are idle now.
        let pool = cluster.pool().stats();
        assert_eq!((pool.idle_buffers, pool.hits), (1 + 6, 1));
        let again = cluster.pool().checkout_bytes(256);
        assert_eq!(cluster.pool().stats().hits, 1 + 1);
        cluster.pool().checkin_bytes(again);
        cluster.discard_round();
        assert_eq!(cluster.pool().stats().idle_buffers, 1 + 6);
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
        // The backlog drained into the fresh round.
        assert_eq!(cluster.queued_updates(), 0);
        assert_eq!(cluster.pending_updates(), 2);
        cluster
            .ingest_all(updates(6, 16).into_iter().map(Update::Dense))
            .unwrap();
        assert_eq!(cluster.drive().unwrap().updates_ingested(), 8);
    }

    /// A child node killed while it holds an update drained from the
    /// previous round's backlog: the restarted node re-delivers that update
    /// from its stored key — not the newer model its client offered since —
    /// and every round is the undisturbed cluster's, bit for bit, under a
    /// lossless and a lossy codec. Every round of the 4-update `[2, 1, 2]`
    /// cluster, with a one-deep queue per node, ends with two offers parked
    /// that drain into the next round, and round 2's first two offers are
    /// newer models of the two clients whose round-1 updates drained.
    #[test]
    fn a_child_kill_keeps_the_update_drained_from_the_backlog() {
        let offer = |client: u64, round: u64| {
            let values = (0..16)
                .map(|d| ((client * 31 + round * 17 + d * 5) % 97) as f32 * 0.04 - 1.9)
                .collect();
            Update::Dense(ModelUpdate::from_client(
                ClientId::new(client),
                DenseModel::from_vec(values),
                client + round + 1,
            ))
        };
        let offers: [&[u64]; 3] = [&[0, 1, 2, 3, 4, 5], &[4, 5, 6, 7], &[8, 9, 10, 11]];
        for codec in [CodecKind::Identity, CodecKind::Uniform8] {
            let run = |faults: bool| {
                let mut builder = ClusterBuilder::new()
                    .topology(Topology::new(vec![2, 1, 2]).unwrap())
                    .codec(codec)
                    .admission(AdmissionConfig::bounded(1, 1 << 20));
                if faults {
                    builder = builder.fault_tolerance(FaultToleranceConfig::default());
                }
                let mut cluster = builder.build_on(Workers::with_count(1)).unwrap();
                let mut rounds = Vec::new();
                for (round, clients) in offers.iter().enumerate() {
                    for &client in *clients {
                        let outcome = cluster.try_ingest(offer(client, round as u64)).unwrap();
                        assert!(!outcome.is_rejected(), "{codec}: client {client}");
                    }
                    assert_eq!(cluster.queued_updates(), 2, "{codec}: round {round}");
                    if round == 1 {
                        // Node 1 holds client 5's update drained from round
                        // 1's backlog, then client 5's newer model.
                        let held = cluster.node_sessions()[1].round_clients();
                        assert_eq!(held, [Some(ClientId::new(5)); 2], "{codec}");
                        if faults {
                            cluster.schedule_node_failure(NodeId::new(1), 1).unwrap();
                        }
                    }
                    let report = cluster.drive().unwrap();
                    let model = report.update.model.as_slice();
                    let bits: Vec<u32> = model.iter().map(|v| v.to_bits()).collect();
                    rounds.push((report.updates_ingested(), report.update.samples, bits));
                }
                if faults {
                    let stats = cluster.fault_stats().unwrap();
                    assert_eq!((stats.node_restarts, stats.lost_updates), (1, 2), "{codec}");
                }
                rounds
            };
            let killed = run(true);
            assert!(killed.iter().all(|(updates, ..)| *updates == 4), "{codec}");
            assert_eq!(killed, run(false), "{codec}");
        }
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
            let fixed_report = fixed.drive().unwrap();
            assert!(fixed_report.scaling.is_empty(), "no fleet, no decisions");
            fixed_aggregated += fixed_report.updates_ingested();
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

    #[test]
    fn placement_refuses_an_alpha_that_is_not_a_weight() {
        for alpha in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1, 1.5] {
            let outcome = ClusterBuilder::new()
                .topology(Topology::new(vec![2, 2, 2]).unwrap())
                .placement(TopPlacement::MostLoaded { alpha })
                .build();
            assert!(
                matches!(outcome, Err(LiflError::InvalidConfig(_))),
                "alpha {alpha} was accepted"
            );
        }
        for alpha in [0.0, 0.7, 1.0] {
            let placement = TopPlacement::MostLoaded { alpha };
            assert!(ClusterBuilder::new().placement(placement).build().is_ok());
        }
    }

    #[test]
    fn hostile_load_signals_neither_pin_nor_stall_placement() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .build()
            .unwrap();
        let batch = updates(8, 16);
        let round = |cluster: &mut Cluster| {
            cluster
                .ingest_all(batch.iter().cloned().map(Update::Dense))
                .unwrap();
            cluster.drive().unwrap()
        };
        // Not queue depths: ignored, so the uniform round keeps the top.
        for hostile in [f64::INFINITY, f64::NAN, f64::NEG_INFINITY, -5.0] {
            cluster.observe_node_load(NodeId::new(1), hostile);
        }
        assert!(round(&mut cluster).replacement.is_none());
        assert_eq!(cluster.top_node(), NodeId::new(0));
        // Every estimate stayed a number: an honest signal still moves the
        // top, and a later one can move it back.
        cluster.observe_node_load(NodeId::new(1), 64.0);
        assert_eq!(round(&mut cluster).top_node, NodeId::new(1));
        cluster.observe_node_load(NodeId::new(0), 1000.0);
        assert_eq!(round(&mut cluster).top_node, NodeId::new(0));
    }

    /// A restarted node re-delivers every update of its round, whatever
    /// form it arrived in, still named by its client (or its cluster
    /// arrival index), and the round is the undisturbed one bit for bit.
    #[test]
    fn a_child_kill_names_every_lost_client_whatever_the_update_form() {
        let build = || {
            ClusterBuilder::new()
                .topology(Topology::new(vec![2, 2, 2]).unwrap())
                .codec(CodecKind::Uniform8)
                .admission(AdmissionConfig::bounded(4, 1 << 20))
                .fault_tolerance(FaultToleranceConfig::default())
                .build()
                .unwrap()
        };
        let model = |i: usize| updates(20, 16).swap_remove(i).model;
        let encoded =
            |i: usize| lifl_fl::UpdateCodec::with_seed(CodecKind::Uniform8, 7).encode(&model(i));
        let dense = |i: u64| Update::dense(ClientId::new(i), model(i as usize), 1);
        // Update k of the round feeds leaf k % 4: 0, 1, 4 and 5 land on
        // node 0 (the top host), the anonymous forms on node 1.
        let offers = || {
            [
                dense(10),
                Update::encoded(ClientId::new(11), encoded(1), 2),
                Update::remote_bytes(encoded(2).to_bytes(), 3, true),
                Update::remote_bytes(
                    lifl_fl::kernels::le_bytes(model(3).as_slice()).to_vec(),
                    4,
                    false,
                ),
                dense(14),
                dense(15),
                Update::Encoded {
                    client: None,
                    update: encoded(6),
                    samples: 5,
                },
                Update::Dense(ModelUpdate::intermediate(model(7), 6)),
                // Parked, then drained into the slot a departure reclaims.
                Update::remote_bytes(encoded(8).to_bytes(), 7, true),
                dense(19),
            ]
        };
        let round = |cluster: &mut Cluster| {
            for offer in offers() {
                assert!(!cluster.try_ingest(offer).unwrap().is_rejected());
            }
            // The anonymous dense update went by its arrival index.
            assert!(cluster.depart_client(ClientId::new(7)));
        };
        let (mut cluster, mut undisturbed) = (build(), build());
        round(&mut cluster);
        round(&mut undisturbed);
        let lost = [2, 3, 6, 8].map(|i| Some(ClientId::new(i))).to_vec();
        assert_eq!(cluster.node_sessions()[1].round_clients(), lost);
        let kill = cluster.inject_node_failure(NodeId::new(1)).unwrap();
        assert_eq!(kill.lost_updates, 4);
        assert_eq!(cluster.node_sessions()[1].round_clients(), lost);
        let bits = |cluster: &mut Cluster| {
            let report = cluster.drive().unwrap();
            let model = report.update.model.as_slice();
            let bits: Vec<u32> = model.iter().map(|v| v.to_bits()).collect();
            (report.update.samples, bits)
        };
        assert_eq!(bits(&mut cluster), bits(&mut undisturbed));
    }

    /// A killed node gives its updates, weights included, back to the round
    /// it restarts into: the round still holds the heavy client's weight,
    /// so a re-send of it would overflow the total and is refused.
    #[test]
    fn a_killed_nodes_weight_is_given_back_to_the_round() {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .codec(CodecKind::Uniform8)
            .fault_tolerance(FaultToleranceConfig::default())
            .build()
            .unwrap();
        let mut batch = updates(4, 16);
        // Update 2 feeds leaf 2, on node 1 (not the top host).
        batch[2].samples = u64::MAX - 100;
        for update in &batch {
            cluster.try_ingest(Update::Dense(update.clone())).unwrap();
        }
        let kill = cluster.inject_node_failure(NodeId::new(1)).unwrap();
        assert_eq!(kill.lost_updates, 2);
        assert_eq!(cluster.pending_updates(), 4);
        let resent = cluster.try_ingest(Update::Dense(batch[2].clone()));
        assert_eq!(
            resent,
            Err(LiflError::InvalidAggregationGoal(u64::MAX - 100))
        );
        assert_eq!(cluster.pending_updates(), 4);
    }

    #[test]
    fn a_failure_free_cluster_is_the_same_cluster_with_or_without_fault_tolerance() {
        let run = |workers: usize, faults: bool| {
            let mut builder = ClusterBuilder::new()
                .topology(Topology::new(vec![2, 2, 2]).unwrap())
                .codec(CodecKind::Uniform8)
                .admission(AdmissionConfig::bounded(64, 1 << 24).with_quorum(1))
                .fleet_scaling(
                    FleetConfig::default()
                        .with_target_depth(1.0)
                        .with_leaf_bounds(2, 16),
                );
            if faults {
                builder = builder.fault_tolerance(FaultToleranceConfig::default());
            }
            let mut cluster = builder.build_on(Workers::with_count(workers)).unwrap();
            let (mut trace, mut moved, mut resized) = (Vec::new(), false, false);
            for round in 0..5 {
                if round == 2 {
                    cluster.observe_node_load(NodeId::new(1), 64.0);
                }
                for update in updates(12 + 4 * round, 16) {
                    cluster.try_ingest(Update::Dense(update)).unwrap();
                }
                let report = cluster.drive().unwrap();
                moved |= report.replacement.is_some();
                resized |= report.scaling.iter().any(|a| a.decision.is_resize());
                let (leaves, stats) = (cluster.node_leaves(), cluster.admission_stats());
                trace.push(format!("{report:?} {leaves:?} {stats:?}"));
            }
            assert!(
                moved && resized,
                "placement moved {moved}, fleet resized {resized}"
            );
            trace
        };
        for workers in [0, 1, 3] {
            assert_eq!(run(workers, true), run(workers, false), "{workers} workers");
        }
    }
}
