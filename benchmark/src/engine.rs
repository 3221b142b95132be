//! The thin adapter: the only file of the benchmark that names an engine
//! crate. Everything else talks to the engine through the types below, so a
//! PR that collapses the engine's API (ROADMAP item 3) edits this file and
//! nothing else.
//!
//! It uses only the entry points that survive that collapse —
//! `SessionBuilder`/`ClusterBuilder`, `try_ingest`, `depart_client`,
//! `record_client_utility`, `drive`, `drive_to_wire`, the polymorphic
//! `Gateway::ingest`, `AggregatorRuntime`, `TrainingDriver::run_round`,
//! `ObjectStore::{put_f32, get, recycle}`, `UpdateCodec`/`ErrorFeedback`/
//! `EncodedView`, `CumulativeFedAvg`/`ShardedFedAvg` and `kernels::*` —
//! never `Session::ingest`, `Gateway::ingest_client_update` or the other
//! variants slated for deletion.

use crate::inputs::ClientInput;
use crate::stats::{median, median_ns, time_ns};
use lifl_core::admission::AdmissionQueues;
use lifl_core::aggregator::AggregatorRuntime;
use lifl_core::cluster::{Cluster, ClusterBuilder};
use lifl_core::gateway::Gateway;
use lifl_core::session::{Session, SessionBuilder};
use lifl_core::training::{TrainingConfig, TrainingDriver};
use lifl_fl::client::ClientAvailability;
use lifl_fl::codec::{EncodedView, ErrorFeedback, UpdateCodec};
use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
use lifl_fl::kernels;
use lifl_fl::population::{Population, PopulationConfig};
use lifl_fl::trainer::{LocalTrainer, TrainerConfig};
use lifl_fl::{CumulativeFedAvg, DenseModel, Ingest, RoundAggregate, ShardedFedAvg};
use lifl_shmem::queue::QueuedUpdate;
use lifl_shmem::{BufferPool, InPlaceQueue, ObjectStore, PooledBacklog};
use lifl_simcore::SimRng;
use lifl_types::{AdmissionConfig, AggregatorId, ClientId, LiflError, NodeId, Topology};
use std::collections::BTreeMap;
use std::hint::black_box;

pub use lifl_fl::Update;
pub use lifl_types::{AdmissionOutcome, CodecKind};

/// Named measurements, keyed by the metric names of `BENCHMARK.json`.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Which front door a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// One in-process `Session`.
    Session,
    /// A `Cluster`: the last fan-in is the node count.
    Cluster,
}

/// The engine configuration of one workload.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    pub kind: BackendKind,
    /// Fan-ins from the leaves up (`[8, 4]` = 4 leaves of 8 updates).
    pub fan_in: Vec<usize>,
    pub codec: CodecKind,
    pub shards: usize,
    /// Per-leaf `(slots, bytes)` admission budget; rounds close on a quorum
    /// of one update when set.
    pub admission: Option<(usize, usize)>,
    pub dim: usize,
}

impl EngineSpec {
    /// The tree one node's session drives: the whole tree for a session,
    /// the tree below the cross-machine level for a cluster.
    pub fn session_fan_in(&self) -> &[usize] {
        match self.kind {
            BackendKind::Session => &self.fan_in,
            BackendKind::Cluster => &self.fan_in[..self.fan_in.len() - 1],
        }
    }

    /// Updates one full round aggregates.
    pub fn round_capacity(&self) -> usize {
        self.fan_in.iter().product()
    }

    /// Nodes whose subtrees a round drives one after the other.
    pub fn nodes(&self) -> usize {
        match self.kind {
            BackendKind::Session => 1,
            BackendKind::Cluster => self.fan_in.last().copied().unwrap_or(1),
        }
    }

    fn admission_config(&self) -> Option<AdmissionConfig> {
        self.admission
            .map(|(slots, bytes)| AdmissionConfig::bounded(slots, bytes).with_quorum(1))
    }
}

/// The kernel arm the engine dispatched to (`avx2` or `scalar`).
pub fn kernel_arm() -> &'static str {
    kernels::active_kernel_arm()
}

fn err(error: LiflError) -> String {
    error.to_string()
}

fn topology(fan_in: &[usize]) -> Result<Topology, String> {
    Topology::new(fan_in.to_vec()).map_err(err)
}

/// Wraps harness-generated values in the engine's dense update envelope
/// (takes the vector by value: the caller clones outside the timed region).
pub fn dense_update(client: u64, values: Vec<f32>, weight: u64) -> Update {
    Update::dense(ClientId::new(client), DenseModel::from_vec(values), weight)
}

fn build_session(spec: &EngineSpec) -> Result<Session, String> {
    let mut builder = SessionBuilder::new()
        .topology(topology(spec.session_fan_in())?)
        .codec(spec.codec)
        .shards(spec.shards);
    if let Some(config) = spec.admission_config() {
        builder = builder.admission(config);
    }
    builder.build().map_err(err)
}

/// What one driven round returned, flattened over both backends.
#[derive(Debug, Clone, Default)]
pub struct RoundOutput {
    pub model: Vec<f32>,
    /// Total FedAvg weight the returned model carries.
    pub samples: u64,
    pub updates: u64,
    pub ingress_wire_bytes: u64,
    pub inter_node_wire_bytes: u64,
    pub hops: u64,
    pub hop_wire_bytes: u64,
    /// Modelled (not measured) latency of the serialized remote hops.
    pub modelled_hop_ms: f64,
    pub top_moved: bool,
    /// Lifetime object-store puts and the store high-water mark, summed
    /// over every store the round touched.
    pub store_total_puts: u64,
    pub store_peak_bytes: u64,
}

/// Counters the engine keeps about its own layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounters {
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_peak_idle_bytes: u64,
    pub admission_queued: u64,
    pub admission_drained: u64,
    pub admission_rejected: u64,
    pub admission_peak_queued: u64,
}

/// A session or a cluster behind the calls the load generator makes.
#[derive(Debug)]
pub enum Backend {
    Session(Box<Session>),
    Cluster(Box<Cluster>),
}

impl Backend {
    pub fn build(spec: &EngineSpec) -> Result<Backend, String> {
        match spec.kind {
            BackendKind::Session => Ok(Backend::Session(Box::new(build_session(spec)?))),
            BackendKind::Cluster => {
                let mut builder = ClusterBuilder::new()
                    .topology(topology(&spec.fan_in)?)
                    .codec(spec.codec)
                    .shards(spec.shards);
                if let Some(config) = spec.admission_config() {
                    builder = builder.admission(config);
                }
                Ok(Backend::Cluster(Box::new(builder.build().map_err(err)?)))
            }
        }
    }

    pub fn try_ingest(&mut self, update: Update) -> Result<AdmissionOutcome, String> {
        match self {
            Backend::Session(s) => s.try_ingest(update),
            Backend::Cluster(c) => c.try_ingest(update),
        }
        .map_err(err)
    }

    pub fn drive(&mut self) -> Result<RoundOutput, String> {
        match self {
            Backend::Session(s) => {
                let report = s.drive().map_err(err)?;
                Ok(RoundOutput {
                    samples: report.update.samples,
                    model: report.update.model.into_vec(),
                    updates: report.updates_ingested,
                    ingress_wire_bytes: report.ingress_wire_bytes,
                    store_total_puts: report.store_stats.total_puts,
                    store_peak_bytes: report.store_stats.peak_bytes,
                    ..RoundOutput::default()
                })
            }
            Backend::Cluster(c) => cluster_round(c),
        }
    }

    pub fn pending_updates(&self) -> u64 {
        match self {
            Backend::Session(s) => s.pending_updates(),
            Backend::Cluster(c) => c.pending_updates(),
        }
    }

    pub fn depart_client(&mut self, client: u64) -> bool {
        match self {
            Backend::Session(s) => s.depart_client(ClientId::new(client)),
            Backend::Cluster(c) => c.depart_client(ClientId::new(client)),
        }
    }

    pub fn record_client_utility(&mut self, client: u64, utility: f64) {
        match self {
            Backend::Session(s) => s.record_client_utility(ClientId::new(client), utility),
            Backend::Cluster(c) => c.record_client_utility(ClientId::new(client), utility),
        }
    }

    /// Producing clients of the open round in arrival order (sessions only:
    /// a cluster keeps no cluster-wide roster).
    pub fn round_clients(&self) -> Vec<u64> {
        match self {
            Backend::Session(s) => s
                .round_clients()
                .into_iter()
                .flatten()
                .map(ClientId::index)
                .collect(),
            Backend::Cluster(_) => Vec::new(),
        }
    }

    pub fn counters(&self) -> LayerCounters {
        let (pool, admission) = match self {
            Backend::Session(s) => (s.pool().stats(), s.admission_stats()),
            Backend::Cluster(c) => (c.pool().stats(), c.admission_stats()),
        };
        LayerCounters {
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_peak_idle_bytes: pool.peak_idle_bytes,
            admission_queued: admission.queued,
            admission_drained: admission.drained,
            admission_rejected: admission.rejected,
            admission_peak_queued: admission.peak_queued as u64,
        }
    }
}

fn cluster_round(cluster: &mut Cluster) -> Result<RoundOutput, String> {
    let report = cluster.drive().map_err(err)?;
    let stores = report
        .nodes
        .iter()
        .map(|n| n.store_stats)
        .chain([report.top_store_stats]);
    Ok(RoundOutput {
        updates: report.updates_ingested(),
        ingress_wire_bytes: report.nodes.iter().map(|n| n.ingress_wire_bytes).sum(),
        inter_node_wire_bytes: report.inter_node_wire_bytes(),
        hops: report.hops.len() as u64,
        hop_wire_bytes: report.hops.iter().map(|h| h.wire_bytes).sum(),
        modelled_hop_ms: report.serialized_hop_latency().as_secs() * 1e3,
        top_moved: report.replacement.is_some(),
        store_total_puts: stores.clone().map(|s| s.total_puts).sum(),
        store_peak_bytes: stores.map(|s| s.peak_bytes).sum(),
        samples: report.update.samples,
        model: report.update.model.into_vec(),
    })
}

// ---------------------------------------------------------------------------
// Training.
// ---------------------------------------------------------------------------

/// The synthetic federated task `train_cluster` trains.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub clients: usize,
    pub features: usize,
    pub classes: usize,
    pub dirichlet_alpha: f64,
    pub noise_std: f64,
    pub learning_rate: f32,
    pub local_epochs: usize,
}

/// What the timing backend saw of one training round: the aggregation half
/// of `run_round`, measured from outside through the `Ingest` trait.
#[derive(Debug, Clone, Default)]
pub struct TrainRound {
    pub train_loss: f64,
    pub accuracy_pct: f64,
    pub output: RoundOutput,
    /// Σ weights of the updates the driver offered this round.
    pub offered_weight: u64,
    /// Wall time inside the backend's ingest calls, summed over the round.
    pub ingest_ns: f64,
    /// Wall time of the backend's `aggregate_round` (last ingest returned →
    /// model returned): the round's aggregation completion time.
    pub aggregate_ns: f64,
    /// The dense updates the driver offered, kept only on request.
    pub offered: Vec<ClientInput>,
}

/// A `Cluster` behind the `Ingest` trait, timing every call the training
/// driver makes into it.
#[derive(Debug)]
struct TimedCluster {
    cluster: Cluster,
    capture: bool,
    round: TrainRound,
}

impl Ingest for TimedCluster {
    fn ingest_update(&mut self, update: Update) -> lifl_types::Result<()> {
        if self.capture {
            if let Update::Dense(dense) = &update {
                self.round.offered.push(ClientInput {
                    client: dense.client.map_or(0, ClientId::index),
                    values: dense.model.as_slice().to_vec(),
                    weight: dense.samples,
                });
            }
        }
        self.round.offered_weight += update.weight();
        let (outcome, ns) = time_ns(|| self.cluster.try_ingest(update));
        self.round.ingest_ns += ns;
        match outcome? {
            AdmissionOutcome::Admitted => Ok(()),
            _ => Err(LiflError::InvalidConfig(
                "cluster round is full".to_string(),
            )),
        }
    }

    fn round_capacity(&self) -> usize {
        self.cluster.round_capacity()
    }

    fn ingress_codec(&self) -> CodecKind {
        self.cluster.codec()
    }

    fn aggregate_round(&mut self) -> lifl_types::Result<RoundAggregate> {
        let cluster = &mut self.cluster;
        let (output, ns) = time_ns(|| cluster_round(cluster));
        self.round.aggregate_ns = ns;
        let output = output.map_err(LiflError::Simulation)?;
        let aggregate = RoundAggregate {
            update: lifl_fl::ModelUpdate::intermediate(
                DenseModel::from_vec(output.model.clone()),
                output.samples,
            ),
            ingress_wire_bytes: output.ingress_wire_bytes,
            updates_ingested: output.updates,
        };
        self.round.output = output;
        Ok(aggregate)
    }

    fn discard_round(&mut self) {
        self.cluster.discard_round();
    }
}

/// `TrainingDriver` over a timed cluster: one `run_round` per call.
#[derive(Debug)]
pub struct TrainEngine {
    driver: TrainingDriver<TimedCluster>,
    rng: SimRng,
    dataset: FederatedDataset,
    trainer: TrainerConfig,
}

impl TrainEngine {
    /// Generates the dataset and population from `seed` and builds the
    /// cluster `spec` describes under a fresh driver.
    pub fn build(spec: &EngineSpec, task: &TrainSpec, seed: u64) -> Result<TrainEngine, String> {
        let Backend::Cluster(cluster) = Backend::build(spec)? else {
            return Err("training runs over a cluster".to_string());
        };
        let mut rng = SimRng::from_seed(seed);
        let dataset = FederatedDataset::generate(
            DatasetConfig {
                num_clients: task.clients,
                num_features: task.features,
                num_classes: task.classes,
                dirichlet_alpha: task.dirichlet_alpha,
                noise_std: task.noise_std,
                ..DatasetConfig::default()
            },
            &mut rng,
        );
        let population = Population::generate(
            PopulationConfig {
                total_clients: task.clients,
                active_per_round: spec.round_capacity(),
                availability: ClientAvailability::AlwaysOn,
                mean_samples: DatasetConfig::default().mean_samples_per_client as u64,
                speed_spread: 0.3,
            },
            &mut rng,
        );
        let trainer = TrainerConfig {
            learning_rate: task.learning_rate,
            local_epochs: task.local_epochs,
            ..TrainerConfig::default()
        };
        let backend = TimedCluster {
            cluster: *cluster,
            capture: false,
            round: TrainRound::default(),
        };
        let config = TrainingConfig {
            trainer,
            ..TrainingConfig::default()
        };
        Ok(TrainEngine {
            driver: TrainingDriver::new(backend, dataset.clone(), population, config),
            rng,
            dataset,
            trainer,
        })
    }

    /// Runs one `TrainingDriver::run_round`; `capture` keeps a copy of every
    /// dense update the driver offers (for the reference check).
    pub fn run_round(&mut self, capture: bool) -> Result<TrainRound, String> {
        let backend = self.driver.backend_mut();
        backend.capture = capture;
        backend.round = TrainRound::default();
        let outcome = self.driver.run_round(&mut self.rng).map_err(err)?;
        let mut round = std::mem::take(&mut self.driver.backend_mut().round);
        round.train_loss = outcome.train_loss;
        round.accuracy_pct = outcome.accuracy.unwrap_or(0.0);
        Ok(round)
    }

    /// Layer replay of the training half: `LocalTrainer::train` on the first
    /// `clients` shards and one test-set evaluation, each timed alone.
    pub fn replay_training(&mut self, clients: usize, metrics: &mut Metrics) {
        let trainer = LocalTrainer::new(
            self.dataset.num_features,
            self.dataset.num_classes,
            self.trainer,
        );
        let global = self.driver.global_model().clone();
        let mut rng = SimRng::from_seed(1);
        let samples: Vec<f64> = (0..clients.min(self.dataset.num_clients()) as u64)
            .map(|c| {
                let shard = self.dataset.shard(ClientId::new(c));
                time_ns(|| black_box(trainer.train(&global, shard, &mut rng))).1
            })
            .collect();
        metrics.insert("training.local_train_ns_per_client", median(&samples));
        let driver = &self.driver;
        metrics.insert(
            "training.evaluate_ns",
            median_ns(3, || {
                black_box(driver.evaluate());
            }),
        );
    }
}

// ---------------------------------------------------------------------------
// Layer replay.
// ---------------------------------------------------------------------------

/// What the single-threaded layer replay measured: the per-layer metrics
/// plus the piece of a drive's blocking path the attribution needs.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub metrics: Metrics,
    /// Replayed aggregator time on a drive's blocking path: per level, the
    /// level's median run time once per batch of `cores` stations.
    pub tree_critical_ns: f64,
}

/// Repetitions of the cheap micro-measurements.
const REPS: usize = 9;

/// Sweeps of every replay that allocates: the first one faults fresh pages
/// in and fills the buffer pool, the last one is kept — the state every
/// timed round after the first runs in.
const SWEEPS: usize = 2;

fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Bytes per nanosecond is GB/s.
fn gbps(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns.max(1.0)
}

fn view_of(bytes: &[u8], encoded: bool) -> Result<EncodedView<'_>, String> {
    if encoded {
        EncodedView::parse(bytes).map_err(err)
    } else {
        Ok(EncodedView::identity_over(bytes))
    }
}

/// kernels: the roofline each round is quoted against, at the workload's
/// dimension. GB/s counts dense-equivalent bytes folded (4 per parameter
/// per source).
fn replay_kernels(inputs: &[ClientInput], m: &mut Metrics) {
    let first = &inputs[0].values;
    let dim = first.len();
    let dense_bytes = dim * 4;
    let mut acc = vec![0.0f32; dim];
    let body = le_bytes(first);
    let ns = median_ns(REPS, || {
        kernels::fold_dense_le(black_box(&mut acc), black_box(&body), 0.5)
    });
    m.insert("kernels.fold_dense_gbps", gbps(dense_bytes, ns));
    let scale = kernels::max_abs_finite(first) / 127.0;
    let mut rng = kernels::StochasticRng::from_seed(1);
    let mut levels = Vec::new();
    let ns = median_ns(REPS, || {
        kernels::encode_u8(black_box(first), scale, 127.0, &mut rng, &mut levels)
    });
    m.insert("kernels.encode_u8_gbps", gbps(dense_bytes, ns));
    let ns = median_ns(REPS, || {
        kernels::fold_u8(black_box(&mut acc), black_box(&levels), 0.01)
    });
    m.insert("kernels.fold_u8_gbps", gbps(dense_bytes, ns));
    let pairs = UpdateCodec::new(CodecKind::TopK { permille: 50 })
        .encode_slice(first)
        .into_body();
    let ns = median_ns(REPS, || {
        kernels::fold_topk(black_box(&mut acc), black_box(&pairs), 0, dim, 0.5)
    });
    m.insert("kernels.fold_topk_gbps", gbps(dense_bytes, ns));
    let srcs: [&[f32]; 8] = std::array::from_fn(|i| inputs[i % inputs.len()].values.as_slice());
    let ns = median_ns(REPS, || {
        kernels::axpy8(black_box(&mut acc), black_box(srcs), [0.125; 8])
    });
    m.insert("kernels.axpy8_gbps", gbps(8 * dense_bytes, ns));
    let scalar = kernels::active_kernel_arm() == "scalar";
    m.insert("kernels.arm", if scalar { 0.0 } else { 1.0 });
}

/// codec: plain encode, encode with per-client error feedback, header parse
/// and full decode. Returns the round in the representation the workload
/// stores (what the gateway replay ingests) and round 1's wire bytes.
fn replay_codec(
    spec: &EngineSpec,
    inputs: &[ClientInput],
    pool: &BufferPool,
    m: &mut Metrics,
) -> Result<(ErrorFeedback, Vec<Update>, Vec<u8>, bool), String> {
    let mut codec = UpdateCodec::with_seed(spec.codec, 1).with_pool(pool.clone());
    let mut encode_ns = Vec::new();
    for _ in 0..SWEEPS {
        encode_ns.clear();
        for input in inputs.iter().take(8) {
            let (encoded, ns) = time_ns(|| codec.encode_slice(&input.values));
            codec.recycle(encoded);
            encode_ns.push(ns);
        }
    }
    m.insert("codec.encode_ns_per_update", median(&encode_ns));

    let mut feedback =
        ErrorFeedback::new(UpdateCodec::with_seed(spec.codec, 1).with_pool(pool.clone()));
    let mut feedback_ns = Vec::new();
    let mut round: Vec<Update> = Vec::new();
    for _ in 0..SWEEPS {
        feedback_ns.clear();
        for update in round.drain(..) {
            feedback.recycle_update(update);
        }
        for input in inputs {
            let model = DenseModel::from_vec(input.values.clone());
            let client = ClientId::new(input.client);
            let (update, ns) = time_ns(|| feedback.encode_update(client, model, input.weight));
            round.push(update);
            feedback_ns.push(ns);
        }
    }
    m.insert("codec.feedback_encode_ns_per_update", median(&feedback_ns));
    let dense_bytes = spec.dim * 4;
    m.insert(
        "codec.wire_ratio",
        round[0].wire_bytes() as f64 / dense_bytes as f64,
    );
    let (wire, encoded) = match &round[0] {
        Update::Encoded { update, .. } => (update.to_bytes(), true),
        _ => (le_bytes(&inputs[0].values), false),
    };
    m.insert(
        "codec.parse_ns",
        median_ns(REPS, || {
            black_box(view_of(black_box(&wire), encoded).is_ok());
        }),
    );
    let view = view_of(&wire, encoded)?;
    let mut decoded = vec![0.0f32; spec.dim];
    m.insert(
        "codec.decode_into_ns",
        median_ns(REPS, || {
            black_box(view.decode_into(black_box(&mut decoded)).is_ok());
        }),
    );
    Ok((feedback, round, wire, encoded))
}

/// store, queue, backlog: objects of the size this workload keeps in shared
/// memory, one descriptor, one parked payload.
fn replay_shmem(
    spec: &EngineSpec,
    inputs: &[ClientInput],
    wire: &[u8],
    pool: &BufferPool,
    m: &mut Metrics,
) -> Result<(), String> {
    let store = ObjectStore::new();
    let object = &inputs[0].values[..wire.len().div_ceil(4).min(spec.dim)];
    let (mut put_ns, mut get_ns, mut recycle_ns) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SWEEPS {
        let mut keys = Vec::new();
        put_ns.clear();
        for _ in inputs {
            let (key, ns) = time_ns(|| store.put_f32(black_box(object)));
            keys.push(key.map_err(err)?);
            put_ns.push(ns);
        }
        get_ns = keys
            .iter()
            .map(|key| time_ns(|| black_box(store.get(key).is_ok())).1)
            .collect();
        recycle_ns = keys
            .iter()
            .map(|key| time_ns(|| black_box(store.recycle(key).is_ok())).1)
            .collect();
    }
    m.insert("store.put_ns_per_update", median(&put_ns));
    m.insert("store.put_gbps", gbps(object.len() * 4, median(&put_ns)));
    m.insert("store.get_ns", median(&get_ns));
    m.insert("store.recycle_ns", median(&recycle_ns));

    let key = store.put_f32(&[0.0]).map_err(err)?;
    let queue = InPlaceQueue::new();
    let ns = median_ns(REPS, || {
        for _ in 0..1000 {
            queue.enqueue(QueuedUpdate::intermediate(key, 1));
            black_box(queue.dequeue());
        }
    });
    m.insert("queue.enqueue_dequeue_ns", ns / 1000.0);

    let (slots, bytes) = replay_budget(spec, wire);
    let mut backlog = PooledBacklog::new(pool.clone(), slots, bytes);
    let ns = median_ns(REPS, || {
        if let Some(parked) = backlog.try_store(black_box(wire)) {
            backlog.release(parked);
        }
    });
    m.insert("backlog.store_release_ns", ns);
    Ok(())
}

/// The workload's admission budget, widened (for workloads without one)
/// until every leaf queue can hold its slots' worth of this payload.
fn replay_budget(spec: &EngineSpec, wire: &[u8]) -> (usize, usize) {
    let (slots, bytes) = spec.admission.unwrap_or((4, 1 << 20));
    (slots, bytes.max(wire.len() * slots))
}

/// gateway → aggregator → aggregate/sharded: the workload's representation
/// into a store round-robin over the leaves exactly as a session routes,
/// then every station's `run_to_completion` on this thread, level by level
/// in child order (what `drive` spawns one thread each for), then the fold
/// layer alone on leaf 0's stored bytes.
fn replay_tree(
    spec: &EngineSpec,
    tree: &Topology,
    round: &[Update],
    pool: &BufferPool,
    cores: usize,
    m: &mut Metrics,
) -> Result<f64, String> {
    let leaves = tree.leaves();
    let shared = ObjectStore::new();
    let mut gateway = Gateway::new(NodeId::new(0), shared.clone());
    let inboxes: Vec<InPlaceQueue> = (0..leaves)
        .map(|j| gateway.register_aggregator(AggregatorId::new(j as u64)))
        .collect();
    let station = |level: usize, index: usize, inbox: &InPlaceQueue| {
        let codec = UpdateCodec::with_seed(spec.codec, index as u64).with_pool(pool.clone());
        let mut aggregator =
            AggregatorRuntime::for_level(tree, level, index, shared.clone(), inbox.clone(), codec)
                .map_err(err)?;
        aggregator.set_shards(spec.shards);
        Ok::<_, String>(aggregator)
    };

    let (mut gateway_ns, mut level_ns) = (Vec::new(), Vec::new());
    let mut queued: Vec<QueuedUpdate> = Vec::new();
    let mut produced = Vec::new();
    for _ in 0..SWEEPS {
        for entry in queued.drain(..).chain(produced.drain(..)) {
            shared.recycle(&entry.key).map_err(err)?;
        }
        gateway_ns.clear();
        let ingested_before = gateway.ingested_bytes();
        // A session consumes each update as it ingests it, so the store's
        // next allocation can reuse the buffer the previous update gave up;
        // cloning the round first and dropping inside the timed call keeps
        // the allocator in that state.
        let clones: Vec<Update> = round.to_vec();
        for (k, update) in clones.into_iter().enumerate() {
            let target = AggregatorId::new((k % leaves) as u64);
            let (entry, ns) = time_ns(|| gateway.ingest(target, &update));
            queued.push(entry.map_err(err)?);
            gateway_ns.push(ns);
        }
        m.insert(
            "gateway.ingested_mb_per_round",
            (gateway.ingested_bytes() - ingested_before) as f64 / 1e6,
        );

        level_ns.clear();
        let mut stations = inboxes.clone();
        for level in 0..tree.levels() {
            let mut outputs = Vec::new();
            let mut runs = Vec::new();
            for (index, inbox) in stations.iter().enumerate() {
                let mut aggregator = station(level, index, inbox)?;
                let (output, ns) = time_ns(|| aggregator.run_to_completion());
                outputs.push(output.map_err(err)?);
                runs.push(ns);
            }
            level_ns.push(median(&runs));
            if level + 1 < tree.levels() {
                stations = outputs
                    .chunks(tree.fan_in(level + 1))
                    .map(|children| {
                        let inbox = InPlaceQueue::new();
                        for child in children {
                            inbox.enqueue(*child);
                        }
                        inbox
                    })
                    .collect();
            }
            produced.extend(outputs);
        }
    }
    m.insert("gateway.ingest_ns_per_update", median(&gateway_ns));
    m.insert("aggregator.leaf_run_ns", level_ns[0]);
    m.insert("aggregator.top_run_ns", level_ns[level_ns.len() - 1]);
    let peak_depth = inboxes.iter().map(InPlaceQueue::peak_depth).max();
    m.insert("queue.peak_depth", peak_depth.unwrap_or(0) as f64);
    let tree_critical_ns: f64 = level_ns
        .iter()
        .enumerate()
        .map(|(level, ns)| tree.width(level).div_ceil(cores.max(1)) as f64 * ns)
        .sum();

    // aggregate / sharded: the fold layer alone.
    let leaf0: Vec<QueuedUpdate> = queued.iter().step_by(leaves).copied().collect();
    let objects = leaf0
        .iter()
        .map(|q| shared.get(&q.key).map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    let views = objects
        .iter()
        .zip(&leaf0)
        .map(|(o, q)| Ok((view_of(o.as_slice(), q.encoded)?, q.weight)))
        .collect::<Result<Vec<_>, String>>()?;
    let (mut fold_ns, mut finalize_ns) = (Vec::new(), 0.0);
    for _ in 0..SWEEPS {
        fold_ns.clear();
        let mut flat = CumulativeFedAvg::new(spec.dim);
        for (view, weight) in &views {
            let (folded, ns) = time_ns(|| flat.fold_encoded_view(view, *weight));
            folded.map_err(err)?;
            fold_ns.push(ns);
        }
        let (finalized, ns) = time_ns(|| flat.finalize());
        finalized.map_err(err)?;
        finalize_ns = ns;
    }
    m.insert("aggregate.fold_ns_per_update", median(&fold_ns));
    m.insert("aggregate.finalize_ns", finalize_ns);
    let mut batch_ns = Vec::new();
    for _ in 0..3 {
        let mut sharded = ShardedFedAvg::new(spec.dim, spec.shards);
        let (folded, ns) = time_ns(|| sharded.fold_encoded_batch(&views));
        folded.map_err(err)?;
        batch_ns.push(ns / views.len() as f64);
    }
    m.insert("sharded.fold_batch_ns_per_update", median(&batch_ns));
    m.insert(
        "sharded.speedup_over_seq",
        median(&fold_ns) / median(&batch_ns).max(1.0),
    );

    // aggregator.send alone: refill leaf 0, fold to the goal, time the send.
    for entry in &leaf0 {
        inboxes[0].enqueue(*entry);
    }
    let mut leaf = station(0, 0, &inboxes[0])?;
    while !leaf.goal_met() {
        let progressed = if spec.shards > 1 {
            leaf.drain_batch().map_err(err)? > 0
        } else {
            leaf.poll().map_err(err)?
        };
        if !progressed {
            return Err("replayed leaf starved".to_string());
        }
    }
    let (sent, send_ns) = time_ns(|| leaf.send());
    sent.map_err(err)?;
    m.insert("aggregator.send_ns", send_ns);
    Ok(tree_critical_ns)
}

/// admission: park one queue budget's worth of offers, then drain them.
fn replay_admission(
    spec: &EngineSpec,
    inputs: &[ClientInput],
    leaves: usize,
    wire: &[u8],
    encoded: bool,
    pool: &BufferPool,
    m: &mut Metrics,
) {
    let (slots, bytes) = replay_budget(spec, wire);
    let config = AdmissionConfig::bounded(slots, bytes).with_quorum(1);
    let mut queues = AdmissionQueues::new(config, leaves, pool.clone());
    let (mut offer_ns, mut take_ns) = (Vec::new(), Vec::new());
    for _ in 0..SWEEPS {
        offer_ns = inputs
            .iter()
            .cycle()
            .take(leaves * slots)
            .map(|input| {
                let client = Some(ClientId::new(input.client));
                time_ns(|| black_box(queues.offer(client, wire, input.weight, encoded))).1
            })
            .collect();
        take_ns.clear();
        loop {
            let (offer, ns) = time_ns(|| queues.take_best());
            let Some(offer) = offer else { break };
            pool.checkin_bytes(offer.payload);
            take_ns.push(ns);
        }
    }
    m.insert("admission.offer_ns", median(&offer_ns));
    m.insert("admission.take_best_ns", median(&take_ns));
}

/// session: the whole front door, on a session shaped like one node's.
fn replay_session(
    spec: &EngineSpec,
    inputs: &[ClientInput],
    m: &mut Metrics,
) -> Result<(), String> {
    let mut session = build_session(spec)?;
    let (mut ingest_ns, mut drive_ns, mut depart_ns, mut wire_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Inputs are cloned a round at a time before the first offer, as the
    // load generator does, so the allocator sees the same pattern.
    let clone_round = || -> Vec<Update> {
        inputs
            .iter()
            .map(|i| dense_update(i.client, i.values.clone(), i.weight))
            .collect()
    };
    let offer = |session: &mut Session, update: Update, sink: &mut Vec<f64>| {
        let (outcome, ns) = time_ns(|| session.try_ingest(update));
        sink.push(ns);
        match outcome.map_err(err)? {
            AdmissionOutcome::Admitted => Ok(()),
            other => Err(format!("replay offer not admitted: {other:?}")),
        }
    };
    for _ in 0..3 {
        for update in clone_round() {
            offer(&mut session, update, &mut ingest_ns)?;
        }
        let (report, ns) = time_ns(|| session.drive());
        report.map_err(err)?;
        drive_ns.push(ns);

        let mut unkept = Vec::new();
        let mut updates = clone_round();
        let again = updates[0].clone();
        for update in updates.drain(..) {
            offer(&mut session, update, &mut unkept)?;
        }
        let departing = ClientId::new(inputs[0].client);
        let (departed, ns) = time_ns(|| session.depart_client(departing));
        if !departed {
            return Err("replay depart reclaimed nothing".to_string());
        }
        depart_ns.push(ns);
        offer(&mut session, again, &mut unkept)?;
        let (export, ns) = time_ns(|| session.drive_to_wire());
        export.map_err(err)?;
        wire_ns.push(ns);
    }
    m.insert("session.try_ingest_ns_per_update", median(&ingest_ns));
    m.insert("session.drive_ns", median(&drive_ns));
    m.insert("session.drive_to_wire_ns", median(&wire_ns));
    m.insert("session.depart_client_ns", median(&depart_ns));
    Ok(())
}

/// Replays one round's inputs through each layer's public API in isolation,
/// on the caller's thread, timing every call from outside. `inputs` holds
/// one session's worth of updates (`spec.session_fan_in()` product).
pub fn layer_replay(
    spec: &EngineSpec,
    inputs: &[ClientInput],
    cores: usize,
) -> Result<Replay, String> {
    let mut m = Metrics::new();
    let tree = topology(spec.session_fan_in())?;
    if inputs.len() != tree.total_updates() || inputs.iter().any(|i| i.values.len() != spec.dim) {
        return Err(format!(
            "layer replay wants {} inputs of dim {}",
            tree.total_updates(),
            spec.dim
        ));
    }
    let pool = BufferPool::new();
    replay_kernels(inputs, &mut m);
    let (feedback, round, wire, encoded) = replay_codec(spec, inputs, &pool, &mut m)?;
    replay_shmem(spec, inputs, &wire, &pool, &mut m)?;
    let tree_critical_ns = replay_tree(spec, &tree, &round, &pool, cores, &mut m)?;
    for update in round {
        feedback.recycle_update(update);
    }
    replay_admission(spec, inputs, tree.leaves(), &wire, encoded, &pool, &mut m);
    replay_session(spec, inputs, &mut m)?;
    let cost = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let accounted = tree_critical_ns + cost("codec.decode_into_ns");
    let overhead = 1.0 - accounted / cost("session.drive_ns").max(1.0);
    m.insert("session.spawn_overhead_frac", overhead);
    Ok(Replay {
        metrics: m,
        tree_critical_ns,
    })
}
