//! The cluster-scale simulation engine for LIFL and its baselines.
//!
//! [`LiflPlatform`] simulates one aggregation round at a time: client updates
//! arrive at the cluster ingress, are load-balanced to worker nodes
//! (locality-aware bin-packing or least-connection spreading, §5.1), flow
//! through each node's aggregation subtree (two-level by default, §5.2;
//! deeper when `max_interior_fan_in` caps the middle width) and finally reach
//! the top aggregator that updates the global model. All data-plane and start-up
//! costs come from the calibrated [`CostModel`]; the orchestration behaviour
//! (placement policy, hierarchy planning, runtime reuse, eager/lazy timing,
//! always-on provisioning) is captured by a [`PlatformProfile`] so the same
//! engine also powers every baseline system.

use crate::config::{AggregationTiming, ClusterConfig, LiflConfig, PlacementPolicy, RoundMetrics};
use crate::eager;
use crate::hierarchy::HierarchyPlan;
use crate::placement::{NodeCapacity, PlacementEngine};
use crate::system::AggregationSystem;
use lifl_dataplane::SystemKind;
use lifl_dataplane::{update_wire_bytes, CostModel, DataPlaneKind};
use lifl_simcore::Gantt;
use lifl_types::{CodecKind, ModelKind, NodeId, SimDuration, SimTime};
use std::collections::HashMap;

/// One aggregation round to simulate: the model being trained and the times at
/// which each participating client's update reaches the cluster ingress.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSpec {
    /// The model whose update size drives every data-plane cost.
    pub model: ModelKind,
    /// Arrival time of each model update at the cluster ingress.
    pub arrivals: Vec<SimTime>,
}

impl RoundSpec {
    /// Creates a round spec.
    pub fn new(model: ModelKind, arrivals: Vec<SimTime>) -> Self {
        RoundSpec { model, arrivals }
    }

    /// A round where all `n` updates arrive simultaneously at `at`
    /// (the Fig. 8 microbenchmark pattern).
    pub fn simultaneous(model: ModelKind, n: usize, at: SimTime) -> Self {
        RoundSpec {
            model,
            arrivals: vec![at; n],
        }
    }
}

/// Everything an aggregation round produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Round metrics (ACT, CPU time, aggregators created, nodes used, ...).
    pub metrics: RoundMetrics,
    /// Wall-clock time at which post-aggregation evaluation finished
    /// (the next round can start after this in synchronous FL).
    pub eval_finished: SimTime,
    /// The task timeline (Fig. 4 / Fig. 7(c) style).
    pub gantt: Gantt,
    /// The hierarchy plan the round executed.
    pub plan: HierarchyPlan,
}

/// The orchestration behaviour of a platform (LIFL or a baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformProfile {
    /// Which evaluated system this profile reproduces.
    pub system: SystemKind,
    /// Cluster resources.
    pub cluster: ClusterConfig,
    /// Load-balancing / bin-packing policy (§5.1).
    pub placement: PlacementPolicy,
    /// Eager or lazy aggregation (§5.4).
    pub timing: AggregationTiming,
    /// Whether hierarchies are planned ahead of arrivals (§5.2). When false,
    /// aggregator start-up is reactive and its delay sits on the critical path.
    pub hierarchy_planning: bool,
    /// Whether warm runtimes are reused across hierarchy levels (§5.3).
    pub reuse_runtimes: bool,
    /// Client updates per leaf aggregator (I, §5.2).
    pub leaf_fan_in: u32,
    /// Whether aggregators are always-on (serverful) rather than created on demand.
    pub always_on: bool,
    /// The aggregator-to-aggregator data plane.
    pub dataplane: DataPlaneKind,
    /// Whether warm instances survive between rounds (keep-alive long enough);
    /// serverless baselines lose their instances between FL rounds.
    pub warm_across_rounds: bool,
    /// The wire representation every model update travels with: all transfer
    /// costs are priced off the encoded bytes, and interior aggregators pay a
    /// fused decode-fold pass plus a re-encode pass per update.
    pub codec: CodecKind,
    /// Parameter-vector shards the fold is split across (1 = sequential).
    pub aggregation_shards: u32,
    /// Cap on every interior aggregator's fan-in when planning node subtrees
    /// (`LiflConfig::max_interior_fan_in`; 0 = uncapped two-level plans,
    /// the paper shape). With a cap, heavily loaded nodes run
    /// deeper-than-two-level subtrees and the simulated round pays an
    /// intra-node hand-off per extra level.
    pub max_interior_fan_in: u32,
}

impl PlatformProfile {
    /// LIFL with the given control-plane configuration.
    pub fn lifl(cluster: ClusterConfig, config: &LiflConfig) -> Self {
        PlatformProfile {
            system: SystemKind::Lifl,
            cluster,
            placement: config.placement,
            timing: config.timing,
            hierarchy_planning: config.hierarchy_planning,
            reuse_runtimes: config.reuse_runtimes,
            leaf_fan_in: config.leaf_fan_in,
            always_on: false,
            dataplane: DataPlaneKind::LiflSharedMemory,
            warm_across_rounds: true,
            codec: config.codec,
            aggregation_shards: config.aggregation_shards,
            max_interior_fan_in: config.max_interior_fan_in,
        }
    }

    /// The SL-H baseline of Fig. 8: LIFL's data plane, Knative least-connection
    /// load balancing, reactive scaling, no reuse, lazy aggregation.
    pub fn sl_hierarchical(cluster: ClusterConfig) -> Self {
        PlatformProfile {
            system: SystemKind::SlHierarchical,
            placement: PlacementPolicy::WorstFit,
            timing: AggregationTiming::Lazy,
            hierarchy_planning: false,
            reuse_runtimes: false,
            leaf_fan_in: 2,
            always_on: false,
            dataplane: DataPlaneKind::LiflSharedMemory,
            warm_across_rounds: false,
            codec: CodecKind::Identity,
            aggregation_shards: 1,
            max_interior_fan_in: 0,
            cluster,
        }
    }

    /// The serverless baseline (SL, §6): broker + sidecar data plane, reactive
    /// threshold scaling, least-connection spreading, lazy aggregation.
    pub fn serverless(cluster: ClusterConfig) -> Self {
        PlatformProfile {
            system: SystemKind::Serverless,
            placement: PlacementPolicy::WorstFit,
            timing: AggregationTiming::Lazy,
            hierarchy_planning: false,
            reuse_runtimes: false,
            leaf_fan_in: 2,
            always_on: false,
            dataplane: DataPlaneKind::ServerlessBrokerSidecar,
            warm_across_rounds: false,
            codec: CodecKind::Identity,
            aggregation_shards: 1,
            max_interior_fan_in: 0,
            cluster,
        }
    }

    /// The serverful baseline (SF, §6): always-on aggregators with gRPC channels.
    pub fn serverful(cluster: ClusterConfig) -> Self {
        PlatformProfile {
            system: SystemKind::Serverful,
            placement: PlacementPolicy::WorstFit,
            timing: AggregationTiming::Eager,
            hierarchy_planning: true,
            reuse_runtimes: false,
            leaf_fan_in: 2,
            always_on: true,
            dataplane: DataPlaneKind::ServerfulGrpc,
            warm_across_rounds: true,
            codec: CodecKind::Identity,
            aggregation_shards: 1,
            max_interior_fan_in: 0,
            cluster,
        }
    }

    /// Returns the profile with a different update codec (used by the
    /// `fig_codec` codec × transport sweep).
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }
}

/// The simulated aggregation platform.
#[derive(Debug, Clone)]
pub struct LiflPlatform {
    profile: PlatformProfile,
    cost: CostModel,
    /// Warm aggregator instances left on each node by previous rounds.
    warm: HashMap<NodeId, u32>,
    rounds_run: u64,
    active_aggregators: u32,
}

impl LiflPlatform {
    /// Creates a LIFL platform with the default paper-calibrated cost model.
    pub fn new(cluster: ClusterConfig, config: LiflConfig) -> Self {
        Self::with_profile(PlatformProfile::lifl(cluster, &config))
    }

    /// Creates a platform (LIFL or baseline) from an explicit profile.
    pub fn with_profile(profile: PlatformProfile) -> Self {
        LiflPlatform {
            profile,
            cost: CostModel::paper_calibrated(),
            warm: HashMap::new(),
            rounds_run: 0,
            active_aggregators: 0,
        }
    }

    /// Number of rounds simulated.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    fn take_warm(&mut self, node: NodeId) -> bool {
        if self.profile.always_on {
            return true;
        }
        match self.warm.get_mut(&node) {
            Some(count) if *count > 0 => {
                *count -= 1;
                true
            }
            _ => false,
        }
    }

    /// Simulates one aggregation round.
    pub fn run_round(&mut self, spec: &RoundSpec) -> RoundReport {
        // Every transfer below is priced off the *encoded* update size; with
        // the default `Identity` codec this is byte-identical to the seed.
        let bytes = update_wire_bytes(spec.model, self.profile.codec);
        let n = spec.arrivals.len() as u64;
        let round_index = self.rounds_run + 1;
        let mut arrivals = spec.arrivals.clone();
        arrivals.sort();
        let round_start = arrivals.first().copied().unwrap_or(SimTime::ZERO);
        let mut metrics = RoundMetrics::new(round_index, round_start);
        metrics.updates_aggregated = n;
        let mut gantt = Gantt::new();
        if !self.profile.warm_across_rounds {
            self.warm.clear();
        }

        // --- 1. Load balancing: map each update to a worker node (§5.1). ---
        let engine = PlacementEngine::new(self.profile.placement);
        let mut caps: Vec<NodeCapacity> = (0..self.profile.cluster.aggregation_nodes as u64)
            .map(|i| {
                NodeCapacity::new(
                    NodeId::new(i),
                    self.profile.cluster.node.max_service_capacity,
                )
            })
            .collect();
        let placement = engine.place_batch(n, &mut caps);
        let mut per_node: HashMap<NodeId, Vec<SimTime>> = HashMap::new();
        for (arrival, node) in arrivals.iter().zip(&placement.assignments) {
            per_node.entry(*node).or_default().push(*arrival);
        }

        // --- 2. Hierarchy plan (§5.2). ---
        let mut pending: Vec<(NodeId, u32)> = per_node
            .iter()
            .map(|(node, list)| (*node, list.len() as u32))
            .collect();
        pending.sort_by_key(|(node, _)| *node);
        let plan = HierarchyPlan::plan_capped(
            &pending,
            self.profile.leaf_fan_in,
            self.profile.max_interior_fan_in,
        );
        let top_node = plan.top_node.unwrap_or(NodeId::new(0));

        let startup = self.cost.startup(self.profile.system);
        // Each fold is a *fused* decode-fold pass (dequantize-and-axpy over
        // the wire payload — `fused_fold_compute` discounts the quantized
        // codecs' smaller memory traffic and is exactly the seed
        // `aggregation_compute` for `Identity`), split across the configured
        // shards; each interior hand-off still pays a re-encode pass.
        let shards = self
            .profile
            .aggregation_shards
            .clamp(1, self.profile.cluster.node.cores.max(1));
        let fused = self.cost.fused_fold_compute(spec.model, self.profile.codec);
        let agg_compute = fused.scaled(1.0 / sharded_fold_speedup(shards));
        let encode_pass = self.cost.codec_compute(spec.model, self.profile.codec);
        let ingest = self.cost.client_ingest(self.profile.system, bytes);
        let intra = self.cost.intra_node_transfer(self.profile.dataplane, bytes);
        let inter = self.cost.inter_node_transfer(bytes);
        let clock = self.profile.cluster.node.clock_ghz;

        let mut cpu = SimDuration::ZERO;
        let mut created = 0u64;
        let mut reused = 0u64;
        let mut inter_node_bytes = 0u64;
        let mut node_outputs: Vec<(NodeId, SimTime, u64)> = Vec::new();
        let mut aggregators_live = 0u32;

        // --- 3. Per-node subtree simulation. ---
        let mut node_ids: Vec<NodeId> = per_node.keys().copied().collect();
        node_ids.sort();
        for node in &node_ids {
            let node = *node;
            let node_arrivals = &per_node[&node];
            // per_node is keyed by the plan's own placement, so every node
            // iterated here is planned.
            let hierarchy = plan.on_node(node).expect("planned node");
            // The node's subtree shape as the shared Topology vocabulary:
            // leaf chunking and the middle level both derive from it.
            let subtree = hierarchy.topology();
            // Ingest every update through the gateway / queuing pipeline.
            let mut ready: Vec<SimTime> =
                node_arrivals.iter().map(|a| *a + ingest.latency).collect();
            ready.sort();
            cpu += ingest
                .cpu
                .to_duration(clock)
                .scaled(node_arrivals.len() as f64);
            inter_node_bytes += ingest.inter_node_bytes * node_arrivals.len() as u64;

            // Leaf aggregators: consecutive chunks of the subtree's leaf fan-in.
            let fan_in = subtree.fan_in(0);
            let mut leaf_outputs: Vec<SimTime> = Vec::new();
            let mut leaf_finish: Vec<SimTime> = Vec::new();
            for (leaf_idx, chunk) in ready.chunks(fan_in).enumerate() {
                let (Some(&first_arrival), Some(&last_arrival)) = (chunk.first(), chunk.last())
                else {
                    continue; // `chunks` never yields an empty chunk
                };
                let (instance_ready, was_created) = self.instance_ready(
                    node,
                    first_arrival,
                    round_start,
                    &startup,
                    &mut cpu,
                    clock,
                );
                if was_created {
                    created += 1;
                }
                aggregators_live += 1;
                let done =
                    eager::completion_time(self.profile.timing, instance_ready, chunk, agg_compute);
                cpu += eager::busy_time(chunk, agg_compute);
                let row = format!("{}-LF{}", node, leaf_idx + 1);
                gantt.add(row.clone(), "Network", first_arrival, last_arrival);
                gantt.add(row, "Agg.", first_arrival.max(instance_ready), done);
                // Hand the intermediate to the node's middle (or directly
                // onward): re-encode, then the shared-memory hop.
                let handoff = done + encode_pass + intra.latency;
                cpu += encode_pass + intra.cpu.to_duration(clock);
                leaf_outputs.push(handoff);
                leaf_finish.push(done);
            }

            // Interior levels of the node's subtree: §5.2 plans exactly one
            // middle; a capped plan may stack several middle levels, each
            // consuming the previous level's intermediates in chunks of its
            // fan-in, paying an intra-node hand-off (re-encode + transfer)
            // between consecutive interior levels.
            let node_done = if subtree.levels() > 1 {
                let mut inputs = leaf_outputs;
                let mut prev_finish = leaf_finish;
                let mut done_at = None;
                for level in 1..subtree.levels() {
                    let fan_in = subtree.fan_in(level);
                    let last_level = level + 1 == subtree.levels();
                    let mut outputs = Vec::new();
                    let mut finishes = Vec::new();
                    for (idx, (chunk, finish_chunk)) in inputs
                        .chunks(fan_in)
                        .zip(prev_finish.chunks(fan_in))
                        .enumerate()
                    {
                        let Some(&first_input) = chunk.iter().min() else {
                            continue; // `chunks` never yields an empty chunk
                        };
                        let (instance_ready, was_created, was_reused) =
                            if self.profile.reuse_runtimes {
                                // Reuse the earliest-finished child of this
                                // aggregator's chunk on this node (§5.3).
                                // inputs and prev_finish have equal
                                // length, so the zipped chunks are never
                                // empty.
                                let earliest = *finish_chunk.iter().min().expect("child finished");
                                (earliest, false, true)
                            } else {
                                let (ready_at, was_created) = self.instance_ready(
                                    node,
                                    first_input,
                                    round_start,
                                    &startup,
                                    &mut cpu,
                                    clock,
                                );
                                (ready_at, was_created, false)
                            };
                        if was_created {
                            created += 1;
                            aggregators_live += 1;
                        }
                        if was_reused {
                            reused += 1;
                        }
                        let done = eager::completion_time(
                            self.profile.timing,
                            instance_ready,
                            chunk,
                            agg_compute,
                        );
                        cpu += eager::busy_time(chunk, agg_compute);
                        // The seed's single middle keeps its "{node}-MID"
                        // row; deeper levels get indexed rows.
                        let row = if level == 1 && subtree.levels() == 2 {
                            format!("{node}-MID")
                        } else {
                            format!("{node}-MID{level}.{}", idx + 1)
                        };
                        gantt.add(row, "Agg.", first_input.max(instance_ready), done);
                        if last_level {
                            outputs.push(done);
                        } else {
                            // Hand the intermediate to the next interior
                            // level: re-encode, then the shared-memory hop.
                            outputs.push(done + encode_pass + intra.latency);
                            cpu += encode_pass + intra.cpu.to_duration(clock);
                        }
                        finishes.push(done);
                    }
                    if last_level {
                        done_at = outputs.into_iter().max();
                        break;
                    }
                    inputs = outputs;
                    prev_finish = finishes;
                }
                // The level loop always breaks on last_level with `done_at`
                // set.
                done_at.expect("subtree has a final level")
            } else {
                leaf_outputs[0]
            };
            node_outputs.push((node, node_done, node_arrivals.len() as u64));
        }

        // --- 4. Top aggregation on the designated node. ---
        // Intermediates produced on the top node reach the top aggregator over
        // shared memory; intermediates from other nodes cross the network and
        // serialise through the top node's gateway (the receiving gateway
        // performs the payload transform one update at a time, §4.2), which is
        // exactly the contention that makes spreading load expensive (Fig. 8).
        let mut top_inputs: Vec<SimTime> = Vec::new();
        let mut remote_outputs: Vec<SimTime> = Vec::new();
        for (node, done, _weight) in &node_outputs {
            if *node == top_node {
                top_inputs.push(*done + encode_pass + intra.latency);
                cpu += encode_pass + intra.cpu.to_duration(clock);
            } else {
                // The intermediate is re-encoded before it leaves the node.
                remote_outputs.push(*done + encode_pass);
                cpu += encode_pass;
            }
        }
        remote_outputs.sort();
        let mut gateway_free = SimTime::ZERO;
        for done in remote_outputs {
            let start = done.max(gateway_free);
            let arrive = start + inter.latency;
            gateway_free = arrive;
            top_inputs.push(arrive);
            cpu += inter.cpu.to_duration(clock);
            inter_node_bytes += inter.inter_node_bytes;
        }
        let top_done = if top_inputs.is_empty() {
            round_start
        } else {
            // Guarded by the `top_inputs.is_empty()` branch above.
            let first_input = *top_inputs.iter().min().expect("non-empty");
            let (instance_ready, was_created, was_reused) = if self.profile.reuse_runtimes
                && node_outputs.iter().any(|(n, _, _)| *n == top_node)
            {
                // The first middle/leaf to finish on the top node is promoted (§5.3).
                let own_done = node_outputs
                    .iter()
                    .find(|(n, _, _)| *n == top_node)
                    .map(|(_, d, _)| *d)
                    // The `any()` in this branch's condition guarantees a
                    // matching node output.
                    .expect("own node output");
                (own_done, false, true)
            } else {
                let (ready_at, was_created) = self.instance_ready(
                    top_node,
                    first_input,
                    round_start,
                    &startup,
                    &mut cpu,
                    clock,
                );
                (ready_at, was_created, false)
            };
            if was_created {
                created += 1;
                aggregators_live += 1;
            }
            if was_reused {
                reused += 1;
            }
            let done = eager::completion_time(
                self.profile.timing,
                instance_ready,
                &top_inputs,
                agg_compute,
            );
            cpu += eager::busy_time(&top_inputs, agg_compute);
            gantt.add("Top", "Agg.", first_input.max(instance_ready), done);
            done
        };

        // --- 5. Evaluation and always-on / stateful-tax accounting. ---
        let eval = self.cost.evaluation_compute(spec.model);
        let eval_finished = top_done + eval;
        cpu += eval;
        gantt.add("Top", "Eval.", top_done, eval_finished);

        let round_wall = eval_finished.duration_since(round_start);
        let nodes_used = placement.nodes_used.max(1) as u64;
        if self.profile.always_on {
            // The whole serverful deployment is billed for the full round.
            let deployment_aggs = self.profile.cluster.aggregation_nodes
                * self.profile.cluster.node.max_service_capacity
                / self.profile.leaf_fan_in.max(1)
                / 2;
            let always_on_cores = deployment_aggs.max(16) as f64;
            cpu += round_wall.scaled(always_on_cores * 0.25);
            self.active_aggregators = deployment_aggs.max(16);
        } else {
            // Per-node stateful tax (gateway or broker) plus per-aggregator sidecars.
            let node_tax = self.cost.idle_cores_per_node(self.profile.system);
            cpu += round_wall.scaled(node_tax * nodes_used as f64);
            let agg_tax = self.cost.idle_cores_per_aggregator(self.profile.system);
            cpu += round_wall.scaled(agg_tax * aggregators_live as f64);
            self.active_aggregators = aggregators_live;
        }

        // Warm instances persist for the next round (keep-alive / planner warm pool).
        for node in &node_ids {
            let live = plan.on_node(*node).map(|h| h.aggregators()).unwrap_or(0);
            let entry = self.warm.entry(*node).or_insert(0);
            *entry = (*entry).max(live);
        }
        let top_entry = self.warm.entry(top_node).or_insert(0);
        *top_entry = (*top_entry).max(1);

        metrics.aggregators_created = created;
        metrics.aggregators_reused = reused;
        metrics.nodes_used = nodes_used;
        metrics.cpu_time = cpu;
        metrics.inter_node_bytes = inter_node_bytes;
        metrics.complete(top_done);
        self.rounds_run = round_index;

        RoundReport {
            metrics,
            eval_finished,
            gantt,
            plan,
        }
    }

    /// When a (new or warm) instance on `node` is ready to process work whose
    /// first input arrives at `first_arrival`. Returns `(ready_at, newly_created)`.
    fn instance_ready(
        &mut self,
        node: NodeId,
        first_arrival: SimTime,
        round_start: SimTime,
        startup: &lifl_dataplane::cost::StartupCost,
        cpu: &mut SimDuration,
        _clock: f64,
    ) -> (SimTime, bool) {
        if self.take_warm(node) {
            (first_arrival + startup.warm_start, false)
        } else if self.profile.hierarchy_planning {
            // Planned ahead: the runtime is created at round start, so its
            // start-up overlaps the update transfers (§5.2, §5.4).
            *cpu += startup.cold_start_cpu;
            let ready = round_start + startup.cold_start;
            (ready.max(first_arrival), true)
        } else {
            // Reactive scaling: the cold start begins when the work arrives.
            *cpu += startup.cold_start_cpu;
            (first_arrival + startup.cold_start, true)
        }
    }
}

/// Modelled speedup of folding across `shards` partitions: near-linear with
/// an Amdahl-style 85% parallel efficiency per extra shard (a fold is
/// memory-bandwidth-bound, so perfect scaling is not assumed). A modelled
/// figure only — the engine folds a station's batch on one thread — and
/// exactly 1.0 for one shard, keeping the seed timings bit-exact.
fn sharded_fold_speedup(shards: u32) -> f64 {
    1.0 + 0.85 * (f64::from(shards) - 1.0)
}

impl AggregationSystem for LiflPlatform {
    fn system(&self) -> SystemKind {
        self.profile.system
    }

    fn run_round(&mut self, spec: &RoundSpec) -> RoundReport {
        LiflPlatform::run_round(self, spec)
    }

    fn active_aggregators(&self) -> u32 {
        self.active_aggregators
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals_spread(n: usize, gap: f64) -> Vec<SimTime> {
        (0..n).map(|i| SimTime::from_secs(i as f64 * gap)).collect()
    }

    fn lifl() -> LiflPlatform {
        LiflPlatform::new(ClusterConfig::default(), LiflConfig::default())
    }

    fn slh() -> LiflPlatform {
        LiflPlatform::with_profile(PlatformProfile::sl_hierarchical(ClusterConfig::default()))
    }

    #[test]
    fn round_aggregates_all_updates() {
        let mut platform = lifl();
        let spec = RoundSpec::new(ModelKind::ResNet152, arrivals_spread(20, 1.0));
        let report = platform.run_round(&spec);
        assert_eq!(report.metrics.updates_aggregated, 20);
        assert!(report.metrics.aggregation_completion_time.as_secs() > 0.0);
        assert!(report.eval_finished > report.metrics.completed_at);
        assert!(report.metrics.cpu_time.as_secs() > 0.0);
        assert_eq!(platform.rounds_run(), 1);
    }

    #[test]
    fn lifl_uses_fewer_nodes_than_slh() {
        // Fig. 8(d): 20 updates → LIFL packs onto 1 node, SL-H spreads over 5.
        let spec = RoundSpec::simultaneous(ModelKind::ResNet152, 20, SimTime::ZERO);
        let lifl_report = lifl().run_round(&spec);
        let slh_report = slh().run_round(&spec);
        assert_eq!(lifl_report.metrics.nodes_used, 1);
        assert_eq!(slh_report.metrics.nodes_used, 5);
        assert!(lifl_report.metrics.inter_node_bytes < slh_report.metrics.inter_node_bytes);
    }

    #[test]
    fn lifl_act_beats_slh() {
        // Fig. 8(a): the full LIFL orchestration completes aggregation faster than SL-H.
        for n in [20usize, 60] {
            let spec = RoundSpec::simultaneous(ModelKind::ResNet152, n, SimTime::ZERO);
            let act_lifl = lifl().run_round(&spec).metrics.aggregation_completion_time;
            let act_slh = slh().run_round(&spec).metrics.aggregation_completion_time;
            assert!(
                act_lifl < act_slh,
                "n={n}: LIFL {:.1}s vs SL-H {:.1}s",
                act_lifl.as_secs(),
                act_slh.as_secs()
            );
        }
    }

    #[test]
    fn lifl_cpu_beats_serverless() {
        let spec = RoundSpec::new(ModelKind::ResNet18, arrivals_spread(60, 0.5));
        let mut sl =
            LiflPlatform::with_profile(PlatformProfile::serverless(ClusterConfig::default()));
        let lifl_cpu = lifl().run_round(&spec).metrics.cpu_time;
        let sl_cpu = sl.run_round(&spec).metrics.cpu_time;
        assert!(
            lifl_cpu.as_secs() * 1.5 < sl_cpu.as_secs(),
            "LIFL {:.1}s vs SL {:.1}s",
            lifl_cpu.as_secs(),
            sl_cpu.as_secs()
        );
    }

    /// The cascading cold start of §2.3: a serverless round starts each
    /// aggregator when its first input arrives, so a three-level round
    /// (leaves, the node's middle, the top) is ready level by level, one
    /// cold start after another. LIFL starts its runtimes at round start and
    /// promotes them up the tree, so the same round's top is ready sooner.
    #[test]
    fn reactive_cold_starts_cascade_level_by_level() {
        let cluster = ClusterConfig {
            aggregation_nodes: 1,
            ..ClusterConfig::default()
        };
        let spec = RoundSpec::simultaneous(ModelKind::ResNet18, 8, SimTime::ZERO);
        // When the first aggregator of the rows matching `level` starts.
        let start = |report: &RoundReport, level: &dyn Fn(&str) -> bool| {
            (report.gantt.segments.iter())
                .filter(|s| s.task == "Agg." && level(&s.row))
                .map(|s| s.start)
                .fold(f64::INFINITY, f64::min)
        };
        let leaf = |row: &str| row.contains("-LF");
        let middle = |row: &str| row.contains("-MID");
        let top = |row: &str| row == "Top";

        let cold = CostModel::paper_calibrated()
            .startup(SystemKind::Serverless)
            .cold_start
            .as_secs();
        let serverless = LiflPlatform::with_profile(PlatformProfile::serverless(cluster.clone()))
            .run_round(&spec);
        // Four leaves and a middle on the node, then the top: three levels.
        let three_levels = |report: &RoundReport| {
            let node = report.plan.on_node(NodeId::new(0)).expect("one node");
            node.leaves() == 4 && node.middle()
        };
        assert!(three_levels(&serverless), "{:?}", serverless.plan);
        assert_eq!(serverless.metrics.aggregators_created, 4 + 1 + 1);
        let (sl_leaf, sl_middle, sl_top) = (
            start(&serverless, &leaf),
            start(&serverless, &middle),
            start(&serverless, &top),
        );
        assert!(sl_leaf >= cold, "leaves ready at {sl_leaf}");
        assert!(sl_middle - sl_leaf >= cold, "{sl_leaf} -> {sl_middle}");
        assert!(sl_top - sl_middle >= cold, "{sl_middle} -> {sl_top}");

        let lifl = LiflPlatform::new(cluster, LiflConfig::default()).run_round(&spec);
        assert!(three_levels(&lifl), "{:?}", lifl.plan);
        let lifl_top = start(&lifl, &top);
        assert!(lifl_top < sl_top, "LIFL {lifl_top} vs serverless {sl_top}");
        assert!(
            lifl.metrics.aggregation_completion_time
                < serverless.metrics.aggregation_completion_time
        );
    }

    #[test]
    fn warm_instances_survive_rounds_for_lifl_only() {
        let spec = RoundSpec::simultaneous(ModelKind::ResNet152, 20, SimTime::ZERO);
        let mut platform = lifl();
        let first = platform.run_round(&spec);
        let second = platform.run_round(&spec);
        assert!(first.metrics.aggregators_created > 0);
        assert_eq!(
            second.metrics.aggregators_created, 0,
            "second round reuses warm runtimes"
        );

        let mut slh = slh();
        let first = slh.run_round(&spec);
        let second = slh.run_round(&spec);
        assert!(first.metrics.aggregators_created > 0);
        assert!(
            second.metrics.aggregators_created > 0,
            "SL-H cold starts every round"
        );
    }

    #[test]
    fn eager_reduces_act_for_spread_arrivals() {
        let cluster = ClusterConfig::default();
        let eager_cfg = LiflConfig {
            timing: AggregationTiming::Eager,
            ..LiflConfig::default()
        };
        let lazy_cfg = LiflConfig {
            timing: AggregationTiming::Lazy,
            ..LiflConfig::default()
        };
        let spec = RoundSpec::new(ModelKind::ResNet152, arrivals_spread(20, 2.0));
        let act_eager = LiflPlatform::new(cluster.clone(), eager_cfg)
            .run_round(&spec)
            .metrics
            .aggregation_completion_time;
        let act_lazy = LiflPlatform::new(cluster, lazy_cfg)
            .run_round(&spec)
            .metrics
            .aggregation_completion_time;
        assert!(act_eager < act_lazy, "eager {act_eager} < lazy {act_lazy}");
    }

    #[test]
    fn serverful_creates_no_instances_but_burns_idle_cpu() {
        let spec = RoundSpec::simultaneous(ModelKind::ResNet18, 8, SimTime::ZERO);
        let mut sf =
            LiflPlatform::with_profile(PlatformProfile::serverful(ClusterConfig::default()));
        let report = sf.run_round(&spec);
        assert_eq!(report.metrics.aggregators_created, 0);
        assert!(sf.active_aggregators() >= 16);
        // Always-on cost should dominate a small round.
        let mut lifl = lifl();
        let lifl_report = lifl.run_round(&spec);
        assert!(report.metrics.cpu_time > lifl_report.metrics.cpu_time);
    }

    #[test]
    fn gantt_has_leaf_and_top_rows() {
        let spec = RoundSpec::simultaneous(ModelKind::ResNet152, 8, SimTime::ZERO);
        let report = lifl().run_round(&spec);
        let rows = report.gantt.rows();
        assert!(rows.iter().any(|r| r.contains("LF")));
        assert!(rows.iter().any(|r| r == "Top"));
        assert!(report.gantt.makespan() > 0.0);
    }

    #[test]
    fn quantized_codec_shrinks_wire_bytes_and_act() {
        let spec = RoundSpec::simultaneous(ModelKind::ResNet152, 60, SimTime::ZERO);
        let mut reports = Vec::new();
        for codec in [
            CodecKind::Identity,
            CodecKind::Uniform8,
            CodecKind::Uniform4,
        ] {
            let config = LiflConfig {
                codec,
                ..LiflConfig::default()
            };
            let mut platform = LiflPlatform::new(ClusterConfig::default(), config);
            reports.push(platform.run_round(&spec));
        }
        for pair in reports.windows(2) {
            assert!(
                pair[0].metrics.inter_node_bytes > pair[1].metrics.inter_node_bytes,
                "stronger codec must cross fewer bytes"
            );
            assert!(
                pair[0].metrics.aggregation_completion_time
                    >= pair[1].metrics.aggregation_completion_time,
                "stronger codec must not slow the round"
            );
        }
        let ratio =
            reports[0].metrics.inter_node_bytes as f64 / reports[1].metrics.inter_node_bytes as f64;
        assert!(ratio >= 3.99, "uniform8 wire reduction only {ratio:.2}x");
    }

    #[test]
    fn sharded_fold_shortens_the_round() {
        let spec = RoundSpec::simultaneous(ModelKind::ResNet152, 20, SimTime::ZERO);
        let act = |shards: u32| {
            let config = LiflConfig {
                aggregation_shards: shards,
                ..LiflConfig::default()
            };
            LiflPlatform::new(ClusterConfig::default(), config)
                .run_round(&spec)
                .metrics
                .aggregation_completion_time
        };
        let sequential = act(1);
        let sharded4 = act(4);
        let sharded16 = act(16);
        assert!(sharded4 < sequential, "{sharded4} !< {sequential}");
        assert!(sharded16 < sharded4, "{sharded16} !< {sharded4}");
    }

    #[test]
    fn capped_interior_fan_in_runs_deep_cross_machine_rounds() {
        // 60 simultaneous updates spread by SL-H-style placement would be
        // wide; with BestFit they pack to 3 nodes of 20 updates = 10 leaves
        // each. Capping interior fan-in at 4 stacks middle levels: each
        // node's subtree is 3 levels, plus the cross-machine top = 4 levels
        // end to end.
        let spec = RoundSpec::simultaneous(ModelKind::ResNet152, 60, SimTime::ZERO);
        let config = LiflConfig {
            max_interior_fan_in: 4,
            ..LiflConfig::default()
        };
        let mut platform = LiflPlatform::new(ClusterConfig::default(), config);
        let report = platform.run_round(&spec);
        assert_eq!(report.metrics.updates_aggregated, 60);
        let deep = report
            .plan
            .nodes
            .iter()
            .find(|n| n.subtree.levels() > 2)
            .expect("a capped heavy node plans a deep subtree");
        assert!(deep.subtree.fan_ins()[1..].iter().all(|f| *f <= 4));
        // The deep rounds pay for their extra levels but still complete,
        // and the gantt shows stacked middle rows.
        assert!(report.metrics.aggregation_completion_time.as_secs() > 0.0);
        assert!(
            report.gantt.rows().iter().any(|r| r.contains("-MID2.")),
            "{:?}",
            report.gantt.rows()
        );

        // Uncapped profiles are untouched: bit-identical to the seed plan.
        let uncapped =
            LiflPlatform::new(ClusterConfig::default(), LiflConfig::default()).run_round(&spec);
        let baseline = lifl().run_round(&spec);
        assert_eq!(uncapped.metrics, baseline.metrics);
    }

    #[test]
    fn identity_codec_is_cost_identical_to_seed_profile() {
        // The codec field must not perturb the calibrated baseline numbers.
        let spec = RoundSpec::new(ModelKind::ResNet34, arrivals_spread(20, 1.0));
        let with_default = lifl().run_round(&spec);
        let explicit_identity = LiflPlatform::new(
            ClusterConfig::default(),
            LiflConfig {
                codec: CodecKind::Identity,
                ..LiflConfig::default()
            },
        )
        .run_round(&spec);
        assert_eq!(with_default.metrics, explicit_identity.metrics);
    }

    #[test]
    fn empty_round_is_harmless() {
        let mut platform = lifl();
        let report = platform.run_round(&RoundSpec::new(ModelKind::ResNet18, vec![]));
        assert_eq!(report.metrics.updates_aggregated, 0);
        assert_eq!(report.metrics.aggregators_created, 0);
    }
}
