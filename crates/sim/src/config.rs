//! The simulator's cluster and platform configuration, and the record of one
//! simulated round.
//!
//! The engine (`lifl-core`) reads none of this: it takes its codec, fold
//! policy and fan-ins as builder arguments. The defaults reproduce the
//! paper's testbed (§6.1): 64-core nodes, 192 GB memory, 10 GbE NICs, a
//! maximum service capacity of 20 model updates per node, EWMA α = 0.7,
//! leaf fan-in I = 2 and a 2-minute hierarchy re-plan period.

use lifl_types::{CodecKind, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// When aggregation is triggered relative to update arrival (Fig. 1, §2.1, §5.4).
///
/// This is the paper simulator's eager/lazy ablation axis and nothing else:
/// it selects how [`crate::eager`] times a simulated round
/// (`LiflConfig::timing`). The engine has no timing mode — a session or
/// cluster folds a round when it is driven, and asynchronous training
/// commits a version each time the backend's round fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum AggregationTiming {
    /// Aggregate each update as soon as it arrives (LIFL's default, §5.4).
    #[default]
    Eager,
    /// Queue updates and aggregate them in a batch once the goal is reached.
    Lazy,
}

/// Bin-packing / load-balancing policy used to map model updates to nodes (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PlacementPolicy {
    /// Locality-aware BestFit bin-packing (LIFL's choice).
    #[default]
    BestFit,
    /// FirstFit: low search cost, not locality aware.
    FirstFit,
    /// WorstFit: spreads load, equivalent to Knative's "least connection" policy.
    WorstFit,
}

/// Static description of one worker node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Number of physical CPU cores.
    pub cores: u32,
    /// CPU clock in GHz (used to convert cycles to seconds).
    pub clock_ghz: f64,
    /// Physical memory in bytes.
    pub memory_bytes: u64,
    /// NIC line rate in gigabits per second.
    pub nic_gbps: f64,
    /// Maximum service capacity MC_i: the maximum number of model updates the
    /// node can aggregate simultaneously (computed offline, Appendix E).
    pub max_service_capacity: u32,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            cores: 64,
            clock_ghz: 2.8,
            memory_bytes: 192 * 1024 * 1024 * 1024,
            nic_gbps: 10.0,
            max_service_capacity: 20,
        }
    }
}

/// Static description of the aggregation cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker nodes available to run aggregators.
    pub aggregation_nodes: u32,
    /// Per-node configuration (homogeneous cluster, as in the paper's testbed).
    pub node: NodeConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            aggregation_nodes: 5,
            node: NodeConfig::default(),
        }
    }
}

/// LIFL control-plane configuration (§5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiflConfig {
    /// EWMA smoothing coefficient α for the pending-queue estimate (§5.2).
    pub ewma_alpha: f64,
    /// Number of client model updates assigned to one leaf aggregator (I, §5.2).
    pub leaf_fan_in: u32,
    /// Period between hierarchy re-planning passes (§6.1: 2 minutes).
    pub replan_period: SimDuration,
    /// Placement / load-balancing policy (§5.1).
    pub placement: PlacementPolicy,
    /// Aggregation timing (§5.4).
    pub timing: AggregationTiming,
    /// Whether warm aggregator runtimes are opportunistically reused across levels (§5.3).
    pub reuse_runtimes: bool,
    /// Whether the per-node hierarchy is planned from the estimated queue length (§5.2).
    pub hierarchy_planning: bool,
    /// The model-update codec every update travels the data plane with.
    pub codec: CodecKind,
    /// Parameter-vector shards the paper simulator (`lifl-sim`) models an
    /// aggregator's fold as split across. Only the simulator reads it: the
    /// engine folds every station's batch on the thread that claimed the
    /// station, and a level's stations are its parallelism.
    pub aggregation_shards: u32,
    /// Cap on every *interior* aggregator's fan-in when planning a node's
    /// subtree (§5.2 plans two levels; with a cap, heavily loaded nodes grow
    /// middle levels instead of one wide middle — see
    /// [`Topology::for_load_capped`](lifl_types::Topology::for_load_capped)).
    /// `0` (the default) leaves interior fan-ins uncapped, reproducing the
    /// paper's two-level plans bit-exactly.
    pub max_interior_fan_in: u32,
}

impl Default for LiflConfig {
    fn default() -> Self {
        LiflConfig {
            ewma_alpha: 0.7,
            leaf_fan_in: 2,
            replan_period: SimDuration::from_secs(120.0),
            placement: PlacementPolicy::BestFit,
            timing: AggregationTiming::Eager,
            reuse_runtimes: true,
            hierarchy_planning: true,
            codec: CodecKind::Identity,
            aggregation_shards: 1,
            max_interior_fan_in: 0,
        }
    }
}

impl LiflConfig {
    /// The ablation steps of Fig. 8: the baseline SL-H plus the cumulative
    /// addition of ① locality-aware placement, ② hierarchy planning,
    /// ③ aggregator reuse and ④ eager aggregation.
    pub fn ablation_steps() -> Vec<(String, LiflConfig)> {
        let mut config = LiflConfig {
            placement: PlacementPolicy::WorstFit,
            hierarchy_planning: false,
            reuse_runtimes: false,
            timing: AggregationTiming::Lazy,
            ..LiflConfig::default()
        };
        let mut steps = vec![("SL-H".to_string(), config.clone())];
        config.placement = PlacementPolicy::BestFit;
        steps.push(("+1".to_string(), config.clone()));
        config.hierarchy_planning = true;
        steps.push(("+1+2".to_string(), config.clone()));
        config.reuse_runtimes = true;
        steps.push(("+1+2+3".to_string(), config.clone()));
        config.timing = AggregationTiming::Eager;
        steps.push(("+1+2+3+4".to_string(), config));
        steps
    }
}

/// Metrics describing one completed aggregation round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundMetrics {
    /// Round index.
    pub round: u64,
    /// Wall-clock time at which the round started (first update arrival).
    pub started_at: SimTime,
    /// Wall-clock time at which the global model was updated.
    pub completed_at: SimTime,
    /// Aggregation completion time: from first arrival to global-model update.
    pub aggregation_completion_time: SimDuration,
    /// Number of model updates aggregated (the aggregation goal n).
    pub updates_aggregated: u64,
    /// Number of aggregator instances created during the round (cold starts).
    pub aggregators_created: u64,
    /// Number of warm aggregator instances reused across levels.
    pub aggregators_reused: u64,
    /// Number of distinct worker nodes used.
    pub nodes_used: u64,
    /// Busy CPU time consumed by the aggregation service during the round.
    pub cpu_time: SimDuration,
    /// Bytes transferred across nodes during the round.
    pub inter_node_bytes: u64,
    /// Test accuracy of the global model after this round (if evaluated).
    pub accuracy: Option<f64>,
}

impl RoundMetrics {
    /// Creates an empty record for a round starting at `started_at`.
    pub fn new(round: u64, started_at: SimTime) -> Self {
        RoundMetrics {
            round,
            started_at,
            completed_at: started_at,
            aggregation_completion_time: SimDuration::ZERO,
            updates_aggregated: 0,
            aggregators_created: 0,
            aggregators_reused: 0,
            nodes_used: 0,
            cpu_time: SimDuration::ZERO,
            inter_node_bytes: 0,
            accuracy: None,
        }
    }

    /// Marks the round complete at `at`, recording the ACT.
    pub fn complete(&mut self, at: SimTime) {
        self.completed_at = at;
        self.aggregation_completion_time = at.duration_since(self.started_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_types::Topology;

    #[test]
    fn defaults_match_paper() {
        let cfg = LiflConfig::default();
        assert_eq!(cfg.ewma_alpha, 0.7);
        assert_eq!(cfg.leaf_fan_in, 2);
        assert_eq!(cfg.replan_period.as_secs(), 120.0);
        assert_eq!(cfg.placement, PlacementPolicy::BestFit);
        assert_eq!(cfg.timing, AggregationTiming::Eager);
        assert_eq!(cfg.codec, CodecKind::Identity);
        assert_eq!(cfg.aggregation_shards, 1);
        let node = NodeConfig::default();
        assert_eq!(node.cores, 64);
        assert_eq!(node.max_service_capacity, 20);
        let cluster = ClusterConfig::default();
        assert_eq!(
            (cluster.aggregation_nodes, cluster.node.max_service_capacity),
            (5, 20)
        );
    }

    #[test]
    fn ablation_steps_are_cumulative() {
        let steps = LiflConfig::ablation_steps();
        assert_eq!(steps.len(), 5);
        assert_eq!(steps[0].1.placement, PlacementPolicy::WorstFit);
        assert_eq!(steps[1].1.placement, PlacementPolicy::BestFit);
        assert!(!steps[1].1.hierarchy_planning);
        assert!(steps[2].1.hierarchy_planning);
        assert!(!steps[2].1.reuse_runtimes);
        assert!(steps[3].1.reuse_runtimes);
        assert_eq!(steps[3].1.timing, AggregationTiming::Lazy);
        assert_eq!(steps[4].1.timing, AggregationTiming::Eager);
    }

    #[test]
    fn node_topology_respects_interior_cap() {
        // The per-node tree the planner sizes from a configuration (§5.2).
        let plan = |cfg: &LiflConfig, pending: usize| {
            Topology::for_load_capped(
                pending,
                cfg.leaf_fan_in as usize,
                cfg.max_interior_fan_in as usize,
            )
        };
        let flat = LiflConfig::default();
        assert_eq!(plan(&flat, 20).levels(), 2);
        let capped = LiflConfig {
            max_interior_fan_in: 4,
            ..LiflConfig::default()
        };
        let deep = plan(&capped, 40);
        assert!(deep.levels() > 2, "capped heavy load grows middle levels");
        assert!(deep.fan_ins()[1..].iter().all(|f| *f <= 4));
        // Light loads are unaffected by the cap.
        assert_eq!(plan(&capped, 4), plan(&flat, 4));
    }

    #[test]
    fn config_serde_roundtrip() {
        use serde::{Deserialize, Serialize};
        let cfg = LiflConfig::default();
        let back = LiflConfig::from_value(&cfg.to_value()).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn round_metrics_act() {
        let mut m = RoundMetrics::new(3, SimTime::from_secs(10.0));
        m.complete(SimTime::from_secs(15.5));
        assert!((m.aggregation_completion_time.as_secs() - 5.5).abs() < 1e-12);
        assert_eq!(m.round, 3);
    }
}
