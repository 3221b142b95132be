//! Cluster and platform configuration.
//!
//! The defaults reproduce the paper's testbed (§6.1): 64-core nodes, 192 GB
//! memory, 10 GbE NICs, a maximum service capacity of 20 model updates per
//! node, EWMA α = 0.7, leaf fan-in I = 2 and a 2-minute hierarchy re-plan
//! period.

use crate::codec::CodecKind;
use crate::fold::FoldPolicy;
use crate::time::SimDuration;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// When aggregation is triggered relative to update arrival (Fig. 1, §2.1, §5.4).
///
/// This is the paper simulator's eager/lazy ablation axis and nothing else:
/// it selects how `lifl_sim::eager` times a simulated round
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

impl ClusterConfig {
    /// Total service capacity of the cluster (sum of MC_i).
    pub fn total_capacity(&self) -> u64 {
        self.aggregation_nodes as u64 * self.node.max_service_capacity as u64
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
    /// How every aggregator folds the updates of one round ([`FoldPolicy`]):
    /// sample-weighted FedAvg (the default, bit-exact with the pre-policy
    /// path) or a robust coordinate-wise statistic.
    pub fold_policy: FoldPolicy,
    /// Number of threads an aggregator's batch fold splits across. Every
    /// aggregator folds its pending updates as one cache-blocked batch
    /// whatever the value; a batch of at least 4 MiB of payload is cut into
    /// that many contiguous partitions folded in parallel (capped at the
    /// host's parallelism). `1` folds on the calling thread; every value
    /// gives the same bits.
    pub aggregation_shards: u32,
    /// Cap on every *interior* aggregator's fan-in when planning a node's
    /// subtree (§5.2 plans two levels; with a cap, heavily loaded nodes grow
    /// middle levels instead of one wide middle — see
    /// [`Topology::for_load_capped`]). `0` (the default) leaves interior
    /// fan-ins uncapped, reproducing the paper's two-level plans bit-exactly.
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
            fold_policy: FoldPolicy::FedAvg,
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

    /// The per-node aggregation tree this configuration plans for a load of
    /// `pending_updates` client updates (§5.2): the hierarchy planner and the
    /// simulated platform both size node subtrees through this one helper.
    /// With [`LiflConfig::max_interior_fan_in`] set, heavily loaded nodes
    /// grow deeper-than-two-level subtrees instead of one wide middle.
    pub fn node_topology(&self, pending_updates: usize) -> Topology {
        Topology::for_load_capped(
            pending_updates,
            self.leaf_fan_in as usize,
            self.max_interior_fan_in as usize,
        )
    }

    /// Validates configuration invariants.
    ///
    /// # Errors
    /// Returns an error string if α is outside `[0, 1]` or the leaf fan-in is zero.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.ewma_alpha) {
            return Err(format!(
                "ewma_alpha must be in [0,1], got {}",
                self.ewma_alpha
            ));
        }
        if self.leaf_fan_in == 0 {
            return Err("leaf_fan_in must be at least 1".to_string());
        }
        if self.replan_period.as_secs() <= 0.0 {
            return Err("replan_period must be positive".to_string());
        }
        if let CodecKind::TopK { permille } = self.codec {
            if permille == 0 || permille > 1000 {
                return Err(format!("TopK permille must be in 1..=1000, got {permille}"));
            }
        }
        self.fold_policy.validate()?;
        if self.aggregation_shards == 0 {
            return Err("aggregation_shards must be at least 1".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = LiflConfig::default();
        assert_eq!(cfg.ewma_alpha, 0.7);
        assert_eq!(cfg.leaf_fan_in, 2);
        assert_eq!(cfg.replan_period.as_secs(), 120.0);
        assert_eq!(cfg.placement, PlacementPolicy::BestFit);
        assert_eq!(cfg.timing, AggregationTiming::Eager);
        assert_eq!(cfg.codec, CodecKind::Identity);
        assert_eq!(cfg.fold_policy, FoldPolicy::FedAvg);
        assert_eq!(cfg.aggregation_shards, 1);
        let node = NodeConfig::default();
        assert_eq!(node.cores, 64);
        assert_eq!(node.max_service_capacity, 20);
        assert_eq!(ClusterConfig::default().total_capacity(), 100);
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
    fn validation_catches_bad_alpha() {
        let mut cfg = LiflConfig {
            ewma_alpha: 1.5,
            ..LiflConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.ewma_alpha = 0.5;
        cfg.leaf_fan_in = 0;
        assert!(cfg.validate().is_err());
        cfg.leaf_fan_in = 2;
        assert!(cfg.validate().is_ok());
        cfg.codec = CodecKind::TopK { permille: 0 };
        assert!(cfg.validate().is_err());
        cfg.codec = CodecKind::TopK { permille: 50 };
        assert!(cfg.validate().is_ok());
        cfg.fold_policy = FoldPolicy::TrimmedMean { trim_permille: 500 };
        assert!(cfg.validate().is_err());
        cfg.fold_policy = FoldPolicy::TrimmedMean { trim_permille: 100 };
        assert!(cfg.validate().is_ok());
        cfg.aggregation_shards = 0;
        assert!(cfg.validate().is_err());
        cfg.aggregation_shards = 8;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn node_topology_respects_interior_cap() {
        let flat = LiflConfig::default();
        assert_eq!(flat.node_topology(20).levels(), 2);
        let capped = LiflConfig {
            max_interior_fan_in: 4,
            ..LiflConfig::default()
        };
        let deep = capped.node_topology(40);
        assert!(deep.levels() > 2, "capped heavy load grows middle levels");
        assert!(deep.fan_ins()[1..].iter().all(|f| *f <= 4));
        // Light loads are unaffected by the cap.
        assert_eq!(capped.node_topology(4), flat.node_topology(4));
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = LiflConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: LiflConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
