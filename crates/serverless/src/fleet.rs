//! KPA-driven aggregator-fleet control: queue depth in, leaf counts out.
//!
//! The streaming ingress (`lifl-core`'s admission queues) exposes one load
//! signal per node — the depth of its bounded backlog. This module adapts
//! the stable/panic-window [`KpaAutoscaler`] into
//! a fleet controller over that signal: each node's queue depth is treated
//! as the node's "concurrency", and the KPA control loop's desired replica
//! count becomes the desired number of leaf aggregators in that node's
//! subtree. The cluster applies decisions at round boundaries only (an
//! aggregation tree cannot be re-split mid-fold), so the controller runs on
//! a synthetic clock that advances one fixed period per round — the whole
//! loop is a pure function of the arrival trace, making spawn/retire
//! sequences reproducible run-to-run.

use crate::kpa::{KpaAutoscaler, KpaConfig};
use lifl_types::{LiflError, Result, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Configuration of the aggregator-fleet controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// The KPA control loop driving each node's leaf count.
    pub kpa: KpaConfig,
    /// Lower bound on leaves per node (a node's subtree never retires below
    /// this).
    pub min_leaves: u32,
    /// Upper bound on leaves per node (spawns saturate here).
    pub max_leaves: u32,
    /// How much synthetic time one round advances the control loop's clock.
    pub round_period: SimDuration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            // Rounds are the control interval, so the windows must span a
            // useful number of them: with a 1 s round period the defaults
            // average depth over 8 rounds (stable) and 2 rounds (panic).
            kpa: KpaConfig {
                target_concurrency: 4.0,
                stable_window: SimDuration::from_secs(8.0),
                panic_window: SimDuration::from_secs(2.0),
                panic_threshold: 2.0,
                panic_hold: SimDuration::from_secs(4.0),
                scale_to_zero_grace: SimDuration::from_secs(8.0),
                max_replicas: 1024,
            },
            min_leaves: 1,
            max_leaves: 64,
            round_period: SimDuration::from_secs(1.0),
        }
    }
}

impl FleetConfig {
    /// Creates a config targeting `target_depth` queued updates per leaf.
    pub fn with_target_depth(mut self, target_depth: f64) -> Self {
        self.kpa.target_concurrency = target_depth;
        self
    }

    /// Bounds the per-node leaf count to `[min, max]`.
    pub fn with_leaf_bounds(mut self, min: u32, max: u32) -> Self {
        self.min_leaves = min;
        self.max_leaves = max;
        self
    }

    /// Validates the bounds and clock period.
    ///
    /// # Errors
    /// Fails when the leaf bounds are empty or inverted, or the round period
    /// is not positive.
    pub fn validate(&self) -> Result<()> {
        if self.min_leaves == 0 {
            return Err(LiflError::InvalidConfig(
                "fleet min_leaves must be at least 1".to_string(),
            ));
        }
        if self.max_leaves < self.min_leaves {
            return Err(LiflError::InvalidConfig(format!(
                "fleet leaf bounds inverted: min {} > max {}",
                self.min_leaves, self.max_leaves
            )));
        }
        if self.round_period <= SimDuration::ZERO {
            return Err(LiflError::InvalidConfig(
                "fleet round_period must be positive".to_string(),
            ));
        }
        Ok(())
    }
}

/// What the controller decided for one node at one round boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetDecision {
    /// The node the decision applies to.
    pub node: usize,
    /// The round boundary (0-based) the decision was taken at.
    pub round: u64,
    /// The synthetic control-loop time of the evaluation.
    pub at: SimTime,
    /// The queue depth observed for this node this round.
    pub queue_depth: f64,
    /// Leaves the node's subtree had going into the boundary.
    pub current_leaves: u32,
    /// Leaves the controller wants the subtree to have.
    pub desired_leaves: u32,
    /// Whether the node's control loop is in panic mode.
    pub panicking: bool,
}

impl FleetDecision {
    /// Leaves to add (zero when holding or retiring).
    pub fn spawned(&self) -> u32 {
        self.desired_leaves.saturating_sub(self.current_leaves)
    }

    /// Whether the decision changes the subtree at all.
    pub fn is_resize(&self) -> bool {
        self.desired_leaves != self.current_leaves
    }
}

/// A deterministic, per-node KPA fleet controller for leaf aggregators.
///
/// One [`KpaAutoscaler`] per node, all driven off a synthetic clock that
/// advances [`FleetConfig::round_period`] per observed round — no wall
/// clock anywhere, so the same depth trace always yields the same
/// spawn/retire sequence.
#[derive(Debug, Clone)]
pub struct FleetController {
    config: FleetConfig,
    scalers: Vec<KpaAutoscaler>,
    round: u64,
}

impl FleetController {
    /// Creates a controller for `nodes` independent subtrees.
    ///
    /// # Errors
    /// Fails when the configuration is invalid or `nodes` is zero.
    pub fn new(config: FleetConfig, nodes: usize) -> Result<FleetController> {
        config.validate()?;
        if nodes == 0 {
            return Err(LiflError::InvalidConfig(
                "fleet controller needs at least one node".to_string(),
            ));
        }
        Ok(FleetController {
            config,
            scalers: (0..nodes).map(|_| KpaAutoscaler::new(config.kpa)).collect(),
            round: 0,
        })
    }

    /// The synthetic control-loop time of round boundary `round`.
    fn clock(&self, round: u64) -> SimTime {
        SimTime::from_secs(self.config.round_period.as_secs() * round as f64)
    }

    /// Feeds one round boundary: each node's observed queue depth goes into
    /// its control loop, and the loop's desired replica count — clamped to
    /// the configured leaf bounds — comes back as that node's desired leaf
    /// count. `depths` and `current_leaves` are indexed by node; missing
    /// entries read as zero depth / `min_leaves`.
    pub fn observe_round(&mut self, depths: &[f64], current_leaves: &[u32]) -> Vec<FleetDecision> {
        let round = self.round;
        self.round += 1;
        let now = self.clock(round);
        let min = self.config.min_leaves;
        let max = self.config.max_leaves;
        self.scalers
            .iter_mut()
            .enumerate()
            .map(|(node, scaler)| {
                let depth = depths.get(node).copied().unwrap_or(0.0);
                let current = current_leaves.get(node).copied().unwrap_or(min);
                scaler.observe(now, depth);
                let decision = scaler.evaluate(now, current);
                let desired = decision.desired_replicas.clamp(min, max);
                FleetDecision {
                    node,
                    round,
                    at: now,
                    queue_depth: depth,
                    current_leaves: current,
                    desired_leaves: desired,
                    panicking: decision.panicking,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(nodes: usize) -> FleetController {
        FleetController::new(FleetConfig::default(), nodes).unwrap()
    }

    #[test]
    fn config_validation_catches_bad_bounds() {
        assert!(FleetConfig::default().validate().is_ok());
        assert!(FleetConfig::default()
            .with_leaf_bounds(0, 4)
            .validate()
            .is_err());
        assert!(FleetConfig::default()
            .with_leaf_bounds(8, 4)
            .validate()
            .is_err());
        let config = FleetConfig {
            round_period: SimDuration::ZERO,
            ..FleetConfig::default()
        };
        assert!(config.validate().is_err());
        assert!(FleetController::new(FleetConfig::default(), 0).is_err());
    }

    #[test]
    fn empty_queues_hold_the_minimum_fleet() {
        let mut fleet = controller(2);
        for _ in 0..20 {
            let decisions = fleet.observe_round(&[0.0, 0.0], &[1, 1]);
            for d in &decisions {
                assert_eq!(d.desired_leaves, 1, "never below min_leaves");
                assert!(!d.is_resize());
            }
        }
    }

    #[test]
    fn sustained_backlog_grows_the_hot_node_only() {
        let mut fleet = controller(2);
        let mut leaves = [1u32, 1u32];
        for _ in 0..12 {
            let decisions = fleet.observe_round(&[32.0, 0.0], &leaves);
            leaves = [decisions[0].desired_leaves, decisions[1].desired_leaves];
        }
        assert!(
            leaves[0] >= 8,
            "depth 32 / target 4 should want ~8 leaves, got {}",
            leaves[0]
        );
        assert_eq!(leaves[1], 1, "idle node stays at the minimum");
    }

    #[test]
    fn spike_panics_then_retires_after_drain() {
        let mut fleet = controller(1);
        let mut leaves = 1u32;
        let mut panicked = false;
        // Four quiet rounds, a four-round spike, then a long drain.
        let trace: Vec<f64> = [1.0; 4]
            .into_iter()
            .chain([64.0; 4])
            .chain([0.0; 16])
            .collect();
        let mut peak = 1u32;
        for depth in &trace {
            let decision = fleet.observe_round(&[*depth], &[leaves])[0];
            panicked |= decision.panicking;
            leaves = decision.desired_leaves;
            peak = peak.max(leaves);
        }
        assert!(panicked, "the spike should trip the panic window");
        assert!(peak >= 8, "spike should grow the fleet, peaked at {peak}");
        assert_eq!(leaves, 1, "drained fleet retires back to the minimum");
    }

    #[test]
    fn growth_is_capped_by_max_leaves() {
        let config = FleetConfig::default().with_leaf_bounds(1, 4);
        let mut fleet = FleetController::new(config, 1).unwrap();
        let mut leaves = 1u32;
        for _ in 0..10 {
            leaves = fleet.observe_round(&[1000.0], &[leaves])[0].desired_leaves;
        }
        assert_eq!(leaves, 4);
    }

    #[test]
    fn same_trace_yields_the_same_decision_sequence() {
        let trace: Vec<[f64; 2]> = (0..24)
            .map(|i| [((i * 7) % 13) as f64, ((i * 11) % 37) as f64])
            .collect();
        let run = || {
            let mut fleet = controller(2);
            let mut leaves = [1u32, 1u32];
            let mut decisions = Vec::new();
            for depths in &trace {
                let step = fleet.observe_round(depths, &leaves);
                leaves = [step[0].desired_leaves, step[1].desired_leaves];
                decisions.extend(step);
            }
            decisions
        };
        assert_eq!(run(), run(), "fleet control must be trace-deterministic");
    }
}
