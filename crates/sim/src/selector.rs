//! The selector service (§2.2, §5.1).
//!
//! The paper's selector plays two roles: it keeps the participating set of
//! clients diverse, and it acts as the gateway-facing load balancer that maps
//! selected clients to backend worker nodes. In LIFL that mapping *is* the
//! locality-aware load balancing of §5.1 — the client-to-node assignment
//! decides where model updates land in shared memory and therefore where the
//! hierarchy planner can place aggregators. This module composes the pieces:
//! over-provisioned client selection (a strategy from `lifl-fl::selector`)
//! followed by bin-packing of the selected clients onto the fleet's gateways,
//! producing the per-node pending counts the hierarchy planner consumes.
//!
//! Over-provisioning (§3: "LIFL detects client failures with keep-alive
//! heartbeats and enhances resilience by over-provisioning the number of
//! clients") lives here and nowhere else: [`over_provisioned_selection`]
//! sizes the selection. The keep-alive half is the engine cluster's: each
//! node's last heartbeat lives with the rest of its fault state
//! (`lifl_core::cluster::Cluster::detect_failed_nodes`).

use crate::config::PlacementPolicy;
use crate::fleet::NodeFleet;
use crate::placement::PlacementEngine;
use lifl_fl::client::Client;
use lifl_fl::selector::{select_clients, SelectionStrategy};
use lifl_simcore::SimRng;
use lifl_types::{ClientId, LiflError, ModelKind, NodeId, Result};

/// Drop-out rates above this saturate instead of inflating the selection
/// without bound (a 20x over-provisioning factor); rates outside `[0, 1)` are
/// rejected outright.
pub const MAX_DROPOUT_RATE: f64 = 0.95;

/// How many clients to select so that, with an expected drop-out rate, at
/// least `goal` updates arrive (the over-provisioning rule of §3): the
/// smallest `n` with `n · (1 − rate) ≥ goal`.
///
/// Rates in `(MAX_DROPOUT_RATE, 1.0)` saturate at [`MAX_DROPOUT_RATE`]: the
/// selection stays finite (at most `20 * goal`) rather than exploding as the
/// rate approaches 1.
///
/// # Errors
/// Returns [`LiflError::InvalidConfig`] for a rate that is NaN, negative or
/// at least 1 (no finite selection can cover losing every client).
pub fn over_provisioned_selection(goal: u64, expected_dropout_rate: f64) -> Result<u64> {
    if !(0.0..1.0).contains(&expected_dropout_rate) {
        return Err(LiflError::InvalidConfig(format!(
            "expected dropout rate must be in [0,1), got {expected_dropout_rate}"
        )));
    }
    let kept = 1.0 - expected_dropout_rate.min(MAX_DROPOUT_RATE);
    let covers = |n: u64| n as f64 * kept >= goal as f64;
    // The quotient's ceiling is the answer up to one rounding step either
    // way (21 / 0.7 is 30.000000000000004, whose ceiling selects 31).
    let mut n = (goal as f64 / kept).ceil() as u64;
    while n > 0 && covers(n - 1) {
        n -= 1;
    }
    while !covers(n) {
        n += 1;
    }
    Ok(n)
}

/// Configuration of the selector service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectorConfig {
    /// The aggregation goal n: updates needed to commit a new global model.
    pub aggregation_goal: u64,
    /// Expected fraction of selected clients that drop out before reporting.
    pub expected_dropout: f64,
    /// Client-selection strategy (diversity role).
    pub strategy: SelectionStrategy,
    /// Placement policy used to map clients to worker-node gateways.
    pub placement: PlacementPolicy,
    /// Workload model (used by speed-aware strategies).
    pub model: ModelKind,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        SelectorConfig {
            aggregation_goal: 120,
            expected_dropout: 0.1,
            strategy: SelectionStrategy::UniformRandom,
            placement: PlacementPolicy::BestFit,
            model: ModelKind::ResNet18,
        }
    }
}

impl SelectorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] when the goal is zero and
    /// [`LiflError::InvalidConfig`] for an out-of-range drop-out rate.
    pub fn validate(&self) -> Result<()> {
        if self.aggregation_goal == 0 {
            return Err(LiflError::InvalidAggregationGoal(0));
        }
        over_provisioned_selection(self.aggregation_goal, self.expected_dropout).map(|_| ())
    }
}

/// The client-to-node mapping produced for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundAssignment {
    /// Selected clients and the worker node whose gateway each reports to.
    pub assignments: Vec<(ClientId, NodeId)>,
    /// Per-node pending-update counts (the hierarchy planner's input).
    pub pending_per_node: Vec<(NodeId, u32)>,
    /// Clients selected beyond the aggregation goal (over-provisioning, §3).
    pub over_provisioned: u64,
    /// Selected clients that could not be mapped because the cluster's total
    /// service capacity was exceeded (they wait for the next re-plan).
    pub unassigned: u64,
}

impl RoundAssignment {
    /// Number of selected clients.
    pub fn selected(&self) -> usize {
        self.assignments.len() + self.unassigned as usize
    }
}

/// The selector service.
#[derive(Debug, Clone)]
pub struct SelectorService {
    config: SelectorConfig,
}

impl SelectorService {
    /// Creates a selector from a validated configuration.
    ///
    /// # Errors
    /// Propagates [`SelectorConfig::validate`] errors.
    pub fn new(config: SelectorConfig) -> Result<Self> {
        config.validate()?;
        Ok(SelectorService { config })
    }

    /// Selects this round's clients from `pool` and maps them onto the
    /// fleet's worker-node gateways.
    pub fn assign_round(
        &self,
        pool: &[Client],
        fleet: &NodeFleet,
        rng: &mut SimRng,
    ) -> RoundAssignment {
        // Diversity role: pick an over-provisioned set of participants. The
        // dropout rate was validated into [0,1) at construction, so the
        // selection rule cannot fail here.
        let target =
            over_provisioned_selection(self.config.aggregation_goal, self.config.expected_dropout)
                .unwrap_or(self.config.aggregation_goal);
        let selected = select_clients(
            self.config.strategy,
            pool,
            target as usize,
            self.config.model,
            rng,
        );
        let over_provisioned = (selected.len() as u64).saturating_sub(self.config.aggregation_goal);

        // Gateway role: map participants to worker nodes by bin-packing over
        // residual service capacity (§5.1).
        let engine = PlacementEngine::new(self.config.placement);
        let mut capacities = fleet.capacities();
        let mut assignments = Vec::with_capacity(selected.len());
        let mut unassigned = 0u64;
        for client in &selected {
            match engine.place_one(&mut capacities) {
                Ok(node) => assignments.push((client.id, node)),
                Err(_) => unassigned += 1,
            }
        }
        let pending_per_node: Vec<(NodeId, u32)> = capacities
            .iter()
            .filter(|c| c.assigned > 0)
            .map(|c| (c.node, c.assigned))
            .collect();
        RoundAssignment {
            assignments,
            pending_per_node,
            over_provisioned,
            unassigned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, NodeConfig};
    use crate::hierarchy::HierarchyPlan;
    use lifl_fl::client::ClientAvailability;

    /// The paper's five identical nodes.
    fn paper_fleet() -> NodeFleet {
        let cluster = ClusterConfig::default();
        NodeFleet::heterogeneous(vec![cluster.node; cluster.aggregation_nodes as usize]).unwrap()
    }

    fn pool(n: usize) -> Vec<Client> {
        (0..n)
            .map(|i| Client {
                id: ClientId::new(i as u64),
                compute_speed: 1.0 + (i % 3) as f64 * 0.5,
                local_samples: 20 + (i as u64 % 5) * 10,
                availability: ClientAvailability::AlwaysOn,
            })
            .collect()
    }

    #[test]
    fn over_provisioning_covers_dropout() {
        assert_eq!(over_provisioned_selection(120, 0.0).unwrap(), 120);
        assert_eq!(over_provisioned_selection(120, 0.2).unwrap(), 150);
        assert_eq!(over_provisioned_selection(15, 0.25).unwrap(), 20);
        // Rates beyond MAX_DROPOUT_RATE saturate so selection stays finite.
        assert_eq!(over_provisioned_selection(10, 0.99).unwrap(), 200);
        assert_eq!(
            over_provisioned_selection(10, 0.96).unwrap(),
            over_provisioned_selection(10, MAX_DROPOUT_RATE).unwrap()
        );
        // Rates outside [0,1) are rejected, not silently clamped.
        assert!(over_provisioned_selection(10, 1.0).is_err());
        assert!(over_provisioned_selection(10, -0.1).is_err());
        assert!(over_provisioned_selection(10, f64::NAN).is_err());
    }

    /// The smallest selection that covers the goal, not the ceiling of a
    /// quotient that rounding can push just past an integer.
    #[test]
    fn over_provisioning_selects_the_smallest_covering_count() {
        for (goal, rate, selected) in [
            (21, 0.3, 30),  // 21 / 0.7 = 30.000000000000004
            (9, 0.55, 20),  // 9 / 0.45 = 20.000000000000004
            (42, 0.3, 60),  // 42 / 0.7 = 60.00000000000001
            (21, 0.65, 60), // 21 / 0.35 = 60.00000000000001
            (8, 0.2, 10),   // exact
            (10, 0.2, 13),  // 12.5 rounds up
            (0, 0.5, 0),    // nothing to cover
            (1, 0.95, 20),  // at the saturation rate
            (3, 0.999, 60), // saturated at MAX_DROPOUT_RATE
        ] {
            let n = over_provisioned_selection(goal, rate).unwrap();
            assert_eq!(n, selected, "goal {goal} at rate {rate}");
            let kept = 1.0 - rate.min(MAX_DROPOUT_RATE);
            assert!(n as f64 * kept >= goal as f64);
            assert!(n == 0 || ((n - 1) as f64 * kept) < goal as f64);
        }
        // The rates the repository runs at were never affected: there the
        // quotient's ceiling already was the smallest covering count.
        for rate in [0.1, 0.2] {
            for goal in 0..=2_000u64 {
                assert_eq!(
                    over_provisioned_selection(goal, rate).unwrap(),
                    (goal as f64 / (1.0 - rate)).ceil() as u64,
                    "goal {goal} at rate {rate}"
                );
            }
        }
    }

    #[test]
    fn over_provisions_and_packs_onto_few_nodes() {
        let selector = SelectorService::new(SelectorConfig {
            aggregation_goal: 20,
            expected_dropout: 0.2,
            ..SelectorConfig::default()
        })
        .unwrap();
        let fleet = paper_fleet();
        let mut rng = SimRng::from_seed(3);
        let assignment = selector.assign_round(&pool(200), &fleet, &mut rng);
        // 20 / (1 - 0.2) = 25 clients selected.
        assert_eq!(assignment.selected(), 25);
        assert_eq!(assignment.over_provisioned, 5);
        assert_eq!(assignment.unassigned, 0);
        // BestFit packs 25 updates onto ceil(25 / 20) = 2 nodes.
        assert_eq!(assignment.pending_per_node.len(), 2);
        let total: u32 = assignment.pending_per_node.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn assignment_feeds_the_hierarchy_planner() {
        let selector = SelectorService::new(SelectorConfig {
            aggregation_goal: 40,
            expected_dropout: 0.0,
            ..SelectorConfig::default()
        })
        .unwrap();
        let fleet = paper_fleet();
        let mut rng = SimRng::from_seed(8);
        let assignment = selector.assign_round(&pool(300), &fleet, &mut rng);
        let plan = HierarchyPlan::plan(&assignment.pending_per_node, 2);
        assert_eq!(plan.total_updates(), 40);
        assert!(plan.top_node.is_some());
    }

    #[test]
    fn demand_beyond_cluster_capacity_is_reported_not_dropped_silently() {
        let selector = SelectorService::new(SelectorConfig {
            aggregation_goal: 50,
            expected_dropout: 0.0,
            ..SelectorConfig::default()
        })
        .unwrap();
        // A tiny fleet: one node with MC_i = 10.
        let fleet = NodeFleet::heterogeneous(vec![NodeConfig {
            max_service_capacity: 10,
            ..NodeConfig::default()
        }])
        .unwrap();
        let mut rng = SimRng::from_seed(1);
        let assignment = selector.assign_round(&pool(100), &fleet, &mut rng);
        assert_eq!(assignment.assignments.len(), 10);
        assert_eq!(assignment.unassigned, 40);
        assert_eq!(assignment.selected(), 50);
    }

    #[test]
    fn small_pools_cap_the_selection() {
        let selector = SelectorService::new(SelectorConfig {
            aggregation_goal: 120,
            expected_dropout: 0.1,
            ..SelectorConfig::default()
        })
        .unwrap();
        let fleet = paper_fleet();
        let mut rng = SimRng::from_seed(5);
        let assignment = selector.assign_round(&pool(30), &fleet, &mut rng);
        assert_eq!(assignment.selected(), 30);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SelectorService::new(SelectorConfig {
            aggregation_goal: 0,
            ..SelectorConfig::default()
        })
        .is_err());
        assert!(SelectorService::new(SelectorConfig {
            expected_dropout: 1.0,
            ..SelectorConfig::default()
        })
        .is_err());
    }
}
