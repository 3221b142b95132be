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

use crate::fleet::NodeFleet;
use crate::placement::PlacementEngine;
use lifl_core::heartbeat::over_provisioned_selection;
use lifl_fl::client::Client;
use lifl_fl::selector::{select_clients, SelectionStrategy};
use lifl_simcore::SimRng;
use lifl_types::{ClientId, LiflError, ModelKind, NodeId, PlacementPolicy, Result};

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
        if !(0.0..1.0).contains(&self.expected_dropout) {
            return Err(LiflError::InvalidConfig(format!(
                "expected dropout must be in [0,1), got {}",
                self.expected_dropout
            )));
        }
        Ok(())
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

    /// The node a given client reports to, if it was assigned.
    pub fn node_of(&self, client: ClientId) -> Option<NodeId> {
        self.assignments
            .iter()
            .find(|(c, _)| *c == client)
            .map(|(_, n)| *n)
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

    /// The configuration in use.
    pub fn config(&self) -> &SelectorConfig {
        &self.config
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
    use crate::hierarchy::HierarchyPlan;
    use lifl_fl::client::ClientAvailability;
    use lifl_types::{ClusterConfig, NodeConfig};

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
    fn over_provisions_and_packs_onto_few_nodes() {
        let selector = SelectorService::new(SelectorConfig {
            aggregation_goal: 20,
            expected_dropout: 0.2,
            ..SelectorConfig::default()
        })
        .unwrap();
        let fleet = NodeFleet::homogeneous(&ClusterConfig::default());
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
        // Every assigned client resolves to a node.
        let (first_client, first_node) = assignment.assignments[0];
        assert_eq!(assignment.node_of(first_client), Some(first_node));
        assert_eq!(assignment.node_of(ClientId::new(9999)), None);
    }

    #[test]
    fn assignment_feeds_the_hierarchy_planner() {
        let selector = SelectorService::new(SelectorConfig {
            aggregation_goal: 40,
            expected_dropout: 0.0,
            ..SelectorConfig::default()
        })
        .unwrap();
        let fleet = NodeFleet::homogeneous(&ClusterConfig::default());
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
        let fleet = NodeFleet::homogeneous(&ClusterConfig::default());
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
