//! The LIFL coordinator (§3, §5, Fig. 6): the cluster-wide control-plane
//! component that periodically re-plans the aggregation hierarchy from the
//! metric server's queue estimates, drives placement, and applies runtime
//! reuse. It is the interface between the FL job designer and the serverless
//! control plane.

use crate::hierarchy::HierarchyPlan;
use crate::metric_server::MetricServer;
use crate::placement::{NodeCapacity, PlacementEngine, PlacementOutcome};
use lifl_core::ewma::EwmaEstimator;
use lifl_types::{ClusterConfig, LiflConfig, NodeId, SimTime};
use std::collections::HashMap;

/// The cluster-wide coordinator.
#[derive(Debug)]
pub struct LiflCoordinator {
    cluster: ClusterConfig,
    config: LiflConfig,
    metric_server: MetricServer,
    estimators: HashMap<NodeId, EwmaEstimator>,
    last_replan: SimTime,
    replans: u64,
    current_plan: HierarchyPlan,
}

impl LiflCoordinator {
    /// Creates a coordinator for the cluster.
    pub fn new(cluster: ClusterConfig, config: LiflConfig) -> Self {
        LiflCoordinator {
            cluster,
            config,
            metric_server: MetricServer::new(),
            estimators: HashMap::new(),
            last_replan: SimTime::ZERO,
            replans: 0,
            current_plan: HierarchyPlan::default(),
        }
    }

    /// Mutable access to the metric server (agents report through this).
    pub fn metric_server_mut(&mut self) -> &mut MetricServer {
        &mut self.metric_server
    }

    /// Places a batch of `updates` incoming model updates across the cluster
    /// using the configured bin-packing policy (§5.1).
    pub fn place_updates(&self, updates: u64) -> PlacementOutcome {
        let engine = PlacementEngine::new(self.config.placement);
        let mut caps: Vec<NodeCapacity> = (0..self.cluster.aggregation_nodes as u64)
            .map(|i| NodeCapacity::new(NodeId::new(i), self.cluster.node.max_service_capacity))
            .collect();
        engine.place_batch(updates, &mut caps)
    }

    /// Whether a hierarchy re-plan is due at `now` (§6.1: 2-minute cycle).
    pub fn replan_due(&self, now: SimTime) -> bool {
        now.duration_since(self.last_replan) >= self.config.replan_period || self.replans == 0
    }

    /// Re-plans the per-node hierarchies from EWMA-smoothed queue estimates (§5.2).
    pub fn replan(&mut self, now: SimTime) -> &HierarchyPlan {
        let alpha = self.config.ewma_alpha;
        let mut pending = Vec::new();
        for (node, raw) in self.metric_server.queue_estimates() {
            let est = self
                .estimators
                .entry(node)
                .or_insert_with(|| EwmaEstimator::new(alpha))
                .observe(raw);
            pending.push((node, est.round() as u32));
        }
        self.current_plan = HierarchyPlan::plan(&pending, self.config.leaf_fan_in);
        self.last_replan = now;
        self.replans += 1;
        &self.current_plan
    }

    /// The most recent hierarchy plan.
    pub fn current_plan(&self) -> &HierarchyPlan {
        &self.current_plan
    }

    /// Number of re-planning passes executed.
    pub fn replans(&self) -> u64 {
        self.replans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric_server::NodeLoad;
    use lifl_types::SimDuration;

    #[test]
    fn replan_cycle_and_plan_shape() {
        let mut coordinator = LiflCoordinator::new(ClusterConfig::default(), LiflConfig::default());
        assert!(coordinator.replan_due(SimTime::ZERO));
        for node in 0..3u64 {
            coordinator.metric_server_mut().report(
                NodeId::new(node),
                NodeLoad {
                    arrival_rate: (node + 1) as f64,
                    avg_exec_time: SimDuration::from_secs(2.0),
                },
            );
        }
        let plan = coordinator.replan(SimTime::from_secs(10.0)).clone();
        assert_eq!(plan.nodes.len(), 3);
        assert_eq!(plan.top_node, Some(NodeId::new(2)));
        assert!(!coordinator.replan_due(SimTime::from_secs(60.0)));
        assert!(coordinator.replan_due(SimTime::from_secs(131.0)));
        assert_eq!(coordinator.replans(), 1);
        assert_eq!(coordinator.current_plan(), &plan);
    }

    #[test]
    fn placement_respects_policy() {
        let coordinator = LiflCoordinator::new(ClusterConfig::default(), LiflConfig::default());
        let outcome = coordinator.place_updates(20);
        assert_eq!(
            outcome.nodes_used, 1,
            "BestFit packs 20 updates on one node"
        );
    }
}
