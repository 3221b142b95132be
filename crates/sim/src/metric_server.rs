//! The metric server (§3, Fig. 3/6): aggregates the per-node arrival rates
//! `k_{i,t}` and average execution times `E_{i,t}` that the LIFL agents drain
//! from their eBPF metrics maps, and exposes the queue-length estimate
//! `Q_{i,t} = k_{i,t} · E_{i,t}` the autoscaler plans against (§5.1–§5.2).

use lifl_types::{NodeId, SimDuration};
use std::collections::HashMap;

/// One node's reported load sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeLoad {
    /// Arrival rate of model updates at the node (updates per second).
    pub arrival_rate: f64,
    /// Average execution time to aggregate one update on the node.
    pub avg_exec_time: SimDuration,
}

impl NodeLoad {
    /// Coarse-grained queue-length estimate `Q_{i,t} = k_{i,t} · E_{i,t}` (§5.1).
    pub fn queue_estimate(&self) -> f64 {
        self.arrival_rate * self.avg_exec_time.as_secs()
    }

    /// Residual service capacity given the node's maximum capacity MC_i.
    pub fn residual_capacity(&self, max_capacity: f64) -> f64 {
        (max_capacity - self.queue_estimate()).max(0.0)
    }
}

/// The cluster-wide metric server.
#[derive(Debug, Clone, Default)]
pub struct MetricServer {
    loads: HashMap<NodeId, NodeLoad>,
}

impl MetricServer {
    /// Creates an empty metric server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reports (replaces) the latest load sample for `node`.
    pub fn report(&mut self, node: NodeId, load: NodeLoad) {
        self.loads.insert(node, load);
    }

    /// The latest load sample for `node`.
    pub fn load(&self, node: NodeId) -> NodeLoad {
        self.loads.get(&node).copied().unwrap_or_default()
    }

    /// Queue estimates for every reporting node, sorted by node id.
    pub fn queue_estimates(&self) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = self
            .loads
            .iter()
            .map(|(n, l)| (*n, l.queue_estimate()))
            .collect();
        v.sort_by_key(|(n, _)| *n);
        v
    }

    /// Number of nodes that have reported.
    pub fn nodes_reporting(&self) -> usize {
        self.loads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_estimate_formula() {
        let load = NodeLoad {
            arrival_rate: 2.0,
            avg_exec_time: SimDuration::from_secs(3.0),
        };
        assert_eq!(load.queue_estimate(), 6.0);
        assert_eq!(load.residual_capacity(20.0), 14.0);
        assert_eq!(load.residual_capacity(4.0), 0.0);
    }

    #[test]
    fn report_and_query() {
        let mut server = MetricServer::new();
        server.report(
            NodeId::new(1),
            NodeLoad {
                arrival_rate: 1.0,
                avg_exec_time: SimDuration::from_secs(2.0),
            },
        );
        server.report(
            NodeId::new(0),
            NodeLoad {
                arrival_rate: 5.0,
                avg_exec_time: SimDuration::from_secs(1.0),
            },
        );
        assert_eq!(server.nodes_reporting(), 2);
        assert_eq!(server.load(NodeId::new(1)).queue_estimate(), 2.0);
        assert_eq!(server.load(NodeId::new(9)).queue_estimate(), 0.0);
        let estimates = server.queue_estimates();
        assert_eq!(estimates[0].0, NodeId::new(0));
        assert_eq!(estimates[0].1, 5.0);
    }
}
