//! The per-node LIFL agent (§3): drains the eBPF metrics map toward the
//! metric server and checkpoints the global model asynchronously
//! (Appendix B).

use crate::metric_server::NodeLoad;
use lifl_ebpf::MetricsMap;
use lifl_shmem::CheckpointStore;
use lifl_types::{NodeId, RoundId, SimDuration, SimTime};

/// The per-node agent.
#[derive(Debug)]
pub struct LiflAgent {
    node: NodeId,
    metrics: MetricsMap,
    checkpoints: CheckpointStore,
    updates_seen: u64,
    window_start: SimTime,
}

impl LiflAgent {
    /// Creates an agent for `node`.
    pub fn new(node: NodeId) -> Self {
        LiflAgent {
            node,
            metrics: MetricsMap::new(),
            checkpoints: CheckpointStore::new(),
            updates_seen: 0,
            window_start: SimTime::ZERO,
        }
    }

    /// The node this agent runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's eBPF metrics map.
    pub fn metrics(&self) -> &MetricsMap {
        &self.metrics
    }

    /// Records that one model update arrived at this node (for the arrival-rate report).
    pub fn record_arrival(&mut self) {
        self.updates_seen += 1;
    }

    /// Drains the metrics map and produces the node's load report for the
    /// interval since the previous report, resetting the window.
    pub fn report_load(&mut self, now: SimTime) -> NodeLoad {
        let window = now.duration_since(self.window_start).as_secs().max(1e-9);
        let drained = self.metrics.drain();
        let (total_updates, total_exec): (u64, f64) =
            drained.iter().fold((0, 0.0), |acc, (_, s)| {
                (
                    acc.0 + s.updates_aggregated,
                    acc.1 + s.total_exec_time.as_secs(),
                )
            });
        let avg_exec = if total_updates > 0 {
            SimDuration::from_secs(total_exec / total_updates as f64)
        } else {
            SimDuration::ZERO
        };
        let load = NodeLoad {
            arrival_rate: self.updates_seen as f64 / window,
            avg_exec_time: avg_exec,
        };
        self.updates_seen = 0;
        self.window_start = now;
        load
    }

    /// Checkpoints the global model asynchronously (Appendix B): the write is
    /// recorded but adds nothing to the aggregation critical path.
    pub fn checkpoint(&self, round: RoundId, model_bytes: Vec<u8>, now: SimTime) {
        self.checkpoints.save(round, model_bytes, now);
    }

    /// The checkpoint store (external persistent storage emulation).
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.checkpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_types::AggregatorId;

    #[test]
    fn load_report_uses_window_and_metrics() {
        let mut agent = LiflAgent::new(NodeId::new(0));
        for _ in 0..10 {
            agent.record_arrival();
        }
        agent.metrics().record_aggregation(
            AggregatorId::new(1),
            SimDuration::from_secs(2.0),
            SimTime::from_secs(1.0),
        );
        agent.metrics().record_aggregation(
            AggregatorId::new(1),
            SimDuration::from_secs(4.0),
            SimTime::from_secs(2.0),
        );
        let load = agent.report_load(SimTime::from_secs(5.0));
        assert!((load.arrival_rate - 2.0).abs() < 1e-9);
        assert!((load.avg_exec_time.as_secs() - 3.0).abs() < 1e-9);
        // Window resets.
        let load2 = agent.report_load(SimTime::from_secs(10.0));
        assert_eq!(load2.arrival_rate, 0.0);
    }

    #[test]
    fn checkpointing_is_recorded() {
        let agent = LiflAgent::new(NodeId::new(0));
        agent.checkpoint(RoundId::new(3), vec![1, 2, 3], SimTime::from_secs(9.0));
        assert_eq!(agent.checkpoints().len(), 1);
        assert_eq!(agent.checkpoints().latest().unwrap().round, RoundId::new(3));
    }
}
