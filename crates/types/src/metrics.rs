//! Resource-usage and round-level metrics shared by the simulator, the
//! baselines and the experiment harness.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// A CPU-cycle count (the unit used by Fig. 7(b) and Fig. 13(a)).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize, Default)]
pub struct CpuCycles(pub f64);

impl CpuCycles {
    /// Zero cycles.
    pub const ZERO: CpuCycles = CpuCycles(0.0);

    /// Cycle count in giga-cycles.
    pub fn as_giga(self) -> f64 {
        self.0 / 1e9
    }

    /// CPU time these cycles occupy on a core with the given clock (GHz).
    pub fn to_duration(self, clock_ghz: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / (clock_ghz.max(1e-9) * 1e9))
    }
}

impl Add for CpuCycles {
    type Output = CpuCycles;
    fn add(self, rhs: CpuCycles) -> CpuCycles {
        CpuCycles(self.0 + rhs.0)
    }
}

impl AddAssign for CpuCycles {
    fn add_assign(&mut self, rhs: CpuCycles) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for CpuCycles {
    fn sum<I: Iterator<Item = CpuCycles>>(iter: I) -> Self {
        iter.fold(CpuCycles::ZERO, |a, b| a + b)
    }
}

/// Aggregate resource usage attributed to one component or one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ResourceUsage {
    /// Busy CPU time.
    pub cpu_time: SimDuration,
    /// CPU cycles (redundant with `cpu_time` given a clock, but kept so that
    /// experiments can report the same units as the paper's figures).
    pub cpu_cycles: CpuCycles,
    /// Peak memory occupied, in bytes.
    pub peak_memory_bytes: u64,
    /// Bytes moved over the network (inter-node only).
    pub network_bytes: u64,
}

impl ResourceUsage {
    /// Usage with every counter at zero.
    pub fn zero() -> Self {
        Self::default()
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

    #[test]
    fn cycles_duration_roundtrip() {
        let cycles = CpuCycles(2.8e9);
        let dur = cycles.to_duration(2.8);
        assert!((dur.as_secs() - 1.0).abs() < 1e-9);
        assert!((cycles.as_giga() - 2.8).abs() < 1e-9);
    }

    #[test]
    fn round_metrics_act() {
        let mut m = RoundMetrics::new(3, SimTime::from_secs(10.0));
        m.complete(SimTime::from_secs(15.5));
        assert!((m.aggregation_completion_time.as_secs() - 5.5).abs() < 1e-12);
        assert_eq!(m.round, 3);
    }

    #[test]
    fn cycles_sum() {
        let total: CpuCycles = [1.0, 2.0].iter().map(|g| CpuCycles(g * 1e9)).sum();
        assert!((total.as_giga() - 3.0).abs() < 1e-12);
    }
}
