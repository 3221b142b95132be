//! The metrics map: the eBPF map the sidecar writes per-aggregator metrics into
//! and the LIFL agent drains toward the metric server (§4.3).

use crate::map::BpfMap;
use lifl_types::{AggregatorId, SimDuration, SimTime};

/// Per-aggregator metrics accumulated in kernel space by the sidecar.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricSample {
    /// Number of model updates received/aggregated.
    pub updates_aggregated: u64,
    /// Cumulative execution time of the aggregation task.
    pub total_exec_time: SimDuration,
    /// Time of the most recent observation.
    pub last_seen: SimTime,
}

/// The per-node metrics map.
#[derive(Debug, Clone)]
pub struct MetricsMap {
    map: BpfMap<AggregatorId, MetricSample>,
}

impl Default for MetricsMap {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsMap {
    /// Creates an empty metrics map.
    pub fn new() -> Self {
        MetricsMap {
            map: BpfMap::new(0),
        }
    }

    /// Records that `agg` aggregated one update taking `exec_time`, at `now`.
    pub fn record_aggregation(&self, agg: AggregatorId, exec_time: SimDuration, now: SimTime) {
        let mut sample = self.map.lookup_elem(&agg).unwrap_or_default();
        sample.updates_aggregated += 1;
        sample.total_exec_time += exec_time;
        sample.last_seen = now;
        self.map.update_elem(agg, sample);
    }

    /// Drains every sample, as the LIFL agent does on its reporting period,
    /// returning the snapshot and clearing the map.
    pub fn drain(&self) -> Vec<(AggregatorId, MetricSample)> {
        let snapshot = self.map.snapshot();
        self.map.clear();
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_average() {
        let metrics = MetricsMap::new();
        let agg = AggregatorId::new(5);
        metrics.record_aggregation(agg, SimDuration::from_secs(2.0), SimTime::from_secs(1.0));
        metrics.record_aggregation(agg, SimDuration::from_secs(4.0), SimTime::from_secs(2.0));
        let drained = metrics.drain();
        assert_eq!(drained.len(), 1);
        let (id, sample) = drained[0];
        assert_eq!(id, agg);
        assert_eq!(sample.updates_aggregated, 2);
        // The agent averages the drained sample: 6 s over 2 updates.
        let avg = sample.total_exec_time.as_secs() / sample.updates_aggregated as f64;
        assert!((avg - 3.0).abs() < 1e-12);
        assert_eq!(sample.last_seen, SimTime::from_secs(2.0));
    }

    #[test]
    fn drain_clears() {
        let metrics = MetricsMap::new();
        for agg in [1, 2] {
            metrics.record_aggregation(AggregatorId::new(agg), SimDuration::ZERO, SimTime::ZERO);
        }
        assert_eq!(metrics.drain().len(), 2);
        assert!(metrics.drain().is_empty());
    }

    #[test]
    fn empty_sample_average_is_zero() {
        // An aggregator's first record starts from the default sample, which
        // has aggregated nothing and accumulated no execution time.
        let empty = MetricSample::default();
        assert_eq!(empty.updates_aggregated, 0);
        assert_eq!(empty.total_exec_time, SimDuration::ZERO);
        let metrics = MetricsMap::new();
        let agg = AggregatorId::new(1);
        metrics.record_aggregation(agg, SimDuration::ZERO, SimTime::ZERO);
        let (_, sample) = metrics.drain()[0];
        assert_eq!(sample.updates_aggregated, 1);
        assert_eq!(sample.total_exec_time, SimDuration::ZERO);
    }
}
