//! Figure 8: the benefit of LIFL's orchestration — ACT, cumulative CPU time,
//! aggregators created and nodes used for SL-H and the cumulative addition of
//! ① locality-aware placement, ② hierarchy planning, ③ aggregator reuse and
//! ④ eager aggregation, at 20/60/100 concurrent ResNet-152 updates over five
//! nodes with MC_i = 20.

use crate::report::format_table;
use lifl_sim::platform::{LiflPlatform, PlatformProfile, RoundSpec};
use lifl_types::{
    AggregationTiming, ClusterConfig, LiflConfig, ModelKind, PlacementPolicy, SimTime, SystemKind,
};
use serde::Serialize;

/// One cell of Fig. 8: a (configuration, load) pair.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Row {
    /// Configuration label ("SL-H", "+1", "+1+2", ...).
    pub config: String,
    /// Number of concurrently arriving model updates.
    pub updates: usize,
    /// Aggregation completion time in seconds (Fig. 8(a)).
    pub act_seconds: f64,
    /// Cumulative CPU time in seconds (Fig. 8(b)).
    pub cpu_seconds: f64,
    /// Aggregators created (Fig. 8(c)).
    pub aggregators_created: u64,
    /// Nodes used (Fig. 8(d)).
    pub nodes_used: u64,
}

/// The full Fig. 8 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Result {
    /// All rows (5 configurations x 3 load levels).
    pub rows: Vec<Fig8Row>,
}

fn profile_for(config: &LiflConfig, cluster: ClusterConfig) -> PlatformProfile {
    let mut profile = PlatformProfile::lifl(cluster, config);
    // Every ablation step shares LIFL's data plane; the baseline differs only
    // in orchestration, exactly as in the paper (SL-H uses LIFL's data plane).
    if config.placement == PlacementPolicy::WorstFit
        && !config.hierarchy_planning
        && !config.reuse_runtimes
        && config.timing == AggregationTiming::Lazy
    {
        profile.system = SystemKind::SlHierarchical;
    }
    // Fig. 8 is a single-shot microbenchmark: no warm instances from earlier rounds.
    profile.warm_across_rounds = false;
    profile
}

/// Runs the Fig. 8 sweep.
pub fn run() -> Fig8Result {
    let mut rows = Vec::new();
    for (label, config) in LiflConfig::ablation_steps() {
        for updates in [20usize, 60, 100] {
            let mut platform =
                LiflPlatform::with_profile(profile_for(&config, ClusterConfig::default()));
            let spec = RoundSpec::simultaneous(ModelKind::ResNet152, updates, SimTime::ZERO);
            let report = platform.run_round(&spec);
            rows.push(Fig8Row {
                config: label.clone(),
                updates,
                act_seconds: report.metrics.aggregation_completion_time.as_secs(),
                cpu_seconds: report.metrics.cpu_time.as_secs(),
                aggregators_created: report.metrics.aggregators_created,
                nodes_used: report.metrics.nodes_used,
            });
        }
    }
    Fig8Result { rows }
}

/// Formats the sweep as one table.
pub fn format(result: &Fig8Result) -> String {
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.updates.to_string(),
                format!("{:.1}", r.act_seconds),
                format!("{:.1}", r.cpu_seconds),
                r.aggregators_created.to_string(),
                r.nodes_used.to_string(),
            ]
        })
        .collect();
    let mut out =
        String::from("Fig. 8: LIFL orchestration ablation (ResNet-152, 5 nodes, MC=20)\n");
    out.push_str(&format_table(
        &[
            "config",
            "updates",
            "ACT (s)",
            "CPU (s)",
            "# agg created",
            "# nodes",
        ],
        &rows,
    ));
    out
}

impl Fig8Result {
    /// Looks up one cell.
    pub fn cell(&self, config: &str, updates: usize) -> Option<&Fig8Row> {
        self.rows
            .iter()
            .find(|r| r.config == config && r.updates == updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig8_shape() {
        let result = run();
        assert_eq!(result.rows.len(), 15);
        let slh20 = result.cell("SL-H", 20).unwrap();
        let full20 = result.cell("+1+2+3+4", 20).unwrap();
        let p1_20 = result.cell("+1", 20).unwrap();

        // Fig. 8(d): locality-aware placement packs 20/60/100 updates into 1/3/5 nodes,
        // while SL-H spreads over all 5 nodes regardless.
        assert_eq!(p1_20.nodes_used, 1);
        assert_eq!(result.cell("+1", 60).unwrap().nodes_used, 3);
        assert_eq!(result.cell("+1", 100).unwrap().nodes_used, 5);
        assert_eq!(slh20.nodes_used, 5);

        // Fig. 8(a): placement alone gives a large ACT cut at 20 updates (paper: 2.1x).
        let gain = slh20.act_seconds / p1_20.act_seconds;
        assert!(gain > 1.5, "locality-aware placement gain {gain:.2}x");
        // Each further addition never hurts, and the full stack beats SL-H clearly.
        let full_gain = slh20.act_seconds / full20.act_seconds;
        assert!(full_gain > 2.0, "full orchestration gain {full_gain:.2}x");

        // Fig. 8(b): CPU cost also drops (paper: up to 2x).
        assert!(full20.cpu_seconds < slh20.cpu_seconds);

        // Fig. 8(c): fewer aggregators created thanks to reuse.
        assert!(full20.aggregators_created <= slh20.aggregators_created);

        // At 100 updates all five nodes are saturated, shrinking the orchestration gain.
        let slh100 = result.cell("SL-H", 100).unwrap();
        let full100 = result.cell("+1+2+3+4", 100).unwrap();
        let gain100 = slh100.act_seconds / full100.act_seconds;
        assert!(gain100 < gain, "gain shrinks when capacity is saturated");

        let text = format(&result);
        assert!(text.contains("SL-H"));
    }
}
