//! Ablation sweeps over LIFL's design parameters.
//!
//! DESIGN.md calls out three design choices whose values the paper fixes from
//! experience rather than from a reported sweep: the EWMA smoothing
//! coefficient α = 0.7 (§5.2), the leaf fan-in I = 2 (§5.2) and the BestFit
//! bin-packing policy (§5.1). These sweeps regenerate the evidence for each
//! choice so a downstream user can re-tune them for their own cluster.

use crate::report::format_table;
use lifl_core::ewma::EwmaEstimator;
use lifl_sim::platform::{LiflPlatform, PlatformProfile, RoundSpec};
use lifl_types::{ClusterConfig, LiflConfig, ModelKind, PlacementPolicy, SimTime};
use serde::Serialize;

/// One row of the EWMA-α sweep: how the estimator trades responsiveness
/// (tracking a genuine load shift quickly) against stability (ignoring a
/// one-interval spike).
#[derive(Debug, Clone, Serialize)]
pub struct AlphaRow {
    /// The smoothing coefficient.
    pub alpha: f64,
    /// Estimate error right after a genuine step change (lower = more responsive).
    pub step_lag: f64,
    /// Peak deviation caused by a single-interval spike (lower = more stable).
    pub spike_overshoot: f64,
}

/// One row of the leaf fan-in sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FanInRow {
    /// Client updates per leaf aggregator (I).
    pub fan_in: u32,
    /// Aggregation completion time at 20 concurrent ResNet-152 updates.
    pub act_seconds: f64,
    /// Aggregators created.
    pub aggregators_created: u64,
}

/// One row of the placement-policy sweep.
#[derive(Debug, Clone, Serialize)]
pub struct PlacementRow {
    /// The bin-packing policy.
    pub policy: String,
    /// Number of concurrently arriving updates.
    pub updates: usize,
    /// Aggregation completion time.
    pub act_seconds: f64,
    /// Nodes used.
    pub nodes_used: u64,
    /// Bytes moved between nodes.
    pub inter_node_bytes: u64,
}

/// The combined ablation result.
#[derive(Debug, Clone, Serialize)]
pub struct AblationResult {
    /// EWMA-α sweep rows.
    pub alpha: Vec<AlphaRow>,
    /// Leaf fan-in sweep rows.
    pub fan_in: Vec<FanInRow>,
    /// Placement policy sweep rows.
    pub placement: Vec<PlacementRow>,
}

/// Sweeps the EWMA smoothing coefficient.
///
/// The synthetic load trace has a genuine step (10 → 40 pending updates) and,
/// later, a one-interval spike (40 → 120 → 40). A good α tracks the step
/// within a few re-plan periods while damping most of the spike — the
/// trade-off that led the authors to α = 0.7.
pub fn alpha_sweep() -> Vec<AlphaRow> {
    let alphas = [0.0, 0.3, 0.5, 0.7, 0.9];
    alphas
        .iter()
        .map(|&alpha| {
            let mut estimator = EwmaEstimator::new(alpha);
            // Warm up at the low level.
            for _ in 0..10 {
                estimator.observe(10.0);
            }
            // Genuine step change to 40: measure how far the estimate lags
            // after two re-plan periods.
            estimator.observe(40.0);
            let after_step = estimator.observe(40.0);
            let step_lag = (40.0 - after_step).abs();
            // Single-interval spike to 120, then back to 40: measure overshoot.
            let spiked = estimator.observe(120.0);
            let spike_overshoot = (spiked - 40.0).max(0.0);
            for _ in 0..5 {
                estimator.observe(40.0);
            }
            AlphaRow {
                alpha,
                step_lag,
                spike_overshoot,
            }
        })
        .collect()
}

/// Sweeps the leaf fan-in I at 20 concurrent ResNet-152 updates.
pub fn fan_in_sweep() -> Vec<FanInRow> {
    [1u32, 2, 4, 8, 20]
        .iter()
        .map(|&fan_in| {
            let config = LiflConfig {
                leaf_fan_in: fan_in,
                ..LiflConfig::default()
            };
            let mut profile = PlatformProfile::lifl(ClusterConfig::default(), &config);
            profile.warm_across_rounds = false;
            let mut platform = LiflPlatform::with_profile(profile);
            let spec = RoundSpec::simultaneous(ModelKind::ResNet152, 20, SimTime::ZERO);
            let report = platform.run_round(&spec);
            FanInRow {
                fan_in,
                act_seconds: report.metrics.aggregation_completion_time.as_secs(),
                aggregators_created: report.metrics.aggregators_created,
            }
        })
        .collect()
}

/// Sweeps the placement policy at 20/60/100 concurrent ResNet-152 updates.
pub fn placement_sweep() -> Vec<PlacementRow> {
    let mut rows = Vec::new();
    for policy in [
        PlacementPolicy::BestFit,
        PlacementPolicy::FirstFit,
        PlacementPolicy::WorstFit,
    ] {
        for updates in [20usize, 60, 100] {
            let config = LiflConfig {
                placement: policy,
                ..LiflConfig::default()
            };
            let mut profile = PlatformProfile::lifl(ClusterConfig::default(), &config);
            profile.warm_across_rounds = false;
            let mut platform = LiflPlatform::with_profile(profile);
            let spec = RoundSpec::simultaneous(ModelKind::ResNet152, updates, SimTime::ZERO);
            let report = platform.run_round(&spec);
            rows.push(PlacementRow {
                policy: format!("{policy:?}"),
                updates,
                act_seconds: report.metrics.aggregation_completion_time.as_secs(),
                nodes_used: report.metrics.nodes_used,
                inter_node_bytes: report.metrics.inter_node_bytes,
            });
        }
    }
    rows
}

/// Runs every sweep.
pub fn run() -> AblationResult {
    AblationResult {
        alpha: alpha_sweep(),
        fan_in: fan_in_sweep(),
        placement: placement_sweep(),
    }
}

/// Formats the sweeps as three tables.
pub fn format(result: &AblationResult) -> String {
    let mut out =
        String::from("Ablation: EWMA smoothing coefficient (step lag vs spike overshoot)\n");
    out.push_str(&format_table(
        &["alpha", "step lag", "spike overshoot"],
        &result
            .alpha
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}", r.alpha),
                    format!("{:.1}", r.step_lag),
                    format!("{:.1}", r.spike_overshoot),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out.push_str("\nAblation: leaf fan-in I (20 concurrent ResNet-152 updates)\n");
    out.push_str(&format_table(
        &["I", "ACT (s)", "# agg created"],
        &result
            .fan_in
            .iter()
            .map(|r| {
                vec![
                    r.fan_in.to_string(),
                    format!("{:.1}", r.act_seconds),
                    r.aggregators_created.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out.push_str("\nAblation: placement policy\n");
    out.push_str(&format_table(
        &["policy", "updates", "ACT (s)", "# nodes", "inter-node MB"],
        &result
            .placement
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    r.updates.to_string(),
                    format!("{:.1}", r.act_seconds),
                    r.nodes_used.to_string(),
                    format!("{:.0}", r.inter_node_bytes as f64 / (1024.0 * 1024.0)),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_trades_responsiveness_for_stability() {
        let rows = alpha_sweep();
        assert_eq!(rows.len(), 5);
        let by_alpha = |a: f64| rows.iter().find(|r| (r.alpha - a).abs() < 1e-9).unwrap();
        // α = 0 follows observations instantly: no lag, full spike.
        let reactive = by_alpha(0.0);
        assert!(reactive.step_lag < 1e-9);
        assert!(reactive.spike_overshoot > 70.0);
        // α = 0.9 is sluggish: large lag, small spike overshoot.
        let sluggish = by_alpha(0.9);
        assert!(sluggish.step_lag > reactive.step_lag);
        assert!(sluggish.spike_overshoot < reactive.spike_overshoot);
        // The paper's α = 0.7 sits between the extremes on both axes.
        let paper = by_alpha(0.7);
        assert!(paper.step_lag > reactive.step_lag && paper.step_lag < sluggish.step_lag);
        assert!(
            paper.spike_overshoot < reactive.spike_overshoot
                && paper.spike_overshoot > sluggish.spike_overshoot
        );
    }

    #[test]
    fn small_fan_in_maximises_parallelism() {
        let rows = fan_in_sweep();
        let by_fan_in = |i: u32| rows.iter().find(|r| r.fan_in == i).unwrap();
        // I = 2 (the paper's choice) completes no slower than a single giant leaf.
        assert!(by_fan_in(2).act_seconds <= by_fan_in(20).act_seconds + 1e-9);
        // Larger fan-in always needs fewer (or equal) aggregators.
        assert!(by_fan_in(20).aggregators_created <= by_fan_in(2).aggregators_created);
        assert!(by_fan_in(2).aggregators_created <= by_fan_in(1).aggregators_created);
    }

    #[test]
    fn bestfit_uses_fewest_nodes_and_least_cross_traffic() {
        let rows = placement_sweep();
        let cell = |policy: &str, updates: usize| {
            rows.iter()
                .find(|r| r.policy == policy && r.updates == updates)
                .unwrap()
        };
        for updates in [20usize, 60] {
            let best = cell("BestFit", updates);
            let worst = cell("WorstFit", updates);
            assert!(best.nodes_used <= worst.nodes_used);
            assert!(best.inter_node_bytes <= worst.inter_node_bytes);
            assert!(best.act_seconds <= worst.act_seconds + 1e-9);
        }
        // At 100 updates every node is needed regardless of policy.
        assert_eq!(
            cell("BestFit", 100).nodes_used,
            cell("WorstFit", 100).nodes_used
        );
        let text = format(&run());
        assert!(text.contains("BestFit"));
        assert!(text.contains("alpha"));
    }
}
