//! Figure 4: the impact of data-plane performance on hierarchical aggregation
//! under kernel networking — a single aggregator without hierarchy (NH) versus
//! one top + four leaf aggregators (WH), both serverful, 8 trainers training
//! ResNet-152.

use crate::report::format_table;
use lifl_sim::config::ClusterConfig;
use lifl_sim::no_hierarchy_profile;
use lifl_sim::platform::{LiflPlatform, PlatformProfile, RoundSpec};
use lifl_simcore::Gantt;
use lifl_types::{ModelKind, SimTime};
use serde::Serialize;

/// The Fig. 4 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Result {
    /// Per-round completion time without hierarchy (NH).
    pub nh_round_seconds: f64,
    /// Per-round completion time with hierarchy (WH) on the serverful data plane.
    pub wh_round_seconds: f64,
    /// NH task timeline.
    #[serde(skip)]
    pub nh_timeline: Gantt,
    /// WH task timeline.
    #[serde(skip)]
    pub wh_timeline: Gantt,
}

fn trainer_arrivals() -> Vec<SimTime> {
    // Eight trainers on remote nodes finish local training and upload their
    // ResNet-152 updates over a window of the round (§4.1).
    (0..8)
        .map(|i| SimTime::from_secs(20.0 + i as f64 * 2.5))
        .collect()
}

/// Runs the Fig. 4 experiment.
pub fn run() -> Fig4Result {
    let spec = RoundSpec::new(ModelKind::ResNet152, trainer_arrivals());

    let mut nh = LiflPlatform::with_profile(no_hierarchy_profile(ClusterConfig::default()));
    let nh_report = nh.run_round(&spec);

    let wh_cluster = ClusterConfig {
        aggregation_nodes: 1,
        ..ClusterConfig::default()
    };
    let wh_profile = PlatformProfile {
        // Hierarchical but on the serverful (kernel gRPC) data plane.
        ..PlatformProfile::serverful(wh_cluster)
    };
    let mut wh = LiflPlatform::with_profile(wh_profile);
    let wh_report = wh.run_round(&spec);

    Fig4Result {
        nh_round_seconds: nh_report.eval_finished.as_secs(),
        wh_round_seconds: wh_report.eval_finished.as_secs(),
        nh_timeline: nh_report.gantt,
        wh_timeline: wh_report.gantt,
    }
}

/// Formats the result.
pub fn format(result: &Fig4Result) -> String {
    let mut out =
        String::from("Fig. 4: hierarchical aggregation on a kernel-networking data plane\n");
    out.push_str(&format_table(
        &["setup", "round completion (s)"],
        &[
            vec![
                "NH (no hierarchy)".to_string(),
                format!("{:.1}", result.nh_round_seconds),
            ],
            vec![
                "WH (with hierarchy)".to_string(),
                format!("{:.1}", result.wh_round_seconds),
            ],
        ],
    ));
    out.push_str("\nNH timeline:\n");
    out.push_str(&result.nh_timeline.render_ascii(72));
    out.push_str("\nWH timeline:\n");
    out.push_str(&result.wh_timeline.render_ascii(72));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_alone_barely_helps_on_kernel_networking() {
        // The paper's point: WH ~57 s vs NH ~59.8 s — no significant win
        // without a better data plane.
        let result = run();
        assert!(result.wh_round_seconds <= result.nh_round_seconds * 1.05);
        let improvement = result.nh_round_seconds / result.wh_round_seconds;
        assert!(
            improvement < 1.6,
            "hierarchy alone should not give a large speedup: {improvement:.2}x"
        );
        assert!(result.nh_round_seconds > 30.0);
        let text = format(&result);
        assert!(text.contains("NH"));
        assert!(text.contains("WH"));
    }
}
