//! Figure 7: data-plane improvement for hierarchical aggregation.
//!
//! (a) latency and (b) CPU of a single intra-node model-update transfer under
//! SF, SL (with sidecar/broker breakdown) and LIFL for ResNet-18/34/152;
//! (c) LIFL's aggregation timeline for the §4.1 hierarchy (1 top + 4 leaves,
//! 8 trainers, ResNet-152).

use crate::report::format_table;
use lifl_dataplane::{CostModel, DataPlaneKind};
use lifl_sim::config::{ClusterConfig, LiflConfig};
use lifl_sim::platform::{LiflPlatform, RoundSpec};
use lifl_simcore::Gantt;
use lifl_types::{ModelKind, SimTime};
use serde::Serialize;

/// One row of Fig. 7(a)/(b).
#[derive(Debug, Clone, Serialize)]
pub struct TransferRow {
    /// Model name.
    pub model: String,
    /// System label.
    pub system: String,
    /// Transfer latency in seconds.
    pub latency_s: f64,
    /// CPU in giga-cycles.
    pub cpu_gcycles: f64,
    /// Share of the latency attributed to the sidecar (SL only).
    pub sidecar_share: f64,
    /// Share of the latency attributed to the message broker (SL only).
    pub broker_share: f64,
}

/// The full Fig. 7 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Result {
    /// Rows of Fig. 7(a)/(b).
    pub transfers: Vec<TransferRow>,
    /// LIFL's per-round completion time in the Fig. 7(c) setup.
    pub lifl_round_seconds: f64,
    /// Rendered timeline (ASCII stand-in for Fig. 7(c)).
    #[serde(skip)]
    pub timeline: Gantt,
}

/// Runs the Fig. 7 experiments.
pub fn run() -> Fig7Result {
    let cost = CostModel::paper_calibrated();
    let mut transfers = Vec::new();
    for model in ModelKind::paper_models() {
        let bytes = model.update_bytes();
        for (label, plane) in [
            ("LIFL", DataPlaneKind::LiflSharedMemory),
            ("SF", DataPlaneKind::ServerfulGrpc),
            ("SL", DataPlaneKind::ServerlessBrokerSidecar),
        ] {
            let pipeline = plane.intra_node_pipeline(bytes, &cost.models);
            let total = pipeline.latency().as_secs();
            transfers.push(TransferRow {
                model: model.to_string(),
                system: label.to_string(),
                latency_s: total,
                cpu_gcycles: pipeline.cpu().as_giga(),
                sidecar_share: pipeline.latency_of("sidecar").as_secs() / total.max(1e-12),
                broker_share: pipeline.latency_of("broker").as_secs() / total.max(1e-12),
            });
        }
    }

    // Fig. 7(c): the §4.1 hierarchy — 8 trainers, 1 top + 4 leaves on one node.
    let cluster = ClusterConfig {
        aggregation_nodes: 1,
        ..ClusterConfig::default()
    };
    let mut platform = LiflPlatform::new(cluster, LiflConfig::default());
    // Trainer arrivals spread over the round as their uploads complete.
    let arrivals: Vec<SimTime> = (0..8)
        .map(|i| SimTime::from_secs(20.0 + i as f64 * 2.5))
        .collect();
    let report = platform.run_round(&RoundSpec::new(ModelKind::ResNet152, arrivals));
    Fig7Result {
        transfers,
        lifl_round_seconds: report.eval_finished.as_secs(),
        timeline: report.gantt,
    }
}

/// Formats the result as the paper's tables plus an ASCII timeline.
pub fn format(result: &Fig7Result) -> String {
    let rows: Vec<Vec<String>> = result
        .transfers
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.system.clone(),
                format!("{:.2}", r.latency_s),
                format!("{:.2}", r.cpu_gcycles),
                format!("{:.0}%", r.sidecar_share * 100.0),
                format!("{:.0}%", r.broker_share * 100.0),
            ]
        })
        .collect();
    let mut out = String::from("Fig. 7(a,b): single intra-node model-update transfer\n");
    out.push_str(&format_table(
        &[
            "model",
            "system",
            "latency (s)",
            "CPU (Gcycles)",
            "+SC",
            "+MB",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "\nFig. 7(c): LIFL hierarchical aggregation round completes in {:.1} s\n",
        result.lifl_round_seconds
    ));
    out.push_str(&result.timeline.render_ascii(72));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_ratios() {
        let result = run();
        assert_eq!(result.transfers.len(), 9);
        let get = |model: &str, system: &str| {
            result
                .transfers
                .iter()
                .find(|r| r.model == model && r.system == system)
                .unwrap()
                .clone()
        };
        let lifl = get("ResNet-152", "LIFL");
        let sf = get("ResNet-152", "SF");
        let sl = get("ResNet-152", "SL");
        // Headline claims: 3x vs serverful, ~5.8x vs serverless (§1).
        assert!((0.7..0.85).contains(&lifl.latency_s));
        assert!((2.0..4.5).contains(&(sf.latency_s / lifl.latency_s)));
        assert!((4.5..8.0).contains(&(sl.latency_s / lifl.latency_s)));
        assert!(sl.cpu_gcycles > sf.cpu_gcycles);
        assert!(sf.cpu_gcycles > lifl.cpu_gcycles);
        // SL's breakdown marks sidecar and broker contributions.
        assert!(sl.sidecar_share > 0.2);
        assert!(sl.broker_share > 0.1);
        // Fig. 7(c): LIFL's round is faster than the ~57 s serverful round of Fig. 4.
        assert!(result.lifl_round_seconds < 57.0);
        let text = format(&result);
        assert!(text.contains("ResNet-152"));
    }
}
