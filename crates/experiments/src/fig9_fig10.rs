//! Figures 9 and 10: end-to-end FL workloads.
//!
//! Fig. 9: time-to-accuracy and cost-to-accuracy for SF, SL and LIFL on the
//! ResNet-18 (120 active mobile clients) and ResNet-152 (15 always-on server
//! clients) workloads. Fig. 10: time series of update arrival rate, active
//! aggregators and per-round CPU cost for the same runs.

use crate::report::format_table;
use lifl_core::cluster::ClusterBuilder;
use lifl_core::session::{SessionBuilder, Update};
use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::DenseModel;
use lifl_sim::config::{ClusterConfig, LiflConfig};
use lifl_sim::platform::{LiflPlatform, PlatformProfile};
use lifl_sim::{
    serverful_with_codec, serverless_with_codec, WorkloadDriver, WorkloadOutcome, WorkloadSetup,
};
use lifl_types::{ClientId, CodecKind, ModelKind, Topology};
use serde::Serialize;

/// Summary of one (workload, system) run.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadSummary {
    /// Workload model.
    pub model: String,
    /// System label.
    pub system: String,
    /// Wire codec every update travelled with.
    pub codec: String,
    /// Wall-clock hours to the target accuracy (None if never reached).
    pub time_to_accuracy_h: Option<f64>,
    /// CPU hours to the target accuracy (None if never reached).
    pub cpu_to_accuracy_h: Option<f64>,
    /// Final accuracy after all rounds.
    pub final_accuracy: f64,
    /// Total simulated wall-clock hours.
    pub total_wall_h: f64,
    /// Total aggregation-service CPU hours.
    pub total_cpu_h: f64,
}

/// The full Fig. 9 / Fig. 10 result for one workload.
#[derive(Debug)]
pub struct WorkloadComparison {
    /// The target accuracy used for the "time to accuracy" headline.
    pub target_accuracy: f64,
    /// Summary per system.
    pub summaries: Vec<WorkloadSummary>,
    /// Full curves per system (for Fig. 10).
    pub outcomes: Vec<WorkloadOutcome>,
}

/// Runs one workload (ResNet-18 or ResNet-152 setup) on SF, SL and LIFL with
/// the default lossless codec.
///
/// `rounds` controls simulation length; `target_accuracy` is the accuracy
/// level the headline numbers are reported at (the paper uses 70% on FEMNIST;
/// the synthetic task converges to a different absolute scale, so callers pick
/// a level both systems reach, keeping the comparison meaningful).
pub fn run_workload(model: ModelKind, rounds: usize, target_accuracy: f64) -> WorkloadComparison {
    run_workload_with_codec(model, rounds, target_accuracy, CodecKind::Identity)
}

/// [`run_workload`] with every client update travelling `codec` — both at
/// the algorithm level (error-feedback encoding in the FL driver) and at the
/// system level (every baseline's transfer costs priced off the encoded
/// bytes), so the time-to-accuracy curves expose codec × system
/// interactions.
pub fn run_workload_with_codec(
    model: ModelKind,
    rounds: usize,
    target_accuracy: f64,
    codec: CodecKind,
) -> WorkloadComparison {
    let setup = match model {
        ModelKind::ResNet152 => WorkloadSetup::resnet152(rounds),
        _ => WorkloadSetup::resnet18(rounds),
    }
    .with_codec(codec);
    let driver = WorkloadDriver::new(setup.clone());
    let cluster = ClusterConfig::default();

    let mut lifl = LiflPlatform::with_profile(
        PlatformProfile::lifl(cluster.clone(), &LiflConfig::default()).with_codec(codec),
    );
    let mut sf = serverful_with_codec(cluster.clone(), codec);
    let mut sl = serverless_with_codec(cluster, codec);

    let outcomes = vec![
        driver.run(&mut sf),
        driver.run(&mut sl),
        driver.run(&mut lifl),
    ];
    let summaries = outcomes
        .iter()
        .map(|o| WorkloadSummary {
            model: setup.model.to_string(),
            system: o.system.clone(),
            codec: codec.label(),
            time_to_accuracy_h: o.time_to_accuracy_hours(target_accuracy),
            cpu_to_accuracy_h: o.cpu_to_accuracy_hours(target_accuracy),
            final_accuracy: o.final_accuracy,
            total_wall_h: o.total_wall.as_hours(),
            total_cpu_h: o.total_cpu.as_hours(),
        })
        .collect();
    WorkloadComparison {
        target_accuracy,
        summaries,
        outcomes,
    }
}

/// The ROADMAP codec × baseline sweep: runs the workload once per codec of
/// the ablation set, on all three systems, so time-to-accuracy curves show
/// codec × system interactions (quantization shortens every system's rounds,
/// but the broker-bound SL baseline gains the most wall-clock, while the
/// accuracy cost is shared).
pub fn codec_sweep(
    model: ModelKind,
    rounds: usize,
    target_accuracy: f64,
) -> Vec<(CodecKind, WorkloadComparison)> {
    CodecKind::ablation_set()
        .into_iter()
        .map(|codec| {
            (
                codec,
                run_workload_with_codec(model, rounds, target_accuracy, codec),
            )
        })
        .collect()
}

/// Formats the codec × system sweep as one table.
pub fn format_codec_sweep(sweep: &[(CodecKind, WorkloadComparison)]) -> String {
    let fmt_opt = |v: Option<f64>| {
        v.map(|x| format!("{x:.2}"))
            .unwrap_or_else(|| "-".to_string())
    };
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .flat_map(|(_, comparison)| &comparison.summaries)
        .map(|s| {
            vec![
                s.codec.clone(),
                s.system.clone(),
                fmt_opt(s.time_to_accuracy_h),
                fmt_opt(s.cpu_to_accuracy_h),
                format!("{:.1}", s.final_accuracy),
                format!("{:.2}", s.total_wall_h),
                format!("{:.2}", s.total_cpu_h),
            ]
        })
        .collect();
    let target = sweep.first().map(|(_, c)| c.target_accuracy).unwrap_or(0.0);
    let mut out = format!("Fig. 9 codec sweep: time/cost to {target:.0}% accuracy per codec\n");
    out.push_str(&format_table(
        &[
            "codec",
            "system",
            "TTA (h)",
            "CPU-to-acc (h)",
            "final acc (%)",
            "wall (h)",
            "CPU (h)",
        ],
        &rows,
    ));
    out
}

/// One row of the single-node-vs-cluster sweep: the same aggregation round
/// driven by one in-process session versus a federation of N sessions
/// composed gateway-to-gateway over `Update::RemoteBytes`.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterSweepRow {
    /// Wire codec every update (and every hop) travelled with.
    pub codec: String,
    /// Machines the global tree was split across (1 = everything on the
    /// top-hosting node).
    pub nodes: usize,
    /// The global tree.
    pub topology: String,
    /// Payload bytes that crossed machines during the round.
    pub inter_node_wire_bytes: u64,
    /// Modelled wall-clock of the *remote* hops serialised through the top
    /// gateway (the top-hosting node's shared-memory hop is concurrent and
    /// excluded, matching the simulator's top-stage rule).
    pub hop_latency_s: f64,
    /// Whether the federated aggregate was bit-exact with the single-session
    /// drive (it always must be; recorded so the sweep output proves it).
    pub bit_exact: bool,
}

/// The ROADMAP single-node-vs-cluster sweep: drives the *same* round — same
/// updates, same global tree — through one in-process `Session` and through
/// an N-node `Cluster`, for every ablation codec and every requested node
/// count. The aggregate never changes (bit-exact by construction); what the
/// sweep exposes is the transport bill of federating: how many bytes cross
/// machines and what the hops cost, and how hard quantized wire forms cut
/// both.
pub fn cluster_sweep(dim: usize, node_counts: &[usize]) -> Vec<ClusterSweepRow> {
    let mut rows = Vec::new();
    for &nodes in node_counts {
        let nodes = nodes.max(1);
        // Each machine drives a [2, 2] subtree; the top fan-in is the
        // machine count.
        let topology = Topology::new(vec![2, 2, nodes]).expect("sweep topology");
        let updates: Vec<ModelUpdate> = (0..topology.total_updates())
            .map(|i| {
                let values: Vec<f32> = (0..dim)
                    .map(|d| ((i * dim + d * 11) % 103) as f32 * 0.019 - 0.95)
                    .collect();
                ModelUpdate::from_client(
                    ClientId::new(i as u64),
                    DenseModel::from_vec(values),
                    (i + 1) as u64,
                )
            })
            .collect();
        for codec in CodecKind::ablation_set() {
            let mut session = SessionBuilder::new()
                .topology(topology.clone())
                .codec(codec)
                .build()
                .expect("session");
            session
                .ingest_all(updates.iter().cloned().map(Update::Dense))
                .expect("session ingest");
            let single = session.drive().expect("session drive");

            let mut cluster = ClusterBuilder::new()
                .topology(topology.clone())
                .codec(codec)
                .build()
                .expect("cluster");
            cluster
                .ingest_all(updates.iter().cloned().map(Update::Dense))
                .expect("cluster ingest");
            let federated = cluster.drive().expect("cluster drive");

            let bit_exact = single.update.samples == federated.update.samples
                && single
                    .update
                    .model
                    .as_slice()
                    .iter()
                    .zip(federated.update.model.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            rows.push(ClusterSweepRow {
                codec: codec.label(),
                nodes,
                topology: topology.to_string(),
                inter_node_wire_bytes: federated.inter_node_wire_bytes(),
                hop_latency_s: federated.serialized_hop_latency().as_secs(),
                bit_exact,
            });
        }
    }
    rows
}

/// Formats the single-node-vs-cluster sweep as one table.
pub fn format_cluster_sweep(rows: &[ClusterSweepRow]) -> String {
    let mut out =
        String::from("Fig. 9 cluster sweep: single session vs gateway-to-gateway federation\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.codec.clone(),
                r.nodes.to_string(),
                r.topology.clone(),
                r.inter_node_wire_bytes.to_string(),
                format!("{:.4}", r.hop_latency_s),
                if r.bit_exact { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&format_table(
        &[
            "codec",
            "nodes",
            "global tree",
            "inter-node B",
            "hop lat (s)",
            "bit-exact",
        ],
        &table,
    ));
    out
}

/// Formats the Fig. 9 headline table for one workload.
pub fn format(comparison: &WorkloadComparison) -> String {
    let fmt_opt = |v: Option<f64>| {
        v.map(|x| format!("{x:.2}"))
            .unwrap_or_else(|| "-".to_string())
    };
    let rows: Vec<Vec<String>> = comparison
        .summaries
        .iter()
        .map(|s| {
            vec![
                s.model.clone(),
                s.system.clone(),
                fmt_opt(s.time_to_accuracy_h),
                fmt_opt(s.cpu_to_accuracy_h),
                format!("{:.1}", s.final_accuracy),
                format!("{:.2}", s.total_wall_h),
                format!("{:.2}", s.total_cpu_h),
            ]
        })
        .collect();
    let mut out = format!(
        "Fig. 9: time/cost to {:.0}% accuracy (synthetic workload; see DESIGN.md)\n",
        comparison.target_accuracy
    );
    out.push_str(&format_table(
        &[
            "model",
            "system",
            "TTA (h)",
            "CPU-to-acc (h)",
            "final acc (%)",
            "wall (h)",
            "CPU (h)",
        ],
        &rows,
    ));
    out
}

/// Formats the Fig. 10 time-series summary for one workload.
pub fn format_timeseries(comparison: &WorkloadComparison) -> String {
    let mut out = String::from("Fig. 10: per-round time series (last sample per system)\n");
    let rows: Vec<Vec<String>> = comparison
        .outcomes
        .iter()
        .map(|o| {
            let mean_rate = if o.arrival_rate.is_empty() {
                0.0
            } else {
                o.arrival_rate.points.iter().map(|(_, v)| v).sum::<f64>()
                    / o.arrival_rate.len() as f64
            };
            let mean_active = if o.active_aggregators.is_empty() {
                0.0
            } else {
                o.active_aggregators
                    .points
                    .iter()
                    .map(|(_, v)| v)
                    .sum::<f64>()
                    / o.active_aggregators.len() as f64
            };
            let mean_cpu = if o.cpu_per_round.is_empty() {
                0.0
            } else {
                o.cpu_per_round.points.iter().map(|(_, v)| v).sum::<f64>()
                    / o.cpu_per_round.len() as f64
            };
            vec![
                o.system.clone(),
                format!("{mean_rate:.1}"),
                format!("{mean_active:.1}"),
                format!("{mean_cpu:.1}"),
            ]
        })
        .collect();
    out.push_str(&format_table(
        &["system", "arrivals/min", "avg active agg", "CPU s/round"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifl_beats_sl_and_sf_on_small_run() {
        let comparison = run_workload(ModelKind::ResNet18, 6, 30.0);
        assert_eq!(comparison.summaries.len(), 3);
        let find = |label: &str| {
            comparison
                .summaries
                .iter()
                .find(|s| s.system == label)
                .unwrap()
                .clone()
        };
        let lifl = find("LIFL");
        let sl = find("SL");
        let sf = find("SF");
        // Fig. 9 shape: LIFL's total wall and CPU are lowest; SL the most expensive CPU.
        assert!(lifl.total_wall_h < sl.total_wall_h);
        assert!(lifl.total_cpu_h < sf.total_cpu_h);
        assert!(lifl.total_cpu_h < sl.total_cpu_h);
        let text = format(&comparison);
        assert!(text.contains("LIFL"));
        let ts = format_timeseries(&comparison);
        assert!(ts.contains("arrivals/min"));
    }

    #[test]
    fn cluster_sweep_is_bit_exact_and_prices_federation() {
        let rows = cluster_sweep(96, &[1, 2, 4]);
        assert_eq!(rows.len(), 3 * 4, "node counts x ablation codecs");
        for row in &rows {
            assert!(row.bit_exact, "{}/{} nodes diverged", row.codec, row.nodes);
        }
        // A single-node "cluster" never crosses machines.
        assert!(rows
            .iter()
            .filter(|r| r.nodes == 1)
            .all(|r| r.inter_node_wire_bytes == 0));
        // More machines cross more bytes; stronger codecs cross fewer.
        let bytes = |codec: &str, nodes: usize| {
            rows.iter()
                .find(|r| r.codec == codec && r.nodes == nodes)
                .unwrap()
                .inter_node_wire_bytes
        };
        assert!(bytes("identity", 4) > bytes("identity", 2));
        assert!(bytes("identity", 4) > 3 * bytes("uniform8", 4));
        let text = format_cluster_sweep(&rows);
        assert!(text.contains("bit-exact"));
        assert!(text.contains("uniform8"));
    }

    #[test]
    fn codec_sweep_exposes_codec_x_system_interactions() {
        let sweep = codec_sweep(ModelKind::ResNet18, 4, 30.0);
        assert_eq!(sweep.len(), 4, "one comparison per ablation codec");
        let wall = |codec: CodecKind, system: &str| {
            sweep
                .iter()
                .find(|(c, _)| *c == codec)
                .unwrap()
                .1
                .summaries
                .iter()
                .find(|s| s.system == system)
                .unwrap()
                .total_wall_h
        };
        for system in ["LIFL", "SF", "SL"] {
            // Quantized transfers never slow a system's rounds down.
            assert!(
                wall(CodecKind::Uniform8, system) <= wall(CodecKind::Identity, system) + 1e-9,
                "{system}: uniform8 must not be slower than identity"
            );
            // Every codec's run still learns on every system.
            for (codec, comparison) in &sweep {
                let summary = comparison
                    .summaries
                    .iter()
                    .find(|s| s.system == system)
                    .unwrap();
                assert_eq!(summary.codec, codec.label());
                assert!(
                    summary.final_accuracy > 20.0,
                    "{system}/{codec} never learned: {:.1}%",
                    summary.final_accuracy
                );
            }
        }
        let text = format_codec_sweep(&sweep);
        assert!(text.contains("uniform8"));
        assert!(text.contains("codec"));
    }
}
