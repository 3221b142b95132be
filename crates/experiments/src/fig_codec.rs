//! Codec ablation: bytes-on-wire and time-to-accuracy across update codecs.
//!
//! Sweeps the update codec (`identity`, `uniform8`, `uniform4`, `topk50`)
//! against the three transport substrates (LIFL shared memory, serverful
//! gRPC, serverless broker/sidecar) on the default heavy workload —
//! 60 simultaneous ResNet-152 updates, the Fig. 8 high-load point — and pairs
//! that with an algorithm-level time-to-accuracy run where every client
//! update actually travels through the codec (with per-client error
//! feedback). Together the two sweeps expose the trade-off the codec
//! subsystem exists for: quantization cuts wire bytes ~4–8x and shortens
//! rounds, at a small accuracy cost that error feedback keeps bounded.

use crate::report::format_table;
use lifl_core::training::{TrainingConfig, TrainingDriver};
use lifl_fl::client::ClientAvailability;
use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
use lifl_fl::population::{Population, PopulationConfig};
use lifl_fl::trainer::TrainerConfig;
use lifl_fl::FlatFedAvg;
use lifl_sim::config::{ClusterConfig, LiflConfig};
use lifl_sim::no_hierarchy_profile;
use lifl_sim::platform::{LiflPlatform, PlatformProfile, RoundSpec};
use lifl_simcore::SimRng;
use lifl_types::{CodecKind, ModelKind, SimTime};
use serde::Serialize;

/// Updates in the default workload round (the Fig. 8 high-load point).
const ROUND_UPDATES: usize = 60;
/// The default workload model.
const MODEL: ModelKind = ModelKind::ResNet152;

/// One (codec, transport) cell of the system-level sweep.
#[derive(Debug, Clone, Serialize)]
pub struct CodecTransportRow {
    /// Codec label.
    pub codec: String,
    /// Transport / system label.
    pub transport: String,
    /// Bytes that crossed node boundaries during the round.
    pub wire_bytes: u64,
    /// Wire-byte reduction versus `identity` on the same transport.
    pub bytes_reduction: f64,
    /// Aggregation completion time in seconds.
    pub act_seconds: f64,
    /// Aggregation-service CPU seconds (includes codec passes).
    pub cpu_seconds: f64,
}

/// One codec of the algorithm-level time-to-accuracy sweep.
#[derive(Debug, Clone, Serialize)]
pub struct CodecTtaRow {
    /// Codec label.
    pub codec: String,
    /// Rounds until the target accuracy was reached (None = never).
    pub rounds_to_target: Option<usize>,
    /// Simulated seconds per round on the LIFL transport with this codec.
    pub seconds_per_round: f64,
    /// Wall-clock seconds to the target accuracy (rounds x round time).
    pub time_to_target_s: Option<f64>,
    /// Accuracy after the full run.
    pub final_accuracy: f64,
}

/// One shard count of the sharded-fold sweep (LIFL transport, `uniform8`).
#[derive(Debug, Clone, Serialize)]
pub struct ShardRow {
    /// Configured `aggregation_shards`.
    pub shards: u32,
    /// Aggregation completion time in seconds.
    pub act_seconds: f64,
    /// Speedup versus the sequential (1-shard) fold.
    pub speedup: f64,
}

/// The full codec-ablation result.
#[derive(Debug, Clone, Serialize)]
pub struct FigCodecResult {
    /// Codec x transport sweep on the default workload.
    pub transport_rows: Vec<CodecTransportRow>,
    /// Sharded-fold sweep on the LIFL transport under `uniform8`.
    pub shard_rows: Vec<ShardRow>,
    /// Time-to-accuracy sweep on the LIFL transport.
    pub tta_rows: Vec<CodecTtaRow>,
    /// Headline: wire-byte reduction of `uniform8` vs `identity` on LIFL.
    pub uniform8_reduction: f64,
    /// Target accuracy the TTA rows report against.
    pub target_accuracy: f64,
}

fn transport_profiles(cluster: &ClusterConfig) -> Vec<(String, PlatformProfile)> {
    vec![
        (
            "LIFL/shm".to_string(),
            PlatformProfile::lifl(cluster.clone(), &LiflConfig::default()),
        ),
        (
            "SF/gRPC".to_string(),
            PlatformProfile::serverful(cluster.clone()),
        ),
        (
            "SL/broker".to_string(),
            PlatformProfile::serverless(cluster.clone()),
        ),
        ("NH/gRPC".to_string(), no_hierarchy_profile(cluster.clone())),
    ]
}

fn tta_driver(codec: CodecKind, rounds: usize) -> (TrainingDriver<FlatFedAvg>, SimRng) {
    let mut rng = SimRng::from_seed(0xF16C0DEC);
    let dataset = FederatedDataset::generate(
        DatasetConfig {
            num_clients: 30,
            num_features: 12,
            num_classes: 6,
            mean_samples_per_client: 40,
            dirichlet_alpha: 0.5,
            test_samples: 300,
            noise_std: 0.4,
        },
        &mut rng,
    );
    let population = Population::generate(
        PopulationConfig {
            total_clients: 30,
            active_per_round: 10,
            availability: ClientAvailability::AlwaysOn,
            mean_samples: 40,
            speed_spread: 0.3,
        },
        &mut rng,
    );
    let driver = TrainingDriver::new(
        FlatFedAvg::new(population.active_per_round(), codec),
        dataset,
        population,
        TrainingConfig {
            trainer: TrainerConfig {
                batch_size: 16,
                learning_rate: 0.05,
                local_epochs: 2,
            },
            rounds,
            ..TrainingConfig::default()
        },
    );
    (driver, rng)
}

/// Runs the codec x transport sweep and the time-to-accuracy sweep.
pub fn run() -> FigCodecResult {
    let cluster = ClusterConfig::default();
    let spec = RoundSpec::simultaneous(MODEL, ROUND_UPDATES, SimTime::ZERO);

    // --- System level: codec x transport on the default workload. ---
    let mut transport_rows = Vec::new();
    let mut uniform8_reduction = 0.0;
    for (transport, profile) in transport_profiles(&cluster) {
        let mut identity_bytes = 0u64;
        for codec in CodecKind::ablation_set() {
            let mut platform = LiflPlatform::with_profile(profile.clone().with_codec(codec));
            let report = platform.run_round(&spec);
            let wire_bytes = report.metrics.inter_node_bytes;
            if codec == CodecKind::Identity {
                identity_bytes = wire_bytes;
            }
            let bytes_reduction = identity_bytes as f64 / wire_bytes.max(1) as f64;
            if codec == CodecKind::Uniform8 && transport == "LIFL/shm" {
                uniform8_reduction = bytes_reduction;
            }
            transport_rows.push(CodecTransportRow {
                codec: codec.label(),
                transport: transport.clone(),
                wire_bytes,
                bytes_reduction,
                act_seconds: report.metrics.aggregation_completion_time.as_secs(),
                cpu_seconds: report.metrics.cpu_time.as_secs(),
            });
        }
    }

    // --- System level: sharded fold sweep (uniform8 on LIFL). ---
    let mut shard_rows = Vec::new();
    let mut sequential_act = 0.0;
    for shards in [1u32, 2, 4, 8, 16] {
        let config = LiflConfig {
            codec: CodecKind::Uniform8,
            aggregation_shards: shards,
            ..LiflConfig::default()
        };
        let mut platform = LiflPlatform::new(cluster.clone(), config);
        let act = platform
            .run_round(&spec)
            .metrics
            .aggregation_completion_time
            .as_secs();
        if shards == 1 {
            sequential_act = act;
        }
        shard_rows.push(ShardRow {
            shards,
            act_seconds: act,
            speedup: sequential_act / act.max(f64::EPSILON),
        });
    }

    // --- Algorithm level: time-to-accuracy through each codec. ---
    let rounds = 20;
    // Target the paper-style "both reach it" level: a band the Identity run
    // comfortably crosses so quantized runs can be compared against it.
    let (mut probe, mut probe_rng) = tta_driver(CodecKind::Identity, rounds);
    probe.run_all(&mut probe_rng).expect("flat rounds drive");
    let identity_final = probe.evaluate();
    let target_accuracy = (identity_final - 8.0).max(30.0);

    let mut tta_rows = Vec::new();
    for codec in CodecKind::ablation_set() {
        let mut platform = LiflPlatform::with_profile(
            PlatformProfile::lifl(cluster.clone(), &LiflConfig::default()).with_codec(codec),
        );
        let seconds_per_round = platform
            .run_round(&spec)
            .metrics
            .aggregation_completion_time
            .as_secs();
        let (mut driver, mut rng) = tta_driver(codec, rounds);
        driver.run_all(&mut rng).expect("flat rounds drive");
        let rounds_to_target = driver
            .accuracy_curve()
            .iter()
            .find(|(_, acc)| *acc >= target_accuracy)
            .map(|(round, _)| *round);
        tta_rows.push(CodecTtaRow {
            codec: codec.label(),
            rounds_to_target,
            seconds_per_round,
            time_to_target_s: rounds_to_target.map(|r| r as f64 * seconds_per_round),
            final_accuracy: driver.evaluate(),
        });
    }

    FigCodecResult {
        transport_rows,
        shard_rows,
        tta_rows,
        uniform8_reduction,
        target_accuracy,
    }
}

/// Formats the result as two tables.
pub fn format(result: &FigCodecResult) -> String {
    let transport: Vec<Vec<String>> = result
        .transport_rows
        .iter()
        .map(|r| {
            vec![
                r.transport.clone(),
                r.codec.clone(),
                format!("{:.1}", r.wire_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.2}x", r.bytes_reduction),
                format!("{:.1}", r.act_seconds),
                format!("{:.1}", r.cpu_seconds),
            ]
        })
        .collect();
    let mut out = format!(
        "Codec ablation: {} simultaneous {} updates\n",
        ROUND_UPDATES, MODEL,
    );
    out.push_str(&format_table(
        &[
            "transport",
            "codec",
            "wire (MiB)",
            "reduction",
            "ACT (s)",
            "CPU (s)",
        ],
        &transport,
    ));
    out.push_str(&format!(
        "\nHeadline: uniform8 moves {:.2}x fewer bytes than identity on LIFL\n\n",
        result.uniform8_reduction
    ));
    let shard: Vec<Vec<String>> = result
        .shard_rows
        .iter()
        .map(|r| {
            vec![
                r.shards.to_string(),
                format!("{:.1}", r.act_seconds),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    out.push_str("Sharded fold sweep (uniform8, LIFL transport)\n");
    out.push_str(&format_table(&["shards", "ACT (s)", "speedup"], &shard));
    out.push('\n');
    let tta: Vec<Vec<String>> = result
        .tta_rows
        .iter()
        .map(|r| {
            vec![
                r.codec.clone(),
                r.rounds_to_target
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                format!("{:.1}", r.seconds_per_round),
                r.time_to_target_s
                    .map(|v| format!("{v:.0}"))
                    .unwrap_or_else(|| "-".to_string()),
                format!("{:.1}%", r.final_accuracy),
            ]
        })
        .collect();
    out.push_str(&format!(
        "Time to {:.0}% accuracy through each codec (LIFL transport)\n",
        result.target_accuracy
    ));
    out.push_str(&format_table(
        &["codec", "rounds", "s/round", "TTA (s)", "final acc"],
        &tta,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform8_cuts_wire_bytes_at_least_4x() {
        let result = run();
        assert!(
            result.uniform8_reduction >= 4.0,
            "uniform8 reduction only {:.2}x",
            result.uniform8_reduction
        );
        // 4 transports x 4 codecs.
        assert_eq!(result.transport_rows.len(), 16);
        // Within every transport, stronger codecs strictly shrink the wire.
        for chunk in result.transport_rows.chunks(4) {
            for pair in chunk.windows(2) {
                assert!(
                    pair[0].wire_bytes > pair[1].wire_bytes,
                    "{}: {} !> {}",
                    pair[0].transport,
                    pair[0].wire_bytes,
                    pair[1].wire_bytes
                );
            }
        }
    }

    #[test]
    fn shard_sweep_speeds_up_monotonically() {
        let result = run();
        assert_eq!(result.shard_rows.len(), 5);
        assert_eq!(result.shard_rows[0].shards, 1);
        assert!((result.shard_rows[0].speedup - 1.0).abs() < 1e-9);
        for pair in result.shard_rows.windows(2) {
            assert!(
                pair[1].act_seconds <= pair[0].act_seconds,
                "{} shards slower than {}",
                pair[1].shards,
                pair[0].shards
            );
        }
        let at4 = &result.shard_rows[2];
        assert!(at4.speedup > 1.0, "4 shards gave {}x", at4.speedup);
    }

    #[test]
    fn quantized_rounds_are_not_slower_on_hierarchical_transports() {
        let result = run();
        for chunk in result.transport_rows.chunks(4) {
            // The flat no-hierarchy baseline serialises every fold through
            // one aggregator, so it is compute-bound and the per-update
            // decode pass can outweigh the transfer savings there — which is
            // itself part of the ablation's story.
            if chunk[0].transport.starts_with("NH") {
                continue;
            }
            let identity = &chunk[0];
            for row in &chunk[1..] {
                assert!(
                    row.act_seconds <= identity.act_seconds + 1e-9,
                    "{} {} slower than identity",
                    row.transport,
                    row.codec
                );
            }
        }
    }

    #[test]
    fn every_codec_still_reaches_the_target() {
        let result = run();
        assert_eq!(result.tta_rows.len(), 4);
        for row in &result.tta_rows {
            assert!(
                row.rounds_to_target.is_some(),
                "{} never reached {:.0}%",
                row.codec,
                result.target_accuracy
            );
        }
        // Quantized rounds are faster, so uniform8 TTA beats identity.
        let identity = result.tta_rows[0].time_to_target_s.unwrap();
        let uniform8 = result.tta_rows[1].time_to_target_s.unwrap();
        assert!(
            uniform8 < identity * 1.5,
            "uniform8 TTA {uniform8:.0}s vs identity {identity:.0}s"
        );
        let text = format(&result);
        assert!(text.contains("uniform8"));
        assert!(text.contains("TTA"));
    }
}
