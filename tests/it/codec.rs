//! The update-codec tier: proves the quantized data plane equivalent to the
//! seed fold semantics where it must be (Identity bit-exactness), close
//! where it may drift (lossy codecs under error feedback), and cheaper where
//! it promises to be (wire and shared-memory byte counters shrink
//! monotonically Identity → Uniform8 → Uniform4) — all through the unified
//! `Session` API.

use lifl_core::session::{Session, SessionBuilder, SessionReport, Update};
use lifl_fl::aggregate::{fedavg, CumulativeFedAvg, ModelUpdate};
use lifl_fl::DenseModel;
use lifl_sim::platform::{LiflPlatform, RoundSpec};
use lifl_types::{ClientId, ClusterConfig, CodecKind, LiflConfig, ModelKind, SimTime, Topology};

fn updates(n: usize, dim: usize) -> Vec<ModelUpdate> {
    (0..n)
        .map(|i| {
            let values: Vec<f32> = (0..dim)
                .map(|d| ((i * dim + d) % 97) as f32 * 0.021 - 1.0)
                .collect();
            ModelUpdate::from_client(
                ClientId::new(i as u64),
                DenseModel::from_vec(values),
                (i % 5 + 1) as u64,
            )
        })
        .collect()
}

fn session(codec: CodecKind, shards: usize) -> Session {
    SessionBuilder::new()
        .topology(Topology::two_level(4, 2))
        .codec(codec)
        .shards(shards)
        .build()
        .expect("session")
}

fn drive(codec: CodecKind, shards: usize, updates: &[ModelUpdate]) -> SessionReport {
    let mut session = session(codec, shards);
    session
        .ingest_all(updates.iter().cloned().map(Update::Dense))
        .expect("ingest");
    session.drive().expect("drive")
}

/// Acceptance: the `Identity` codec is bit-exact with the seed fold
/// semantics, end to end through gateway, shared memory and the threaded
/// two-level hierarchy. The reference is restated from first principles:
/// update *k* of a round feeds leaf `k % leaves`, each leaf folds its
/// arrivals in arrival order, and the top folds the leaves in leaf order —
/// the same cumulative FedAvg a flat accumulator computes.
#[test]
fn identity_codec_bit_exact_with_pre_codec_path() {
    let updates = updates(8, 64);
    let leaves = 4;
    let mut leaf_folds: Vec<CumulativeFedAvg> =
        (0..leaves).map(|_| CumulativeFedAvg::new(64)).collect();
    for (k, update) in updates.iter().enumerate() {
        leaf_folds[k % leaves].fold(update).expect("leaf fold");
    }
    let mut top = CumulativeFedAvg::new(64);
    for mut leaf in leaf_folds {
        let merged = leaf.finalize().expect("leaf finalize");
        top.fold(&merged).expect("top fold");
    }
    let reference = top.finalize().expect("top finalize");
    let session_report = drive(CodecKind::Identity, 1, &updates);
    assert_eq!(session_report.update.samples, reference.samples);
    for (a, b) in session_report
        .update
        .model
        .as_slice()
        .iter()
        .zip(reference.model.as_slice())
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "identity session diverged from the seed fold semantics: {a} vs {b}"
        );
    }
    // Nothing was stored compressed on the identity path, and every client
    // payload crossed the ingress dense: 8 updates × 64 f32 parameters.
    assert_eq!(session_report.store_stats.encoded_puts, 0);
    assert_eq!(session_report.ingress_wire_bytes, 8 * 64 * 4);
}

/// Every codec's end-to-end aggregate stays within its quantization error of
/// the exact flat FedAvg result.
#[test]
fn every_codec_aggregates_correctly() {
    let updates = updates(8, 64);
    let exact = fedavg(&updates).expect("flat fedavg");
    let max_abs = updates
        .iter()
        .flat_map(|u| u.model.as_slice())
        .fold(0.0f32, |a, v| a.max(v.abs()));
    for codec in CodecKind::ablation_set() {
        let report = drive(codec, 1, &updates);
        assert_eq!(report.update.samples, exact.samples, "{codec}");
        let tolerance = match codec {
            CodecKind::Identity => 1e-6,
            // Client + leaf quantization stages, one step each.
            CodecKind::Uniform8 => 3.0 * max_abs / 127.0,
            CodecKind::Uniform4 => 3.0 * max_abs / 7.0,
            // Top-k drops small coordinates outright; bound by the largest
            // magnitude a dropped coordinate can have.
            CodecKind::TopK { .. } => max_abs,
        };
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(exact.model.as_slice())
        {
            assert!(
                (a - b).abs() <= tolerance,
                "{codec}: |{a} - {b}| > {tolerance}"
            );
        }
    }
}

/// Shared-memory byte counters shrink strictly and monotonically
/// Identity → Uniform8 → Uniform4, measured from the store's own accounting.
#[test]
fn shmem_bytes_shrink_monotonically_with_codec_strength() {
    let updates = updates(8, 256);
    let mut previous: Option<(CodecKind, u64, u64)> = None;
    for codec in [
        CodecKind::Identity,
        CodecKind::Uniform8,
        CodecKind::Uniform4,
    ] {
        let report = drive(codec, 1, &updates);
        // Nothing recycles in this run, so the peak is the real total
        // footprint every payload (client + intermediate) left in the store.
        let stored = report.store_stats.peak_bytes;
        let wire = report.ingress_wire_bytes;
        if let Some((prev_codec, prev_stored, prev_wire)) = previous {
            assert!(
                stored < prev_stored,
                "{codec} stored {stored} !< {prev_codec} stored {prev_stored}"
            );
            assert!(
                wire < prev_wire,
                "{codec} wire {wire} !< {prev_codec} wire {prev_wire}"
            );
        }
        previous = Some((codec, stored, wire));
    }
}

/// Acceptance: on the default workload the platform reports a >= 4x
/// bytes-on-wire reduction for Uniform8 vs Identity, and the counters keep
/// shrinking through Uniform4.
#[test]
fn platform_round_wire_bytes_shrink_at_least_4x_for_uniform8() {
    let spec = RoundSpec::simultaneous(ModelKind::ResNet152, 60, SimTime::ZERO);
    let mut bytes = Vec::new();
    for codec in [
        CodecKind::Identity,
        CodecKind::Uniform8,
        CodecKind::Uniform4,
    ] {
        let config = LiflConfig {
            codec,
            ..LiflConfig::default()
        };
        let mut platform = LiflPlatform::new(ClusterConfig::default(), config);
        let report = platform.run_round(&spec);
        assert_eq!(report.metrics.updates_aggregated, 60, "{codec}");
        bytes.push(report.metrics.inter_node_bytes);
    }
    assert!(
        bytes[0] >= 4 * bytes[1],
        "uniform8 reduction only {:.3}x",
        bytes[0] as f64 / bytes[1] as f64
    );
    assert!(bytes[1] > bytes[2], "uniform4 must shrink below uniform8");
}

/// Acceptance: batch draining split across shards (`aggregation_shards > 1`)
/// is bit-identical to one shard, the station's own thread, through the
/// whole threaded hierarchy, for both the dense and the encoded data plane.
#[test]
fn sharded_hierarchy_is_bit_identical_to_sequential() {
    let updates = updates(8, 4096);
    for codec in [CodecKind::Identity, CodecKind::Uniform8] {
        let sequential = drive(codec, 1, &updates);
        for shards in [2usize, 4] {
            let sharded = drive(codec, shards, &updates);
            assert_eq!(sharded.update.samples, sequential.update.samples);
            for (a, b) in sharded
                .update
                .model
                .as_slice()
                .iter()
                .zip(sequential.update.model.as_slice())
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{codec} with {shards} shards diverged: {a} vs {b}"
                );
            }
        }
    }
}

/// The lossy codecs genuinely compress shared memory (the store's
/// dense-equivalent accounting versus real bytes).
#[test]
fn store_reports_real_savings_for_lossy_codecs() {
    let updates = updates(8, 512);
    for codec in [
        CodecKind::Uniform8,
        CodecKind::Uniform4,
        CodecKind::TopK { permille: 125 },
    ] {
        let report = drive(codec, 1, &updates);
        let stats = report.store_stats;
        assert!(stats.encoded_puts > 0, "{codec} stored nothing compressed");
        assert!(
            stats.bytes_saved() > 0,
            "{codec} saved no bytes: encoded {} vs dense {}",
            stats.encoded_bytes,
            stats.dense_equivalent_bytes
        );
    }
}

/// Regression: one client's shape change costs *that* client its
/// error-feedback residual and nobody else's. Client 0, known to the session
/// at 64 parameters, offers 65 (all zero, so the quantizers draw nothing for
/// it) and the operator discards that round; the next round of honest
/// clients must then be byte for byte what a control session that never saw
/// the bad offer produces — same compensation, same wire bytes, same model.
/// It used to wipe every residual, silently biasing everybody's next round.
#[test]
fn a_wrong_dimension_offer_leaves_other_clients_compensation_alone() {
    let all = updates(5, 64);
    let offer = |session: &mut Session, update: &ModelUpdate| {
        let outcome = session.try_ingest(Update::Dense(update.clone()));
        assert!(outcome.expect("offer").is_admitted());
    };
    for codec in [
        CodecKind::Uniform8,
        CodecKind::Uniform4,
        CodecKind::TopK { permille: 125 },
    ] {
        let mut reports = Vec::new();
        for bad_offer in [false, true] {
            let mut session = SessionBuilder::new()
                .two_level(2, 2)
                .codec(codec)
                .build()
                .expect("session");
            for update in &all[..4] {
                offer(&mut session, update);
            }
            session.drive().expect("round 1");
            if bad_offer {
                let wider = ModelUpdate::from_client(ClientId::new(0), DenseModel::zeros(65), 1);
                offer(&mut session, &wider);
                session.discard_round();
            }
            // Clients 1..=3 carry a residual from round 1; client 4 is new.
            for update in &all[1..] {
                offer(&mut session, update);
            }
            reports.push(session.drive().expect("round 2"));
        }
        let (control, disturbed) = (&reports[0], &reports[1]);
        assert_eq!(
            disturbed.ingress_wire_bytes, control.ingress_wire_bytes,
            "{codec}"
        );
        let bits = |report: &SessionReport| -> Vec<u32> {
            let model = report.update.model.as_slice();
            model.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(disturbed),
            bits(control),
            "{codec}: the honest clients' round changed"
        );
    }
}
