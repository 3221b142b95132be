//! The unified-session tier: the builder-driven `Session` API is the one
//! hierarchical entry point — deterministic and shard-invariant for every
//! codec, generalising to N-level trees, and accepting every update
//! representation through its one polymorphic ingress.

use lifl_core::session::{SessionBuilder, SessionReport, Update};
use lifl_fl::aggregate::{fedavg, ModelUpdate};
use lifl_fl::codec::UpdateCodec;
use lifl_fl::DenseModel;
use lifl_types::{ClientId, CodecKind, Topology};

fn updates(n: usize, dim: usize) -> Vec<ModelUpdate> {
    (0..n)
        .map(|i| {
            let values: Vec<f32> = (0..dim)
                .map(|d| ((i * dim + d * 3) % 113) as f32 * 0.017 - 0.9)
                .collect();
            ModelUpdate::from_client(
                ClientId::new(i as u64),
                DenseModel::from_vec(values),
                (i % 7 + 1) as u64,
            )
        })
        .collect()
}

fn drive(topology: Topology, codec: CodecKind, batch: &[ModelUpdate]) -> SessionReport {
    let mut session = SessionBuilder::new()
        .topology(topology)
        .codec(codec)
        .build()
        .expect("session");
    session
        .ingest_all(batch.iter().cloned().map(Update::Dense))
        .expect("ingest");
    session.drive().expect("drive")
}

/// Acceptance: a 2-level `Topology` through the builder is fully
/// deterministic for every codec — two identically configured sessions
/// agree bit-for-bit, with identical ingress wire accounting. A station
/// folds on the thread that claims it whatever `SessionBuilder::shards`
/// says, so this determinism is the session's shard invariance.
#[test]
fn two_level_topology_is_deterministic_and_shard_invariant_for_all_codecs() {
    let batch = updates(8, 640);
    for codec in CodecKind::ablation_set() {
        let reference = drive(Topology::two_level(4, 2), codec, &batch);
        let run = drive(Topology::two_level(4, 2), codec, &batch);
        assert_eq!(run.update.samples, reference.update.samples, "{codec}");
        assert_eq!(
            run.ingress_wire_bytes, reference.ingress_wire_bytes,
            "{codec}"
        );
        for (a, b) in run
            .update
            .model
            .as_slice()
            .iter()
            .zip(reference.update.model.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{codec}: {a} vs {b}");
        }
    }
}

/// Acceptance: a ≥3-level topology round-trips correctly under every codec —
/// the aggregate stays within the codec's quantization error of flat FedAvg
/// (bit-exact for Identity against the 2-level tree, which shares its fold
/// order at the leaves).
#[test]
fn three_level_topology_roundtrips_under_every_codec() {
    let topology = Topology::new(vec![2, 3, 2]).expect("topology"); // 12 updates
    let batch = updates(topology.total_updates(), 96);
    let exact = fedavg(&batch).expect("flat fedavg");
    let max_abs = batch
        .iter()
        .flat_map(|u| u.model.as_slice())
        .fold(0.0f32, |a, v| a.max(v.abs()));
    for codec in CodecKind::ablation_set() {
        let report = drive(topology.clone(), codec, &batch);
        assert_eq!(report.update.samples, exact.samples, "{codec}");
        assert_eq!(report.topology.levels(), 3);
        let tolerance = match codec {
            CodecKind::Identity => 1e-5,
            // One quantization step per aggregation stage (client, leaf,
            // middle), conservatively bounded.
            CodecKind::Uniform8 => 4.0 * max_abs / 127.0,
            CodecKind::Uniform4 => 4.0 * max_abs / 7.0,
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
        if codec != CodecKind::Identity {
            assert!(report.store_stats.encoded_puts > 0, "{codec}");
        }
    }
}

/// A 4-level tree drives end to end with the sharded fold and shrinks
/// shared memory under quantization.
#[test]
fn four_level_quantized_sharded_session() {
    let topology = Topology::uniform(4, 2);
    assert_eq!(topology.total_updates(), 16);
    let batch = updates(16, 2048);
    let report = drive(topology, CodecKind::Uniform8, &batch);
    let exact = fedavg(&batch).expect("flat fedavg");
    assert_eq!(report.update.samples, exact.samples);
    assert!(report.store_stats.bytes_saved() > 0);
    let max_abs = batch
        .iter()
        .flat_map(|u| u.model.as_slice())
        .fold(0.0f32, |a, v| a.max(v.abs()));
    // Four quantization stages bound the drift.
    let tolerance = 5.0 * max_abs / 127.0;
    for (a, b) in report
        .update
        .model
        .as_slice()
        .iter()
        .zip(exact.model.as_slice())
    {
        assert!((a - b).abs() <= tolerance, "|{a} - {b}| > {tolerance}");
    }
}

/// The single polymorphic ingress: dense, pre-encoded and remote-bytes
/// updates mix freely within one round, under Identity bit-exactly.
#[test]
fn mixed_representations_are_bit_exact_under_identity() {
    let batch = updates(8, 64);
    let all_dense = drive(Topology::two_level(4, 2), CodecKind::Identity, &batch);

    let mut session = SessionBuilder::new()
        .topology(Topology::two_level(4, 2))
        .build()
        .expect("session");
    let mut codec = UpdateCodec::new(CodecKind::Identity);
    for (i, update) in batch.iter().enumerate() {
        let ingest = match i % 3 {
            // Dense, as-is.
            0 => Update::Dense(update.clone()),
            // Pre-encoded identity wire form.
            1 => Update::encoded(
                ClientId::new(i as u64),
                codec.encode(&update.model),
                update.samples,
            ),
            // Raw dense little-endian bytes, as a remote gateway ships them.
            _ => {
                let raw: Vec<u8> = update
                    .model
                    .as_slice()
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect();
                Update::remote_bytes(raw, update.samples, false)
            }
        };
        session.ingest(ingest).expect("ingest");
    }
    let mixed = session.drive().expect("drive");
    assert_eq!(mixed.update.samples, all_dense.update.samples);
    for (a, b) in mixed
        .update
        .model
        .as_slice()
        .iter()
        .zip(all_dense.update.model.as_slice())
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "mixed-representation round diverged: {a} vs {b}"
        );
    }
}

/// Store and pool injection: two sessions can share one node's store, and
/// the codec scratch pool the builder receives is the one the session
/// recycles through.
#[test]
fn injected_store_and_pool_are_shared() {
    use lifl_shmem::{BufferPool, ObjectStore};

    let store = ObjectStore::new();
    let pool = BufferPool::new();
    let batch = updates(4, 256);
    for round in 0..2 {
        let mut session = SessionBuilder::new()
            .topology(Topology::two_level(2, 2))
            .codec(CodecKind::Uniform8)
            .store(store.clone())
            .pool(pool.clone())
            .build()
            .expect("session");
        session
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .expect("ingest");
        session.drive().expect("drive");
        if round == 1 {
            assert!(pool.stats().hits > 0, "second session reused the slab");
        }
    }
    assert!(
        store.stats().encoded_puts > 0,
        "shared store saw the payloads"
    );
}
