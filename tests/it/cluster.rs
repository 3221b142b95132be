//! The cluster-federation tier: N sessions composed gateway-to-gateway over
//! `Update::RemoteBytes` are **bit-exact** with the equivalent single-session
//! `drive()` — for every codec, for the sequential and the sharded fold —
//! and the hops are priced off the codec-encoded bytes.

use lifl_core::cluster::ClusterBuilder;
use lifl_core::session::{SessionBuilder, Update};
use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::codec::UpdateCodec;
use lifl_fl::DenseModel;
use lifl_shmem::BufferPool;
use lifl_types::{ClientId, CodecKind, Topology};

fn updates(n: usize, dim: usize) -> Vec<ModelUpdate> {
    (0..n)
        .map(|i| {
            let values: Vec<f32> = (0..dim)
                .map(|d| ((i * dim + d * 7) % 127) as f32 * 0.013 - 0.8)
                .collect();
            ModelUpdate::from_client(
                ClientId::new(i as u64),
                DenseModel::from_vec(values),
                (i % 5 + 1) as u64,
            )
        })
        .collect()
}

/// Acceptance: a 3-level cluster round over `Update::RemoteBytes` reproduces
/// the single-session drive bit-for-bit under every `CodecKind`.
#[test]
fn three_level_cluster_bit_exact_with_single_session_for_all_codecs() {
    // 3 nodes, each driving a [2, 2] subtree: 12 updates per round.
    let topology = Topology::new(vec![2, 2, 3]).expect("topology");
    let batch = updates(topology.total_updates(), 192);
    for codec in CodecKind::ablation_set() {
        let mut session = SessionBuilder::new()
            .topology(topology.clone())
            .codec(codec)
            .build()
            .expect("session");
        session
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .expect("session ingest");
        let single = session.drive().expect("session drive");

        let mut cluster = ClusterBuilder::new()
            .topology(topology.clone())
            .codec(codec)
            .build()
            .expect("cluster");
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .expect("cluster ingest");
        let federated = cluster.drive().expect("cluster drive");

        assert_eq!(single.update.samples, federated.update.samples, "{codec}");
        for (a, b) in single
            .update
            .model
            .as_slice()
            .iter()
            .zip(federated.update.model.as_slice())
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{codec}: cluster diverged ({a} vs {b})"
            );
        }
    }
}

/// The equivalence survives rounds: error-feedback residuals at the cluster
/// ingress evolve exactly like a single session's, so *later* rounds stay
/// bit-exact too (the residual state is path-dependent).
#[test]
fn multi_round_lossy_cluster_stays_bit_exact() {
    let topology = Topology::new(vec![2, 2, 2]).expect("topology");
    let batch = updates(topology.total_updates(), 96);
    let mut session = SessionBuilder::new()
        .topology(topology.clone())
        .codec(CodecKind::Uniform8)
        .build()
        .expect("session");
    let mut cluster = ClusterBuilder::new()
        .topology(topology.clone())
        .codec(CodecKind::Uniform8)
        .build()
        .expect("cluster");
    for round in 0..3 {
        session
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .expect("session ingest");
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .expect("cluster ingest");
        let single = session.drive().expect("session drive");
        let federated = cluster.drive().expect("cluster drive");
        for (a, b) in single
            .update
            .model
            .as_slice()
            .iter()
            .zip(federated.update.model.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "round {round} diverged");
        }
    }
}

/// Garbage an earlier round could have left in `pool`'s idle buffers: `f32`
/// buffers of NaN (accumulators come home holding a round's average) and
/// byte buffers whose capacity is all `0xAA` (encode bodies).
fn dirty(pool: &BufferPool, dim: usize) {
    let floats: Vec<Vec<f32>> = (0..8).map(|_| pool.checkout_f32(dim)).collect();
    let bytes: Vec<Vec<u8>> = (0..8).map(|_| pool.checkout_bytes(4 * dim + 64)).collect();
    for mut f in floats {
        f.fill(f32::NAN);
        pool.checkin_f32(f);
    }
    for mut b in bytes {
        b.resize(b.capacity(), 0xAA);
        pool.checkin_bytes(b);
    }
}

/// Pooled buffers are not zero-filled when they come back out: a session
/// and a cluster whose pools start full of garbage fold every round to the
/// bits a session on a clean pool folds, under every codec.
#[test]
fn session_and_cluster_on_a_dirty_pool_match_a_clean_session() {
    let topology = Topology::new(vec![2, 2, 2]).expect("topology");
    let dim = 2100;
    let batch = updates(topology.total_updates(), dim);
    for codec in CodecKind::ablation_set() {
        let session = |pool: BufferPool| {
            SessionBuilder::new()
                .topology(topology.clone())
                .codec(codec)
                .pool(pool)
                .build()
                .expect("session")
        };
        let mut clean = session(BufferPool::new());
        let dirty_pool = BufferPool::new();
        dirty(&dirty_pool, dim);
        let mut dirtied = session(dirty_pool);
        let mut cluster = ClusterBuilder::new()
            .topology(topology.clone())
            .codec(codec)
            .build()
            .expect("cluster");
        dirty(cluster.pool(), dim);
        for round in 0..3 {
            let bits = |update: &ModelUpdate| -> Vec<u32> {
                update
                    .model
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            };
            let mut driven = Vec::new();
            for session in [&mut clean, &mut dirtied] {
                session
                    .ingest_all(batch.iter().cloned().map(Update::Dense))
                    .expect("session ingest");
                driven.push(bits(&session.drive().expect("session drive").update));
            }
            cluster
                .ingest_all(batch.iter().cloned().map(Update::Dense))
                .expect("cluster ingest");
            driven.push(bits(&cluster.drive().expect("cluster drive").update));
            assert_eq!(driven[1], driven[0], "{codec} round {round}: dirty session");
            assert_eq!(driven[2], driven[0], "{codec} round {round}: dirty cluster");
        }
        assert!(
            dirtied.pool().stats().hits > 0,
            "{codec}: the garbage was reused"
        );
    }
}

/// Deep federations: a 4-level global tree split across 2 nodes (each node
/// drives a 3-level subtree in process) still matches the single session.
#[test]
fn four_level_cluster_matches_single_session() {
    let topology = Topology::uniform(4, 2);
    let batch = updates(topology.total_updates(), 64);
    let mut session = SessionBuilder::new()
        .topology(topology.clone())
        .codec(CodecKind::Uniform4)
        .build()
        .expect("session");
    session
        .ingest_all(batch.iter().cloned().map(Update::Dense))
        .expect("ingest");
    let single = session.drive().expect("drive");

    let mut cluster = ClusterBuilder::new()
        .topology(topology)
        .codec(CodecKind::Uniform4)
        .build()
        .expect("cluster");
    assert_eq!(cluster.nodes(), 2);
    assert_eq!(cluster.subtree().levels(), 3);
    cluster
        .ingest_all(batch.iter().cloned().map(Update::Dense))
        .expect("ingest");
    let federated = cluster.drive().expect("drive");
    for (a, b) in single
        .update
        .model
        .as_slice()
        .iter()
        .zip(federated.update.model.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "4-level cluster diverged");
    }
}

/// Mixed representations route through the cluster ingress exactly like a
/// single session: dense, pre-encoded and forwarded remote bytes share one
/// round, bit-exactly under `Identity`.
#[test]
fn mixed_representations_cluster_bit_exact_under_identity() {
    let topology = Topology::new(vec![2, 1, 2]).expect("topology");
    let batch = updates(topology.total_updates(), 48);
    let ingests = || {
        let mut codec = UpdateCodec::new(CodecKind::Identity);
        batch
            .iter()
            .enumerate()
            .map(|(i, update)| match i % 3 {
                0 => Update::Dense(update.clone()),
                1 => Update::encoded(
                    ClientId::new(i as u64),
                    codec.encode(&update.model),
                    update.samples,
                ),
                _ => {
                    let raw: Vec<u8> = update
                        .model
                        .as_slice()
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect();
                    Update::remote_bytes(raw, update.samples, false)
                }
            })
            .collect::<Vec<_>>()
    };
    let mut session = SessionBuilder::new()
        .topology(topology.clone())
        .build()
        .expect("session");
    session.ingest_all(ingests()).expect("ingest");
    let single = session.drive().expect("drive");
    let mut cluster = ClusterBuilder::new()
        .topology(topology)
        .build()
        .expect("cluster");
    cluster.ingest_all(ingests()).expect("ingest");
    let federated = cluster.drive().expect("drive");
    assert_eq!(single.update.samples, federated.update.samples);
    for (a, b) in single
        .update
        .model
        .as_slice()
        .iter()
        .zip(federated.update.model.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "mixed cluster diverged");
    }
}

/// Hop accounting: the wire bytes a cluster round crosses machines with are
/// exactly the codec-encoded intermediate size per remote node, and the
/// priced latency orders Identity > Uniform8 > Uniform4.
#[test]
fn hop_pricing_follows_the_codec() {
    let topology = Topology::new(vec![2, 2, 4]).expect("topology");
    let dim = 512usize;
    let batch = updates(topology.total_updates(), dim);
    let run = |codec: CodecKind| {
        let mut cluster = ClusterBuilder::new()
            .topology(topology.clone())
            .codec(codec)
            .build()
            .expect("cluster");
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .expect("ingest");
        cluster.drive().expect("drive")
    };
    let identity = run(CodecKind::Identity);
    let u8c = run(CodecKind::Uniform8);
    let u4c = run(CodecKind::Uniform4);
    // 3 remote nodes x the encoded intermediate size.
    assert_eq!(identity.inter_node_wire_bytes(), 3 * dim as u64 * 4);
    assert_eq!(u8c.inter_node_wire_bytes(), 3 * dim as u64);
    assert_eq!(u4c.inter_node_wire_bytes(), 3 * (dim as u64).div_ceil(2));
    assert!(identity.serialized_hop_latency() > u8c.serialized_hop_latency());
    assert!(u8c.serialized_hop_latency() > u4c.serialized_hop_latency());
}
