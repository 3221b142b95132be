//! The explicit [`FoldPolicy::FedAvg`] path must be bit-exact with the
//! default (pre-policy) fold for every `CodecKind`, over both
//! the single-process session and the federated cluster: opting into the
//! policy enum is free until a robust policy is actually selected.

use crate::util::{assert_bit_exact, updates};
use lifl_core::cluster::ClusterBuilder;
use lifl_core::session::{SessionBuilder, Update};
use lifl_types::{CodecKind, FoldPolicy, Topology};

const DIM: usize = 48;

fn topology() -> Topology {
    Topology::new(vec![2, 2, 2]).expect("topology")
}

/// Acceptance: for every codec in the ablation set, a session built with an
/// explicit `FoldPolicy::FedAvg` produces the same model bits, sample count
/// and wire accounting as a default-built session.
#[test]
fn explicit_fedavg_session_is_bit_exact_with_default() {
    let batch = updates(topology().total_updates(), DIM);
    for codec in CodecKind::ablation_set() {
        let mut default_session = SessionBuilder::new()
            .topology(topology())
            .codec(codec)
            .build()
            .unwrap();
        let mut explicit = SessionBuilder::new()
            .topology(topology())
            .codec(codec)
            .fold_policy(FoldPolicy::FedAvg)
            .build()
            .unwrap();
        for update in &batch {
            default_session
                .ingest(Update::Dense(update.clone()))
                .unwrap();
            explicit.ingest(Update::Dense(update.clone())).unwrap();
        }
        let want = default_session.drive().unwrap();
        let got = explicit.drive().unwrap();
        assert_eq!(got.update.samples, want.update.samples);
        assert_eq!(got.ingress_wire_bytes, want.ingress_wire_bytes, "{codec}");
        assert_bit_exact(
            &got.update.model,
            &want.update.model,
            &format!("session {codec}"),
        );
    }
}

/// Acceptance: the same equivalence holds across the federated cluster — the
/// policy is threaded through every child session and the top session, and
/// the FedAvg arm changes nothing about the hop or fold pipeline.
#[test]
fn explicit_fedavg_cluster_is_bit_exact_with_default() {
    let batch = updates(topology().total_updates(), DIM);
    for codec in CodecKind::ablation_set() {
        let mut default_cluster = ClusterBuilder::new()
            .topology(topology())
            .codec(codec)
            .build()
            .unwrap();
        let mut explicit = ClusterBuilder::new()
            .topology(topology())
            .codec(codec)
            .fold_policy(FoldPolicy::FedAvg)
            .build()
            .unwrap();
        default_cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        explicit
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let want = default_cluster.drive().unwrap();
        let got = explicit.drive().unwrap();
        assert_eq!(got.update.samples, want.update.samples);
        assert_eq!(
            got.inter_node_wire_bytes(),
            want.inter_node_wire_bytes(),
            "{codec}"
        );
        assert_bit_exact(
            &got.update.model,
            &want.update.model,
            &format!("cluster {codec}"),
        );
    }
}
