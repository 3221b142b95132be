//! Stateless aggregator failure and recovery from checkpoints (§3, Appendix B):
//! commit a few global versions, checkpoint periodically, kill the aggregator
//! mid-round and show exactly what is recovered and what must be redone —
//! first on a standalone `RecoveryManager`, then end to end on a
//! fault-tolerant multi-node `Cluster` that survives a node kill mid-round
//! with a bit-exact aggregate.
//!
//! Run with: `cargo run -p lifl-examples --example failure_recovery`

use lifl_core::cluster::{ClusterBuilder, FaultToleranceConfig};
use lifl_core::recovery::RecoveryManager;
use lifl_core::session::Update;
use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::DenseModel;
use lifl_types::{ClientId, NodeId, SimDuration, SimTime, Topology};

fn main() {
    // Checkpoint every 2 committed versions; a replacement runtime takes 0.8 s
    // to start (LIFL's lightweight runtime rather than a full container).
    let mut manager =
        RecoveryManager::new(2, SimDuration::from_secs(0.8)).expect("valid configuration");

    for version in 1..=5u64 {
        let model = DenseModel::from_vec(vec![version as f32; 8]);
        let wrote = manager.commit_version(&model, SimTime::from_secs(version as f64 * 30.0));
        println!(
            "committed version {version}{}",
            if wrote {
                "  -> checkpointed to external storage"
            } else {
                ""
            }
        );
    }

    // A new round is in progress: three updates folded, then the aggregator dies.
    manager.record_fold();
    manager.record_fold();
    manager.record_fold();
    println!(
        "\naggregator crashes with {} in-progress updates...",
        manager.in_progress_updates()
    );
    let outcome = manager
        .fail_and_recover(SimTime::from_secs(170.0))
        .expect("recovery");

    println!(
        "recovered from checkpointed version {:?} (model[0] = {:?})",
        outcome.recovered_round.map(|r| r.index()),
        outcome.recovered_model.as_ref().map(|m| m.as_slice()[0])
    );
    println!(
        "lost {} committed-but-uncheckpointed version(s) and {} in-progress update(s)",
        outcome.lost_versions, outcome.lost_in_progress_updates
    );
    println!(
        "replacement runtime ready {:.1}s after the failure (at t = {:.1}s)",
        outcome.restart_delay.as_secs(),
        outcome.ready_at.as_secs()
    );
    println!(
        "checkpoint store holds {} checkpoint(s), {} bytes written in total",
        manager.store().len(),
        manager.store().bytes_written()
    );

    // The same machinery wired into a real federated round: two nodes each
    // drive a [2, 2] subtree, node 1 is killed with the round in flight, it
    // restarts and re-delivers its updates from its store, and the drive
    // completes with a round that matches an undisturbed cluster bit for bit.
    println!("\n--- surviving a node kill inside a federated cluster round ---");
    let topology = Topology::new(vec![2, 2, 2]).expect("topology");
    let batch: Vec<ModelUpdate> = (0..topology.total_updates())
        .map(|i| {
            let values: Vec<f32> = (0..16).map(|d| ((i * 16 + d) % 23) as f32 * 0.1).collect();
            ModelUpdate::from_client(
                ClientId::new(i as u64),
                DenseModel::from_vec(values),
                (i + 1) as u64,
            )
        })
        .collect();

    let mut undisturbed = ClusterBuilder::new()
        .topology(topology.clone())
        .build()
        .expect("cluster");
    undisturbed
        .ingest_all(batch.iter().cloned().map(Update::Dense))
        .expect("ingest");
    let reference = undisturbed.drive().expect("round").update;

    let mut cluster = ClusterBuilder::new()
        .topology(topology)
        .fault_tolerance(FaultToleranceConfig::default())
        .build()
        .expect("cluster");
    cluster
        .ingest_all(batch.iter().cloned().map(Update::Dense))
        .expect("ingest");
    // Node 1 dies after node 0's intermediate already reached the top.
    cluster
        .schedule_node_failure(NodeId::new(1), 1)
        .expect("fault injection");
    let survived = cluster.drive().expect("the round survives the kill").update;
    let stats = cluster.fault_stats().expect("fault tolerance is on");
    println!(
        "node 1 restarted mid-drive and re-delivered {} stored update(s); nothing was re-sent",
        stats.lost_updates
    );
    println!(
        "the round aggregated {} samples ({} survivor hop(s) deduped, {} node restart(s))",
        survived.samples, stats.deduped_hops, stats.node_restarts
    );
    let bit_exact = survived
        .model
        .as_slice()
        .iter()
        .zip(reference.model.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!("survived round bit-exact with the undisturbed cluster: {bit_exact}");
    assert!(bit_exact, "survived round must match bit for bit");
}
