//! Stateless aggregator failure and recovery from checkpoints (§3, Appendix B),
//! end to end on a fault-tolerant multi-node `Cluster`: commit a few global
//! versions with a checkpoint every second one, kill the node hosting the
//! global top mid-round and show exactly what is recovered and what must be
//! redone, then survive a child-node kill mid-round with a bit-exact
//! aggregate.
//!
//! Run with: `cargo run -p lifl-examples --example failure_recovery`

use lifl_core::cluster::{Cluster, ClusterBuilder, FaultToleranceConfig};
use lifl_core::session::Update;
use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::DenseModel;
use lifl_types::{ClientId, LiflError, NodeId, SimDuration, SimTime, Topology};

/// One round's updates: client `i` of round `round` sends a 16-parameter
/// model weighted by `i + 1`.
fn round_updates(topology: &Topology, round: u64) -> Vec<ModelUpdate> {
    (0..topology.total_updates())
        .map(|i| {
            let values: Vec<f32> = (0..16)
                .map(|d| ((i * 16 + d) % 23) as f32 * 0.1 + round as f32)
                .collect();
            ModelUpdate::from_client(
                ClientId::new(i as u64),
                DenseModel::from_vec(values),
                (i + 1) as u64,
            )
        })
        .collect()
}

fn offer(cluster: &mut Cluster, batch: &[ModelUpdate]) {
    cluster
        .ingest_all(batch.iter().cloned().map(Update::Dense))
        .expect("ingest");
}

fn bit_exact(a: &DenseModel, b: &DenseModel) -> bool {
    (a.as_slice().iter().zip(b.as_slice())).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn main() {
    // Two nodes each drive a [2, 2] subtree under the global top. The cluster
    // checkpoints every 2 committed versions; a replacement runtime takes
    // 0.8 s to start (LIFL's lightweight runtime rather than a full
    // container).
    let topology = Topology::new(vec![2, 2, 2]).expect("topology");
    let mut cluster = ClusterBuilder::new()
        .topology(topology.clone())
        .fault_tolerance(FaultToleranceConfig {
            checkpoint_every: 2,
            restart_delay: SimDuration::from_secs(0.8),
            ..FaultToleranceConfig::default()
        })
        .build()
        .expect("cluster");

    let mut committed = Vec::new();
    for version in 1..=5u64 {
        cluster.set_time(SimTime::from_secs(version as f64 * 30.0));
        offer(&mut cluster, &round_updates(&topology, version));
        committed.push(cluster.drive().expect("round").update.model);
        let checkpointed = cluster.checkpoint().map(|(round, _)| round.index());
        println!(
            "committed version {version}{}",
            if checkpointed == Some(version) {
                "  -> checkpointed"
            } else {
                ""
            }
        );
    }

    // Round 6 is in flight: node 0's intermediate has reached the global
    // top when the node hosting the top dies.
    cluster.set_time(SimTime::from_secs(170.0));
    offer(&mut cluster, &round_updates(&topology, 6));
    let top = cluster.top_node();
    cluster
        .schedule_node_failure(top, 1)
        .expect("fault injection");
    println!("\nthe node hosting the global top crashes after one hop of round 6...");
    match cluster.drive() {
        Err(LiflError::AggregatorFailure { node }) => println!("round 6 lost with node {node}"),
        other => panic!("expected the top kill to fail the round, got {other:?}"),
    }
    let outcome = cluster
        .take_recovery()
        .expect("the top kill restored a checkpoint");
    let recovered = outcome
        .recovered_model
        .as_ref()
        .expect("version 4 checkpointed");
    println!(
        "recovered from checkpointed version {:?} (model[0] = {:?})",
        outcome.recovered_round.map(|r| r.index()),
        recovered.as_slice()[0]
    );
    println!(
        "lost {} committed-but-uncheckpointed version(s) and {} in-progress hop(s)",
        outcome.lost_versions, outcome.lost_in_progress_updates
    );
    println!(
        "replacement runtime ready {:.1}s after the failure (at t = {:.1}s)",
        outcome.restart_delay.as_secs(),
        outcome.ready_at.as_secs()
    );
    let (round, checkpoint) = cluster.checkpoint().expect("a checkpoint");
    println!(
        "the cluster keeps one checkpoint (version {}), bit-exact with committed version 4: {}",
        round.index(),
        bit_exact(checkpoint, &committed[3]) && bit_exact(recovered, checkpoint)
    );

    // Progress resumes from the checkpoint: the next round commits
    // version 5 again.
    offer(&mut cluster, &round_updates(&topology, 6));
    cluster.drive().expect("the round after the recovery");
    let stats = cluster.fault_stats().expect("fault tolerance is on");
    println!(
        "the re-driven round committed; {} top recovery, {} update(s) lost with round 6",
        stats.top_recoveries, stats.lost_updates
    );

    // A child-node kill costs the round nothing: node 1 is killed with the
    // round in flight, it restarts and re-delivers its updates from its
    // store, and the drive completes with a round that matches an
    // undisturbed cluster bit for bit.
    println!("\n--- surviving a node kill inside a federated cluster round ---");
    let batch = round_updates(&topology, 0);
    let mut undisturbed = ClusterBuilder::new()
        .topology(topology.clone())
        .build()
        .expect("cluster");
    offer(&mut undisturbed, &batch);
    let reference = undisturbed.drive().expect("round").update;

    let mut cluster = ClusterBuilder::new()
        .topology(topology)
        .fault_tolerance(FaultToleranceConfig::default())
        .build()
        .expect("cluster");
    offer(&mut cluster, &batch);
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
    let bit_exact = bit_exact(&survived.model, &reference.model);
    println!("survived round bit-exact with the undisturbed cluster: {bit_exact}");
    assert!(bit_exact, "survived round must match bit for bit");
}
