//! Node kills at every phase of a cluster round: before the drive, at every
//! hop boundary mid-drive, mid-ingest, after churn, and between rounds. A
//! killed node restarts and re-delivers its round from the stored keys, a
//! drive the kill struck re-plans with dedup, and the survived aggregate is
//! bit-exact with a failure-free round — no client re-sends anything.

use crate::util::{assert_bit_exact, updates};
use lifl_core::cluster::{Cluster, ClusterBuilder, FaultToleranceConfig};
use lifl_core::session::Update;
use lifl_fl::aggregate::ModelUpdate;
use lifl_types::{AdmissionConfig, ClientId, LiflError, NodeId, Topology};

const DIM: usize = 16;

/// Three nodes of `[2, 2]` subtrees: 12 updates per round.
fn topology() -> Topology {
    Topology::new(vec![2, 2, 3]).expect("topology")
}

fn fault_cluster() -> Cluster {
    ClusterBuilder::new()
        .topology(topology())
        .fault_tolerance(FaultToleranceConfig::default())
        .build()
        .expect("cluster")
}

fn drive_clean(batch: &[ModelUpdate]) -> ModelUpdate {
    let mut cluster = ClusterBuilder::new()
        .topology(topology())
        .build()
        .expect("cluster");
    cluster
        .ingest_all(batch.iter().cloned().map(Update::Dense))
        .unwrap();
    cluster.drive().unwrap().update
}

/// A non-top node killed at every hop boundary — from "no hops done yet"
/// through "every survivor already exported" — restarts with exactly its own
/// subtree's updates, and the one drive that re-plans around it is
/// bit-exact with the undisturbed round.
#[test]
fn kill_at_every_hop_boundary_survives_bit_exact() {
    let batch = updates(topology().total_updates(), DIM);
    let clean = drive_clean(&batch);
    for after_hops in 0..3u64 {
        let mut cluster = fault_cluster();
        cluster
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        // Node 2 never hosts the top (the incumbent is node 0), so its kill
        // is always a child failure, never a checkpoint restore.
        cluster
            .schedule_node_failure(NodeId::new(2), after_hops)
            .unwrap();
        let report = cluster.drive().unwrap();
        assert_eq!(report.updates_ingested(), 12);
        assert_eq!(
            report.hops.len(),
            3,
            "re-plan still prices one hop per node"
        );
        let stats = cluster.fault_stats().unwrap();
        assert_eq!(
            stats.deduped_hops, after_hops,
            "every hop completed before the kill is deduped, never re-shipped"
        );
        assert_eq!(stats.node_restarts, 1);
        assert_eq!(stats.lost_updates, 4, "after {after_hops} hops");
        assert_bit_exact(
            &report.update.model,
            &clean.model,
            &format!("kill after {after_hops} hops"),
        );
        assert_eq!(report.update.samples, clean.samples);
    }
}

/// What one scripted round left behind, recorded from the node-at-a-time
/// drive loop the fault timing is defined by: the drive attempts a top kill
/// failed, the fault counters, the completed round's hops and a fingerprint
/// of its model's bits (or of the checkpoint a top kill restored).
#[derive(Debug, Clone, PartialEq)]
struct Plan {
    /// `AggregatorFailure`s as `(node, u64::MAX)`, in attempt order (a child
    /// kill is no drive error).
    attempts: Vec<(u64, u64)>,
    /// `[node_restarts, top_recoveries, deduped_hops, lost_updates]`.
    stats: [u64; 4],
    /// The completed round's hops as `(node, wire_bytes, same_node)`.
    hops: Vec<(u64, u64, bool)>,
    /// The completed round's model fingerprint.
    model: u64,
    /// Every restored checkpoint's fingerprint and its lost in-progress
    /// folds, in attempt order.
    restored: Vec<(u64, u64)>,
}

/// FNV-1a over a model's bits.
fn fingerprint(model: &lifl_fl::DenseModel) -> u64 {
    model
        .as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, v| {
            (hash ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
        })
}

/// One scripted round on a fresh fault-tolerant [2, 2, 3] cluster whose
/// first, full round is committed: `ingest` updates offered (then the
/// `depart`ed clients' withdrawn) and driven until the round completes, with
/// every kill scheduled, in order, before the first attempt. A top kill
/// re-offers the round.
#[derive(Debug, Clone, Copy)]
struct Script {
    quorum: bool,
    ingest: usize,
    depart: &'static [u64],
    kills: &'static [(u64, u64)],
}

/// A full round, killed as `kills` says.
fn full(kills: &'static [(u64, u64)]) -> Script {
    Script {
        quorum: false,
        ingest: 12,
        depart: &[],
        kills,
    }
}

fn run_plan(script: Script) -> Plan {
    let batch = updates(topology().total_updates(), DIM);
    let mut builder = ClusterBuilder::new()
        .topology(topology())
        .fault_tolerance(FaultToleranceConfig::default());
    if script.quorum {
        builder = builder.admission(AdmissionConfig::bounded(4, 1 << 20).with_quorum(4));
    }
    let mut cluster = builder.build().expect("cluster");
    cluster
        .ingest_all(batch.iter().cloned().map(Update::Dense))
        .unwrap();
    cluster.drive().unwrap();
    let offer = |cluster: &mut Cluster| {
        let round = batch.iter().take(script.ingest).cloned();
        cluster.ingest_all(round.map(Update::Dense)).unwrap();
        for client in script.depart {
            assert!(cluster.depart_client(ClientId::new(*client)));
        }
    };
    offer(&mut cluster);
    for (node, after_hops) in script.kills {
        cluster
            .schedule_node_failure(NodeId::new(*node), *after_hops)
            .unwrap();
    }
    let (mut attempts, mut restored) = (Vec::new(), Vec::new());
    let report = loop {
        match cluster.drive() {
            Ok(report) => break report,
            Err(LiflError::AggregatorFailure { node }) => {
                attempts.push((node, u64::MAX));
                let outcome = cluster.take_recovery().expect("a restore");
                let model = outcome.recovered_model.expect("round 1 checkpointed");
                restored.push((fingerprint(&model), outcome.lost_in_progress_updates));
                offer(&mut cluster);
            }
            Err(other) => panic!("unexpected drive error {other:?}"),
        }
    };
    let stats = cluster.fault_stats().unwrap();
    Plan {
        attempts,
        stats: [
            stats.node_restarts,
            stats.top_recoveries,
            stats.deduped_hops,
            stats.lost_updates,
        ],
        hops: (report.hops.iter())
            .map(|h| (h.node.index(), h.wire_bytes, h.same_node))
            .collect(),
        model: fingerprint(&report.update.model),
        restored,
    }
}

/// Where a scheduled kill fires, what it takes, which hops a re-plan dedups
/// and what the completed round ships are those of the loop that drives one
/// node at a time: every value below was recorded from that loop. A kill is
/// checked before a node is skipped as empty, so an empty node at the kill
/// point still fires it, and a kill scheduled after every hop never fires.
#[test]
fn the_fault_plan_is_the_node_order_loop() {
    const TOP: u64 = u64::MAX;
    const FULL: u64 = 2_666_025_012_422_958_992;
    let plan = |attempts: &[(u64, u64)], stats: [u64; 4]| Plan {
        attempts: attempts.to_vec(),
        stats,
        hops: vec![(0, 64, true), (1, 64, false), (2, 64, false)],
        model: FULL,
        restored: Vec::new(),
    };
    let restored = |in_progress: u64| Plan {
        restored: vec![(FULL, in_progress)],
        ..plan(&[(0, TOP)], [0, 1, 0, 12])
    };
    let untouched = || plan(&[], [0; 4]);
    // Quorum rounds of four updates, node 2 never getting one, or of six
    // with node 1's two clients departed.
    let empty = |node: u64, kills: &'static [(u64, u64)]| Script {
        quorum: true,
        ingest: if node == 2 { 4 } else { 6 },
        depart: if node == 2 { &[] } else { &[2, 3] },
        kills,
    };
    let partial = |node: u64, stats: [u64; 4]| {
        let (model, shipped) = if node == 2 {
            (3_856_688_636_497_844_979, 1)
        } else {
            (12_411_146_996_539_985_318, 2)
        };
        Plan {
            hops: vec![(0, 64, true), (shipped, 64, false)],
            model,
            ..plan(&[], stats)
        }
    };
    let scripts = [
        // Node 0 hosts the top: its kill loses the round at any point, with
        // as many folds in progress as hops completed.
        (full(&[(0, 0)]), restored(0)),
        (full(&[(0, 1)]), restored(1)),
        (full(&[(0, 2)]), restored(2)),
        (full(&[(0, 3)]), untouched()),
        (full(&[(1, 0)]), plan(&[], [1, 0, 0, 4])),
        (full(&[(1, 1)]), plan(&[], [1, 0, 1, 4])),
        // Node 1's hop already reached the top: nothing to re-deliver.
        (full(&[(1, 2)]), plan(&[], [1, 0, 2, 0])),
        (full(&[(1, 3)]), untouched()),
        (full(&[(2, 0)]), plan(&[], [1, 0, 0, 4])),
        (full(&[(2, 1)]), plan(&[], [1, 0, 1, 4])),
        (full(&[(2, 2)]), plan(&[], [1, 0, 2, 4])),
        (full(&[(2, 3)]), untouched()),
        // Dedup re-plans: the second kill counts the deduped hops as done.
        (full(&[(2, 1), (1, 1)]), plan(&[], [2, 0, 2, 8])),
        (full(&[(1, 2), (2, 2)]), plan(&[], [2, 0, 4, 4])),
        // The kill point sits on the empty node, and fires.
        (empty(2, &[(1, 2)]), partial(2, [1, 0, 2, 0])),
        (empty(2, &[(2, 2)]), partial(2, [1, 0, 2, 0])),
        (empty(1, &[(2, 1)]), partial(1, [1, 0, 1, 2])),
        // The empty node is skipped before the kill point is reached, and
        // no node is left to reach it.
        (empty(1, &[(2, 2)]), partial(1, [0; 4])),
    ];
    for (script, expected) in scripts {
        assert_eq!(run_plan(script), expected, "{script:?}");
    }
}

/// A node killed halfway through ingest restarts with the two updates it
/// held and keeps its leaves, so the rest of the fleet's offers route
/// exactly as in a failure-free round and the aggregate is bit-exact.
#[test]
fn mid_ingest_kill_survives_bit_exact() {
    let batch = updates(topology().total_updates(), DIM);
    let clean = drive_clean(&batch);
    let mut cluster = fault_cluster();
    // One update per leaf so far: node 1 holds exactly two.
    cluster
        .ingest_all(batch.iter().take(6).cloned().map(Update::Dense))
        .unwrap();
    let kill = cluster.inject_node_failure(NodeId::new(1)).unwrap();
    assert!(!kill.top_host);
    assert_eq!(kill.lost_updates, 2);
    assert_eq!(cluster.pending_updates(), 6);
    // The rest of the fleet keeps reporting, onto the leaves a failure-free
    // round gives them.
    cluster
        .ingest_all(batch.iter().skip(6).cloned().map(Update::Dense))
        .unwrap();
    let report = cluster.drive().unwrap();
    assert_eq!(report.updates_ingested(), 12);
    assert_eq!(report.update.samples, clean.samples);
    assert_bit_exact(&report.update.model, &clean.model, "mid-ingest kill");
}

/// Churn, then a kill: a departed client's slot is refilled from the
/// backlog, and then the node holding both is killed. The restart re-delivers
/// what the node held after the churn — the departed client stays gone, the
/// replacement keeps the vacated leaf — so the round is bit-exact with the
/// same depart/refill sequence without the kill.
#[test]
fn a_kill_after_churn_keeps_the_departure_and_the_refill() {
    let batch = updates(topology().total_updates() + 1, DIM);
    let run = |kill: bool| {
        let mut builder = ClusterBuilder::new()
            .topology(topology())
            .admission(AdmissionConfig::bounded(4, 1 << 20));
        if kill {
            builder = builder.fault_tolerance(FaultToleranceConfig::default());
        }
        let mut cluster = builder.build().expect("cluster");
        for update in &batch {
            cluster.try_ingest(Update::Dense(update.clone())).unwrap();
        }
        assert_eq!(cluster.queued_updates(), 1, "client 12 parks");
        // Client 3 fed leaf 3, on node 1; client 12 drains into its slot.
        assert!(cluster.depart_client(ClientId::new(3)));
        assert_eq!(cluster.queued_updates(), 0);
        let held = [2, 8, 9, 12].map(|c| Some(ClientId::new(c))).to_vec();
        assert_eq!(cluster.node_sessions()[1].round_clients(), held);
        if kill {
            let kill = cluster.inject_node_failure(NodeId::new(1)).unwrap();
            assert_eq!((kill.lost_updates, kill.top_host), (4, false));
            assert_eq!(cluster.node_sessions()[1].round_clients(), held);
        }
        cluster.drive().unwrap()
    };
    let (killed, undisturbed) = (run(true), run(false));
    let (departed, refilled) = (batch[3].samples, batch[12].samples);
    let all: u64 = batch.iter().take(12).map(|u| u.samples).sum();
    assert_eq!(killed.update.samples, all - departed + refilled);
    assert_eq!(killed.update.samples, undisturbed.update.samples);
    assert_bit_exact(
        &killed.update.model,
        &undisturbed.update.model,
        "kill after a refilled departure",
    );
}

/// A kill between rounds (nothing pending) loses no updates and the next
/// round over the restarted node is bit-exact with an undisturbed cluster.
#[test]
fn between_rounds_kill_loses_nothing() {
    let batch = updates(topology().total_updates(), DIM);
    let clean = drive_clean(&batch);
    let mut cluster = fault_cluster();
    cluster
        .ingest_all(batch.iter().cloned().map(Update::Dense))
        .unwrap();
    cluster.drive().unwrap();
    // The fleet is idle when node 1 dies: a restart, but zero loss.
    let kill = cluster.inject_node_failure(NodeId::new(1)).unwrap();
    assert_eq!(kill.lost_updates, 0);
    assert!(!kill.top_host);
    cluster
        .ingest_all(batch.iter().cloned().map(Update::Dense))
        .unwrap();
    let report = cluster.drive().unwrap();
    assert_eq!(report.updates_ingested(), 12);
    assert_bit_exact(&report.update.model, &clean.model, "between-rounds kill");
    assert_eq!(cluster.fault_stats().unwrap().node_restarts, 1);
}
