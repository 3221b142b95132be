//! Multi-node session federation: the same round driven by one in-process
//! session and by a 4-node `Cluster` whose nodes exchange codec-tagged wire
//! bytes gateway-to-gateway (`Update::RemoteBytes`), proving the aggregate
//! bit-exact while reporting what the federation costs on the wire — then a
//! multi-round run where live EWMA placement moves the global top onto the
//! most-loaded node without changing a single aggregate bit.
//!
//! Run with: `cargo run -p lifl-examples --example cluster_federation`.

use lifl_core::cluster::{ClusterBuilder, TopPlacement};
use lifl_core::session::{SessionBuilder, Update};
use lifl_examples::demo_updates;
use lifl_types::{CodecKind, NodeId, Topology};

fn main() {
    // A 3-level global tree whose top fan-in is the machine count: 4 nodes
    // each drive a [2, 2] subtree over their own shared-memory store, and
    // node 0 additionally hosts the global top aggregator.
    let topology = Topology::new(vec![2, 2, 4]).expect("topology");
    let updates = demo_updates(topology.total_updates(), 1024);

    for codec in [CodecKind::Identity, CodecKind::Uniform8] {
        // Reference: everything inside one session on one node.
        let mut session = SessionBuilder::new()
            .topology(topology.clone())
            .codec(codec)
            .build()
            .expect("session");
        session
            .ingest_all(updates.iter().cloned().map(Update::Dense))
            .expect("session ingest");
        let single = session.drive().expect("session drive");

        // The federation: leaf ingests route to the owning node, each node
        // drives its subtree, and only the merged intermediates cross
        // machines — in their codec-encoded wire form.
        let mut cluster = ClusterBuilder::new()
            .topology(topology.clone())
            .codec(codec)
            .build()
            .expect("cluster");
        cluster
            .ingest_all(updates.iter().cloned().map(Update::Dense))
            .expect("cluster ingest");
        let report = cluster.drive().expect("cluster drive");

        let bit_exact = single
            .update
            .model
            .as_slice()
            .iter()
            .zip(report.update.model.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        println!(
            "{codec}: {} over {} nodes, ||w|| = {:.4}, bit-exact with single session: {}",
            report.topology,
            report.nodes.len(),
            report.update.model.l2_norm(),
            bit_exact,
        );
        for hop in &report.hops {
            println!(
                "  hop {} -> top: {} wire bytes, {} ({:.4}s modelled)",
                hop.node,
                hop.wire_bytes,
                if hop.same_node {
                    "shared memory"
                } else {
                    "cross-machine"
                },
                hop.cost.latency.as_secs(),
            );
        }
        println!(
            "  inter-node total: {} bytes, serialized hop latency {:.4}s",
            report.inter_node_wire_bytes(),
            report.serialized_hop_latency().as_secs(),
        );
        assert!(bit_exact, "federation must not change the aggregate");
    }

    // Live placement: the top-hosting node is not static wiring. Under the
    // default `TopPlacement::MostLoaded` policy the cluster keeps a per-node
    // EWMA of observed load and re-places the top at every round boundary;
    // here an out-of-band load report tips the estimate and the top moves —
    // with the warm global intermediate handed off at a priced hop, and the
    // aggregates staying bit-identical to a cluster that never moves.
    let mut live = ClusterBuilder::new()
        .topology(topology.clone())
        .codec(CodecKind::Uniform8)
        .build()
        .expect("live cluster");
    let mut pinned = ClusterBuilder::new()
        .topology(topology.clone())
        .codec(CodecKind::Uniform8)
        .placement(TopPlacement::Pinned(0))
        .build()
        .expect("pinned cluster");
    println!("\nlive placement (uniform8, 3 rounds):");
    for round in 0..3u32 {
        if round == 1 {
            // Node 2 reports a deep pending queue; its EWMA now dominates.
            live.observe_node_load(NodeId::new(2), 96.0);
        }
        let updates = demo_updates(topology.total_updates(), 1024);
        live.ingest_all(updates.iter().cloned().map(Update::Dense))
            .expect("live ingest");
        pinned
            .ingest_all(updates.into_iter().map(Update::Dense))
            .expect("pinned ingest");
        let live_report = live.drive().expect("live drive");
        let pinned_report = pinned.drive().expect("pinned drive");
        let bit_exact = live_report
            .update
            .model
            .as_slice()
            .iter()
            .zip(pinned_report.update.model.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        match &live_report.replacement {
            Some(moved) => println!(
                "  round {round}: top moved {} -> {} ({} handoff bytes, \
                 {:.4}s modelled), bit-exact with pinned: {bit_exact}",
                moved.from,
                moved.to,
                moved.state_bytes,
                moved.cost.latency.as_secs(),
            ),
            None => println!(
                "  round {round}: top stays on {}, bit-exact with pinned: {bit_exact}",
                live_report.top_node,
            ),
        }
        assert!(bit_exact, "a top move must not change the aggregate");
    }
}
