//! Hierarchical aggregation deep dive: shows the TAG, direct routing and the
//! step-based aggregator runtime working together on one node, compares the
//! three data planes of Fig. 7 for a single transfer, and runs a real
//! 4-level aggregation tree through the unified `Session` API.
//!
//! Run with: `cargo run -p lifl-examples --example hierarchical_aggregation`

use lifl_core::session::{SessionBuilder, Update};
use lifl_dataplane::{CostModel, DataPlaneKind};
use lifl_examples::demo_updates;
use lifl_sim::tag::{Role, TopologyAbstractionGraph};
use lifl_sim::RoutingTable;
use lifl_types::{AggregatorId, AggregatorRole, CodecKind, ModelKind, NodeId, Topology};

fn main() {
    // Build the TAG for 4 leaves + 1 middle on node 0 and the top on node 1.
    let mut tag = TopologyAbstractionGraph::new();
    for i in 0..4 {
        tag.add_role(Role {
            aggregator: AggregatorId::new(i),
            role: AggregatorRole::Leaf,
            node: NodeId::new(0),
            group: "node-0".to_string(),
        });
    }
    tag.add_role(Role {
        aggregator: AggregatorId::new(10),
        role: AggregatorRole::Middle,
        node: NodeId::new(0),
        group: "node-0".to_string(),
    });
    tag.add_role(Role {
        aggregator: AggregatorId::new(100),
        role: AggregatorRole::Top,
        node: NodeId::new(1),
        group: "node-1".to_string(),
    });
    for i in 0..4 {
        tag.connect(AggregatorId::new(i), AggregatorId::new(10));
    }
    tag.connect(AggregatorId::new(10), AggregatorId::new(100));
    println!(
        "TAG: {} roles, {} channels, {} inter-node",
        tag.roles().count(),
        tag.channels().len(),
        tag.inter_node_channels()
    );

    let mut routes = RoutingTable::new(NodeId::new(0));
    routes.apply_tag(&tag);
    println!(
        "node-0 routing: {} sockmap entries, {} inter-node routes",
        routes.local_routes(),
        routes.inter_node_routes()
    );

    // A deep tree the two-level API could not express: 16 client updates
    // through 8 leaves, 4 middles, 2 upper middles and the top, all updates
    // travelling 8-bit quantized.
    let topology = Topology::uniform(4, 2);
    let mut session = SessionBuilder::new()
        .topology(topology)
        .codec(CodecKind::Uniform8)
        .build()
        .expect("session");
    session
        .ingest_all(demo_updates(16, 128).into_iter().map(Update::Dense))
        .expect("ingest");
    let report = session.drive().expect("drive");
    println!(
        "session over a {}: {} updates, {} shmem bytes saved, ||w|| = {:.4}",
        report.topology,
        report.updates_ingested,
        report.store_stats.bytes_saved(),
        report.update.model.l2_norm()
    );

    let cost = CostModel::paper_calibrated();
    for model in ModelKind::paper_models() {
        let bytes = model.update_bytes();
        println!("--- {model} ({:.0} MiB) ---", model.update_mib());
        for (label, plane) in [
            ("LIFL shm", DataPlaneKind::LiflSharedMemory),
            ("SF gRPC", DataPlaneKind::ServerfulGrpc),
            ("SL broker+sidecar", DataPlaneKind::ServerlessBrokerSidecar),
        ] {
            let c = cost.intra_node_transfer(plane, bytes);
            println!(
                "  {label:<18} latency {:.2}s  cpu {:.2} Gcycles",
                c.latency.as_secs(),
                c.cpu.as_giga()
            );
        }
    }
}
