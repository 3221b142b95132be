//! Quickstart: aggregate a handful of client updates through LIFL's
//! shared-memory hierarchy and simulate one cluster-scale round.
//!
//! Run with: `cargo run -p lifl-examples --example quickstart`

use lifl_core::session::{SessionBuilder, Update};
use lifl_examples::demo_updates;
use lifl_sim::config::{ClusterConfig, LiflConfig};
use lifl_sim::platform::{LiflPlatform, RoundSpec};
use lifl_types::{CodecKind, ModelKind, SimTime, Topology};

fn main() {
    // 1. Real in-process aggregation over shared memory (Appendix G runtime):
    //    one builder-driven session owns the gateway, the store and the tree.
    let updates = demo_updates(8, 64);
    let mut session = SessionBuilder::new()
        .topology(Topology::two_level(4, 2))
        .build()
        .expect("session");
    session
        .ingest_all(updates.iter().cloned().map(Update::Dense))
        .expect("ingest");
    let report = session.drive().expect("hierarchical aggregation");
    println!(
        "aggregated {} client updates ({} samples), ||w|| = {:.4}",
        updates.len(),
        report.update.samples,
        report.update.model.l2_norm()
    );

    // 1b. The same entry point scales to deeper trees and lossy codecs: a
    //     3-level tree whose updates travel 8-bit quantized.
    let updates = demo_updates(8, 64);
    let mut deep = SessionBuilder::new()
        .topology(Topology::new(vec![2, 2, 2]).expect("topology"))
        .codec(CodecKind::Uniform8)
        .build()
        .expect("session");
    deep.ingest_all(updates.into_iter().map(Update::Dense))
        .expect("ingest");
    let deep_report = deep.drive().expect("deep aggregation");
    println!(
        "3-level quantized session: {} ({} wire bytes, {} saved in shmem)",
        deep_report.topology,
        deep_report.ingress_wire_bytes,
        deep_report.store_stats.bytes_saved()
    );

    // 2. Cluster-scale simulation of one LIFL round with 20 ResNet-152 updates.
    let mut platform = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
    let arrivals: Vec<SimTime> = (0..20)
        .map(|i| SimTime::from_secs(i as f64 * 0.5))
        .collect();
    let report = platform.run_round(&RoundSpec::new(ModelKind::ResNet152, arrivals));
    println!(
        "simulated round: ACT = {:.1}s, CPU = {:.1}s, nodes used = {}, aggregators created = {}",
        report.metrics.aggregation_completion_time.as_secs(),
        report.metrics.cpu_time.as_secs(),
        report.metrics.nodes_used,
        report.metrics.aggregators_created
    );
}
