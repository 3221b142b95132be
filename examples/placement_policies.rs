//! Compares the three placement policies of §5.1 (BestFit, FirstFit, WorstFit)
//! on the Fig. 8 workload: how many nodes each uses and the resulting ACT.
//!
//! Run with: `cargo run -p lifl-examples --example placement_policies`

use lifl_sim::platform::{LiflPlatform, PlatformProfile, RoundSpec};
use lifl_types::{ClusterConfig, LiflConfig, ModelKind, PlacementPolicy, SimTime};

fn main() {
    for updates in [20usize, 60, 100] {
        println!("--- {updates} concurrent ResNet-152 updates, 5 nodes, MC=20 ---");
        for policy in [
            PlacementPolicy::BestFit,
            PlacementPolicy::FirstFit,
            PlacementPolicy::WorstFit,
        ] {
            let config = LiflConfig {
                placement: policy,
                ..LiflConfig::default()
            };
            let mut profile = PlatformProfile::lifl(ClusterConfig::default(), &config);
            profile.warm_across_rounds = false;
            let mut platform = LiflPlatform::with_profile(profile);
            let spec = RoundSpec::simultaneous(ModelKind::ResNet152, updates, SimTime::ZERO);
            let report = platform.run_round(&spec);
            println!(
                "  {policy:?}: nodes used = {}, ACT = {:.1}s, inter-node = {} MiB",
                report.metrics.nodes_used,
                report.metrics.aggregation_completion_time.as_secs(),
                report.metrics.inter_node_bytes / (1024 * 1024)
            );
        }
    }
}
