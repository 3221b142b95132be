//! Constructors for the baseline aggregation systems.

use crate::config::{AggregationTiming, ClusterConfig, PlacementPolicy};
use crate::platform::{LiflPlatform, PlatformProfile};
use lifl_dataplane::DataPlaneKind;
use lifl_dataplane::SystemKind;
use lifl_types::CodecKind;

/// The serverful baseline (SF): always-on aggregators over gRPC (Fig. 2(a)).
pub fn serverful(cluster: ClusterConfig) -> LiflPlatform {
    serverful_with_codec(cluster, CodecKind::Identity)
}

/// [`serverful`] with every transfer priced off `codec`-encoded bytes (the
/// Fig. 9 codec × system sweep) — the one owner of the SF profile either way.
pub fn serverful_with_codec(cluster: ClusterConfig, codec: CodecKind) -> LiflPlatform {
    LiflPlatform::with_profile(PlatformProfile::serverful(cluster).with_codec(codec))
}

/// The serverless baseline (SL): Knative-style functions behind a broker with
/// container sidecars (Fig. 2(b)).
pub fn serverless(cluster: ClusterConfig) -> LiflPlatform {
    serverless_with_codec(cluster, CodecKind::Identity)
}

/// [`serverless`] with every transfer priced off `codec`-encoded bytes.
pub fn serverless_with_codec(cluster: ClusterConfig, codec: CodecKind) -> LiflPlatform {
    LiflPlatform::with_profile(PlatformProfile::serverless(cluster).with_codec(codec))
}

/// The SL-H baseline of Fig. 8: LIFL's data plane with a conventional
/// serverless control plane (least connection, reactive scaling, lazy).
pub fn sl_hierarchical(cluster: ClusterConfig) -> LiflPlatform {
    LiflPlatform::with_profile(PlatformProfile::sl_hierarchical(cluster))
}

/// The "no hierarchy" (NH) configuration of Fig. 4: a single aggregator on one
/// node consuming every update itself, on the serverful data plane.
pub fn no_hierarchy_profile(mut cluster: ClusterConfig) -> PlatformProfile {
    cluster.aggregation_nodes = 1;
    PlatformProfile {
        system: SystemKind::Serverful,
        placement: PlacementPolicy::FirstFit,
        timing: AggregationTiming::Eager,
        hierarchy_planning: true,
        reuse_runtimes: false,
        // A fan-in as large as the whole round means one leaf == one flat aggregator.
        leaf_fan_in: u32::MAX,
        always_on: true,
        dataplane: DataPlaneKind::ServerfulGrpc,
        warm_across_rounds: true,
        codec: lifl_types::CodecKind::Identity,
        aggregation_shards: 1,
        max_interior_fan_in: 0,
        cluster,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::RoundSpec;
    use crate::system::AggregationSystem;
    use lifl_types::{ModelKind, SimTime};

    #[test]
    fn baselines_have_expected_identities() {
        let cluster = ClusterConfig::default();
        assert_eq!(serverful(cluster.clone()).system(), SystemKind::Serverful);
        assert_eq!(serverless(cluster.clone()).system(), SystemKind::Serverless);
        assert_eq!(
            sl_hierarchical(cluster.clone()).system(),
            SystemKind::SlHierarchical
        );
        assert_eq!(serverful(cluster).label(), "SF");
    }

    #[test]
    fn nh_uses_single_node_and_flat_aggregation() {
        let profile = no_hierarchy_profile(ClusterConfig::default());
        let mut nh = LiflPlatform::with_profile(profile);
        let spec = RoundSpec::simultaneous(ModelKind::ResNet152, 8, SimTime::ZERO);
        let report = nh.run_round(&spec);
        assert_eq!(report.metrics.nodes_used, 1);
        // One flat aggregator => no middle rows in the timeline.
        assert!(!report.gantt.rows().iter().any(|r| r.contains("MID")));
    }

    #[test]
    fn serverless_round_is_slower_than_serverful() {
        let spec = RoundSpec::simultaneous(ModelKind::ResNet152, 8, SimTime::ZERO);
        let sf_act = serverful(ClusterConfig::default())
            .run_round(&spec)
            .metrics
            .aggregation_completion_time;
        let sl_act = serverless(ClusterConfig::default())
            .run_round(&spec)
            .metrics
            .aggregation_completion_time;
        assert!(sl_act > sf_act, "SL {sl_act} should exceed SF {sf_act}");
    }
}
