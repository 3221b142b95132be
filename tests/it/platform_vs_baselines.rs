//! The headline comparative invariants of the evaluation (§6): LIFL completes
//! aggregation faster and cheaper than the serverless baseline, and never uses
//! more nodes than SL-H for the same load.

use lifl_integration::spread_arrivals;
use lifl_sim::config::{ClusterConfig, LiflConfig};
use lifl_sim::platform::{LiflPlatform, RoundSpec};
use lifl_sim::{serverless, sl_hierarchical};
use lifl_types::{ModelKind, SimTime};

fn lifl() -> LiflPlatform {
    LiflPlatform::new(ClusterConfig::default(), LiflConfig::default())
}

#[test]
fn lifl_act_within_cluster_capacity_beats_slh() {
    for n in [20usize, 40, 60, 80] {
        let spec = RoundSpec::simultaneous(ModelKind::ResNet152, n, SimTime::ZERO);
        let lifl_act = lifl().run_round(&spec).metrics.aggregation_completion_time;
        let slh_act = sl_hierarchical(ClusterConfig::default())
            .run_round(&spec)
            .metrics
            .aggregation_completion_time;
        assert!(
            lifl_act <= slh_act,
            "n={n}: LIFL {:.1}s vs SL-H {:.1}s",
            lifl_act.as_secs(),
            slh_act.as_secs()
        );
    }
}

#[test]
fn lifl_never_uses_more_nodes_than_slh() {
    for n in [10usize, 20, 50, 100] {
        let spec = RoundSpec::simultaneous(ModelKind::ResNet152, n, SimTime::ZERO);
        let lifl_nodes = lifl().run_round(&spec).metrics.nodes_used;
        let slh_nodes = sl_hierarchical(ClusterConfig::default())
            .run_round(&spec)
            .metrics
            .nodes_used;
        assert!(lifl_nodes <= slh_nodes, "n={n}");
    }
}

#[test]
fn lifl_cpu_beats_serverless_for_every_model() {
    for model in ModelKind::paper_models() {
        let spec = RoundSpec::new(model, spread_arrivals(30, 1.0));
        let lifl_cpu = lifl().run_round(&spec).metrics.cpu_time;
        let sl_cpu = serverless(ClusterConfig::default())
            .run_round(&spec)
            .metrics
            .cpu_time;
        assert!(
            lifl_cpu < sl_cpu,
            "{model}: LIFL {:.1}s vs SL {:.1}s",
            lifl_cpu.as_secs(),
            sl_cpu.as_secs()
        );
    }
}

#[test]
fn act_grows_with_load() {
    let mut previous = None;
    for n in [20usize, 60, 100] {
        let spec = RoundSpec::simultaneous(ModelKind::ResNet152, n, SimTime::ZERO);
        let act = lifl().run_round(&spec).metrics.aggregation_completion_time;
        if let Some(prev) = previous {
            assert!(act >= prev, "ACT should not shrink as load grows");
        }
        previous = Some(act);
    }
}
