//! Workspace smoke test: guards the headline API flow shown in the
//! `lifl_sim` crate-level doc example with a named test, so the example
//! contract holds even when doctests are skipped.

use lifl_sim::config::{ClusterConfig, LiflConfig};
use lifl_sim::platform::{LiflPlatform, RoundSpec};
use lifl_types::{ModelKind, SimTime};

#[test]
fn doc_example_round_aggregates_all_twenty_arrivals() {
    let mut platform = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
    let arrivals: Vec<SimTime> = (0..20).map(|i| SimTime::from_secs(i as f64)).collect();
    let report = platform.run_round(&RoundSpec::new(ModelKind::ResNet152, arrivals));

    assert_eq!(
        report.metrics.updates_aggregated, 20,
        "every arrival must be aggregated exactly once"
    );
    assert!(
        report.eval_finished > SimTime::from_secs(0.0),
        "the round must take simulated time"
    );
    assert!(
        platform.rounds_run() == 1,
        "exactly one round was driven through the platform"
    );
}
