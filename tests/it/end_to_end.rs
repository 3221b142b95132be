//! End-to-end: real FedAvg training combined with the LIFL cluster simulation.

use lifl_sim::config::{ClusterConfig, LiflConfig};
use lifl_sim::platform::LiflPlatform;
use lifl_sim::AggregationSystem;
use lifl_sim::{WorkloadDriver, WorkloadSetup};

fn tiny_setup(rounds: usize) -> WorkloadSetup {
    let mut setup = WorkloadSetup::resnet18(rounds);
    setup.population.total_clients = 60;
    setup.population.active_per_round = 20;
    setup.dataset.num_clients = 60;
    setup.dataset.test_samples = 300;
    setup
}

#[test]
fn accuracy_improves_and_costs_accumulate() {
    let driver = WorkloadDriver::new(tiny_setup(8));
    let mut lifl = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
    let out = driver.run(&mut lifl);
    assert_eq!(out.accuracy_vs_time.len(), 8);
    let first = out.accuracy_vs_time.points.first().unwrap().1;
    let last = out.accuracy_vs_time.points.last().unwrap().1;
    assert!(last > first, "accuracy should improve: {first} -> {last}");
    assert!(out.total_cpu.as_secs() > 0.0);
    assert!(out.total_wall.as_secs() > 0.0);
    assert!(lifl.rounds_run() == 8);
}

#[test]
fn workload_is_deterministic_for_fixed_seed() {
    let driver = WorkloadDriver::new(tiny_setup(4));
    let mut a = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
    let mut b = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
    let out_a = driver.run(&mut a);
    let out_b = driver.run(&mut b);
    assert_eq!(out_a.accuracy_vs_time.points, out_b.accuracy_vs_time.points);
    assert_eq!(out_a.total_cpu, out_b.total_cpu);
    assert_eq!(a.system(), b.system());
}
