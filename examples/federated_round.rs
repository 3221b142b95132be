//! Runs a small synchronous FedAvg workload end to end: synthetic non-IID
//! dataset, client population with hibernation, real local SGD training, and
//! the LIFL cluster simulation providing per-round wall-clock and CPU costs.
//!
//! Run with: `cargo run -p lifl-examples --example federated_round`

use lifl_sim::config::{ClusterConfig, LiflConfig};
use lifl_sim::platform::LiflPlatform;
use lifl_sim::{serverless, WorkloadDriver, WorkloadSetup};

fn main() {
    let mut setup = WorkloadSetup::resnet18(8);
    setup.population.total_clients = 120;
    setup.population.active_per_round = 40;
    setup.dataset.num_clients = 120;
    let driver = WorkloadDriver::new(setup);

    let mut lifl = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
    let lifl_out = driver.run(&mut lifl);
    let mut sl = serverless(ClusterConfig::default());
    let sl_out = driver.run(&mut sl);

    for out in [&lifl_out, &sl_out] {
        println!(
            "{:<5} final accuracy {:.1}%  wall {:.2} h  aggregation CPU {:.2} h",
            out.system,
            out.final_accuracy,
            out.total_wall.as_hours(),
            out.total_cpu.as_hours()
        );
    }
    println!(
        "LIFL speedup over SL: {:.2}x wall, {:.2}x CPU",
        sl_out.total_wall.as_secs() / lifl_out.total_wall.as_secs().max(1e-9),
        sl_out.total_cpu.as_secs() / lifl_out.total_cpu.as_secs().max(1e-9)
    );
}
