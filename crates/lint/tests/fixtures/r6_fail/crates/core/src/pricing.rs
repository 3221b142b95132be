//! Engine code that names the simulator's types.

use lifl_dataplane::{CpuCycles, SystemKind};

pub fn cost(config: &lifl_sim::config::LiflConfig) -> CpuCycles {
    CpuCycles(config.leaf_fan_in as f64)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_build_a_simulator_config() {
        let _ = lifl_sim::config::ClusterConfig::default();
    }
}
