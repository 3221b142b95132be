//! Prose may say `LiflConfig` and `CpuCycles`; tests may build them.

/// The fold policy the simulator's LiflConfig also carries.
pub enum FoldPolicy {
    FedAvg,
}

#[cfg(test)]
mod tests {
    #[test]
    fn matches_the_simulator() {
        let _ = lifl_sim::config::LiflConfig::default();
    }
}
