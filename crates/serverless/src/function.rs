//! Function specifications and instance lifecycle states.

use lifl_dataplane::SystemKind;
use lifl_types::SimDuration;
use serde::{Deserialize, Serialize};

/// Static description of a serverless function (the aggregator function).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionSpec {
    /// Human-readable name.
    pub name: String,
    /// The platform the function runs on (drives start-up costs).
    pub system: SystemKind,
    /// CPU cores requested per instance.
    pub cores_per_instance: f64,
    /// Memory requested per instance, bytes.
    pub memory_per_instance: u64,
    /// How long an idle instance is kept warm before termination.
    pub keep_alive: SimDuration,
}

impl FunctionSpec {
    /// The aggregator function spec used by the serverless baseline (§6.1).
    pub fn aggregator(system: SystemKind) -> Self {
        FunctionSpec {
            name: "aggregator".to_string(),
            system,
            cores_per_instance: 2.0,
            memory_per_instance: 2 * 1024 * 1024 * 1024,
            keep_alive: SimDuration::from_secs(60.0),
        }
    }
}

/// Lifecycle state of one function instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstanceState {
    /// Instance is being created (cold start in progress).
    Starting,
    /// Instance is warm and idle.
    Idle,
    /// Instance is processing work.
    Busy,
    /// Instance has been terminated.
    Terminated,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregator_spec_defaults() {
        let spec = FunctionSpec::aggregator(SystemKind::Serverless);
        assert_eq!(spec.name, "aggregator");
        assert!(spec.cores_per_instance > 0.0);
        assert!(spec.keep_alive.as_secs() > 0.0);
    }

    #[test]
    fn states_are_distinct() {
        assert_ne!(InstanceState::Idle, InstanceState::Busy);
        assert_ne!(InstanceState::Starting, InstanceState::Terminated);
    }
}
