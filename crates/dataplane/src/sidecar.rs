//! Container-based sidecar model (§2.3): an always-on proxy container that
//! intercepts and forwards every message to/from a serverless function.

use crate::metrics::CpuCycles;
use lifl_types::SimDuration;

/// Cost model of a container sidecar on the datapath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerSidecarModel {
    /// Added latency per mebibyte for interception + forwarding, seconds.
    pub latency_per_mib: f64,
    /// Fixed added latency per message, seconds.
    pub latency_fixed: f64,
    /// CPU cycles per mebibyte for the extra network processing.
    pub cycles_per_mib: f64,
    /// Idle (always-on) CPU share of one sidecar container, in cores.
    pub idle_cores: f64,
    /// Resident memory of one sidecar container, bytes.
    pub resident_memory_bytes: u64,
}

impl Default for ContainerSidecarModel {
    fn default() -> Self {
        ContainerSidecarModel {
            // One interception (RX proxy + TX proxy) roughly doubles the
            // kernel-path work; calibrated so SL ends up ~6x LIFL (Fig. 7(a)).
            latency_per_mib: 0.0058,
            latency_fixed: 0.003,
            cycles_per_mib: 22.0e6,
            idle_cores: 0.05,
            resident_memory_bytes: 64 * 1024 * 1024,
        }
    }
}

impl ContainerSidecarModel {
    /// Added latency for one message of `bytes` through the sidecar.
    pub fn latency(&self, bytes: u64) -> SimDuration {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        SimDuration::from_secs(self.latency_fixed + self.latency_per_mib * mib)
    }

    /// Added CPU for one message of `bytes`.
    pub fn cpu(&self, bytes: u64) -> CpuCycles {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        CpuCycles(self.cycles_per_mib * mib)
    }

    /// Bytes the sidecar buffers for one in-flight message.
    pub fn buffered_bytes(&self, bytes: u64) -> u64 {
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cost_is_load_independent() {
        // The platform charges `wall.scaled(idle_cores)` per sidecar whatever
        // the traffic: 0.05 cores over 100 s is 5 CPU-seconds.
        let sc = ContainerSidecarModel::default();
        let idle = SimDuration::from_secs(100.0).scaled(sc.idle_cores);
        assert!((idle.as_secs() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn message_costs_scale() {
        let sc = ContainerSidecarModel::default();
        assert!(sc.latency(200 * 1024 * 1024) > sc.latency(1024));
        assert!(sc.cpu(200 * 1024 * 1024).0 > sc.cpu(1024).0);
        assert_eq!(sc.buffered_bytes(7), 7);
    }
}
