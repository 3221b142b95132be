//! Message broker model (§2.3, §4.2): the stateful, persistent networking
//! component serverless FL systems insert between functions to hold routes
//! and queue model updates.

use crate::metrics::CpuCycles;
use lifl_types::SimDuration;

/// Cost model of a message broker hop (publish + store + deliver).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokerModel {
    /// Added latency per mebibyte, seconds.
    pub latency_per_mib: f64,
    /// Fixed added latency per message, seconds.
    pub latency_fixed: f64,
    /// CPU cycles per mebibyte of published + delivered payload.
    pub cycles_per_mib: f64,
    /// Idle (always-on) CPU share of the broker, in cores.
    pub idle_cores: f64,
    /// Resident memory of the broker process, bytes.
    pub resident_memory_bytes: u64,
}

impl Default for BrokerModel {
    fn default() -> Self {
        BrokerModel {
            // The paper attributes ~20% of the serverless datapath delay to
            // the broker (§2.3); calibrated accordingly.
            latency_per_mib: 0.0038,
            latency_fixed: 0.004,
            cycles_per_mib: 15.0e6,
            idle_cores: 0.1,
            resident_memory_bytes: 256 * 1024 * 1024,
        }
    }
}

impl BrokerModel {
    /// Added latency for routing one message of `bytes` through the broker.
    pub fn latency(&self, bytes: u64) -> SimDuration {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        SimDuration::from_secs(self.latency_fixed + self.latency_per_mib * mib)
    }

    /// Added CPU for one message of `bytes`.
    pub fn cpu(&self, bytes: u64) -> CpuCycles {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        CpuCycles(self.cycles_per_mib * mib)
    }

    /// Bytes the broker buffers while a message waits for its consumer.
    pub fn buffered_bytes(&self, bytes: u64) -> u64 {
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broker_adds_smaller_share_than_sidecar() {
        use crate::sidecar::ContainerSidecarModel;
        let broker = BrokerModel::default();
        let sidecar = ContainerSidecarModel::default();
        let bytes = 232 * 1024 * 1024;
        assert!(broker.latency(bytes) < sidecar.latency(bytes));
    }

    #[test]
    fn costs_scale_with_size() {
        let b = BrokerModel::default();
        assert!(b.latency(100 << 20) > b.latency(1 << 20));
        assert!(b.cpu(100 << 20).0 > b.cpu(1 << 20).0);
        assert_eq!(b.buffered_bytes(123), 123);
    }
}
