//! Per-node gateway model (§4.2, Appendix C): the one stateful data-plane
//! component in LIFL. It performs consolidated, one-time payload processing
//! (protocol handling, deserialization, tensor-to-array conversion) before
//! writing the model update into shared memory, and the reverse on transmit.

use crate::kernel_net::KernelNetModel;
use crate::metrics::CpuCycles;
use lifl_types::SimDuration;

/// Cost model of the gateway's receive (RX) and transmit (TX) paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayModel {
    /// Kernel path used to reach the gateway from a remote client or gateway.
    pub kernel: KernelNetModel,
    /// Payload-transformation latency per mebibyte (deserialize + convert + shm write), seconds.
    pub transform_latency_per_mib: f64,
    /// Payload-transformation CPU cycles per mebibyte.
    pub transform_cycles_per_mib: f64,
    /// Idle CPU share of the gateway per node, in cores (the stateful "tax", Appendix F.1).
    pub idle_cores: f64,
    /// Resident memory of the gateway, bytes.
    pub resident_memory_bytes: u64,
}

impl Default for GatewayModel {
    fn default() -> Self {
        GatewayModel {
            kernel: KernelNetModel::default(),
            transform_latency_per_mib: 0.0022,
            transform_cycles_per_mib: 8.0e6,
            idle_cores: 0.03,
            resident_memory_bytes: 48 * 1024 * 1024,
        }
    }
}

impl GatewayModel {
    /// RX path: kernel receive + one-time payload transform + shm write.
    pub fn rx_latency(&self, bytes: u64) -> SimDuration {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        self.kernel.latency(bytes) + SimDuration::from_secs(self.transform_latency_per_mib * mib)
    }

    /// TX path: shm read + payload transform + kernel send.
    pub fn tx_latency(&self, bytes: u64) -> SimDuration {
        self.rx_latency(bytes)
    }

    /// CPU of one RX traversal.
    pub fn rx_cpu(&self, bytes: u64) -> CpuCycles {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        CpuCycles(self.kernel.cpu(bytes).0 + self.transform_cycles_per_mib * mib)
    }

    /// CPU of one TX traversal.
    pub fn tx_cpu(&self, bytes: u64) -> CpuCycles {
        self.rx_cpu(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_tax_is_smaller_than_broker_plus_sidecar() {
        use crate::{broker::BrokerModel, sidecar::ContainerSidecarModel};
        let gw = GatewayModel::default();
        let combined =
            BrokerModel::default().idle_cores + ContainerSidecarModel::default().idle_cores;
        assert!(gw.idle_cores < combined);
        assert!(
            gw.resident_memory_bytes
                < BrokerModel::default().resident_memory_bytes
                    + ContainerSidecarModel::default().resident_memory_bytes
        );
    }

    #[test]
    fn rx_and_tx_are_symmetric() {
        let gw = GatewayModel::default();
        let b = 83 * 1024 * 1024;
        assert_eq!(gw.rx_latency(b), gw.tx_latency(b));
        assert_eq!(gw.rx_cpu(b).0, gw.tx_cpu(b).0);
    }
}
