//! Kernel networking path model: protocol processing, copies and
//! user/kernel boundary crossings (§2.3, §4.1).

use crate::metrics::CpuCycles;
use lifl_types::SimDuration;

/// Cost model for one traversal of the kernel TCP/IP stack on one side
/// (either transmit or receive) for a payload of a given size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelNetModel {
    /// Latency per mebibyte of payload (protocol processing + copies), seconds.
    pub latency_per_mib: f64,
    /// Fixed per-message latency (syscall, interrupt, wakeup), seconds.
    pub latency_fixed: f64,
    /// CPU cycles per mebibyte (copy + checksum + segmentation).
    pub cycles_per_mib: f64,
    /// Fixed CPU cycles per message.
    pub cycles_fixed: f64,
}

impl Default for KernelNetModel {
    fn default() -> Self {
        // Calibrated so that one full serverful gRPC transfer (TX + RX + gRPC
        // serialization) lands at ~3x the LIFL shared-memory latency of
        // Fig. 7(a): ~2.3 s for a 232 MiB ResNet-152 update.
        KernelNetModel {
            latency_per_mib: 0.0036,
            latency_fixed: 0.002,
            cycles_per_mib: 14.0e6,
            cycles_fixed: 40.0e6,
        }
    }
}

impl KernelNetModel {
    /// Latency of one stack traversal for `bytes` of payload.
    pub fn latency(&self, bytes: u64) -> SimDuration {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        SimDuration::from_secs(self.latency_fixed + self.latency_per_mib * mib)
    }

    /// CPU cycles of one stack traversal for `bytes` of payload.
    pub fn cpu(&self, bytes: u64) -> CpuCycles {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        CpuCycles(self.cycles_fixed + self.cycles_per_mib * mib)
    }

    /// Bytes buffered in kernel memory during the traversal (one copy of the payload).
    pub fn buffered_bytes(&self, bytes: u64) -> u64 {
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_scales_with_size() {
        let m = KernelNetModel::default();
        let small = m.latency(44 * 1024 * 1024);
        let large = m.latency(232 * 1024 * 1024);
        assert!(large > small);
        assert!(large.as_secs() < 1.5, "single traversal stays below 1.5s");
    }

    #[test]
    fn cpu_has_fixed_component() {
        let m = KernelNetModel::default();
        assert!(m.cpu(0).0 > 0.0);
        assert!(m.cpu(1024 * 1024).0 > m.cpu(0).0);
    }

    #[test]
    fn buffers_one_copy() {
        let m = KernelNetModel::default();
        assert_eq!(m.buffered_bytes(1000), 1000);
    }
}
