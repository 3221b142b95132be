//! Shared-memory hop model: LIFL's intra-node zero-copy transfer (§4.1).

use crate::metrics::CpuCycles;
use lifl_types::SimDuration;

/// Cost model of one shared-memory hand-off between two co-located
/// aggregators: the payload stays in place; only the 16-byte object key moves
/// through the SKMSG path, and the consumer touches the payload when it
/// aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedMemoryModel {
    /// Latency per mebibyte for the consumer-side access of the payload, seconds.
    pub latency_per_mib: f64,
    /// Fixed latency of the SKMSG key delivery, seconds.
    pub latency_fixed: f64,
    /// CPU cycles per mebibyte touched by the consumer.
    pub cycles_per_mib: f64,
    /// Fixed CPU cycles per SKMSG invocation (the eBPF program run).
    pub cycles_fixed: f64,
}

impl Default for SharedMemoryModel {
    fn default() -> Self {
        // Calibrated to Fig. 7(a): 0.14 / 0.25 / 0.76 s for 44 / 83 / 232 MiB,
        // i.e. ~3.3 ms per MiB, and Fig. 7(b): 0.21-2.45 Gcycles.
        SharedMemoryModel {
            latency_per_mib: 0.00328,
            latency_fixed: 0.0002,
            cycles_per_mib: 10.5e6,
            cycles_fixed: 5.0e6,
        }
    }
}

impl SharedMemoryModel {
    /// Latency of one shared-memory hand-off of `bytes`.
    pub fn latency(&self, bytes: u64) -> SimDuration {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        SimDuration::from_secs(self.latency_fixed + self.latency_per_mib * mib)
    }

    /// CPU cycles of one shared-memory hand-off of `bytes`.
    pub fn cpu(&self, bytes: u64) -> CpuCycles {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        CpuCycles(self.cycles_fixed + self.cycles_per_mib * mib)
    }

    /// Bytes buffered: the single shared copy of the payload.
    pub fn buffered_bytes(&self, bytes: u64) -> u64 {
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_types::CodecKind;

    #[test]
    fn matches_fig7a_calibration() {
        let m = SharedMemoryModel::default();
        let r18 = m.latency(44 * 1024 * 1024).as_secs();
        let r34 = m.latency(83 * 1024 * 1024).as_secs();
        let r152 = m.latency(232 * 1024 * 1024).as_secs();
        assert!((r18 - 0.14).abs() < 0.02, "ResNet-18: {r18}");
        assert!((r34 - 0.25).abs() < 0.04, "ResNet-34: {r34}");
        assert!((r152 - 0.76).abs() < 0.05, "ResNet-152: {r152}");
    }

    #[test]
    fn single_copy_in_memory() {
        let m = SharedMemoryModel::default();
        assert_eq!(m.buffered_bytes(500), 500);
        assert!(m.cpu(1 << 20).0 > 0.0);
    }

    #[test]
    fn encoded_handoff_is_cheaper_than_dense() {
        let m = SharedMemoryModel::default();
        let dense = 232 * 1024 * 1024;
        let stored = |codec: CodecKind| codec.encoded_bytes(dense);
        let identity = m.latency(stored(CodecKind::Identity));
        let quantized = m.latency(stored(CodecKind::Uniform8));
        assert_eq!(identity, m.latency(dense));
        assert!(quantized < identity);
        assert!(m.cpu(stored(CodecKind::Uniform4)).0 < m.cpu(dense).0);
    }
}
