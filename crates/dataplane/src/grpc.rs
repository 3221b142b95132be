//! gRPC channel model: serialization/deserialization and framing on top of
//! kernel networking. Used by the serverful baseline (§6.1 "SF").

use crate::kernel_net::KernelNetModel;
use crate::metrics::CpuCycles;
use lifl_types::SimDuration;

/// Cost model of a gRPC message exchange between two co-located or remote
/// processes: protobuf (de)serialization plus two kernel-stack traversals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrpcChannelModel {
    /// The kernel path underneath the channel.
    pub kernel: KernelNetModel,
    /// Serialization + deserialization latency per mebibyte, seconds.
    pub serde_latency_per_mib: f64,
    /// Serialization + deserialization CPU cycles per mebibyte.
    pub serde_cycles_per_mib: f64,
}

impl Default for GrpcChannelModel {
    fn default() -> Self {
        GrpcChannelModel {
            kernel: KernelNetModel::default(),
            serde_latency_per_mib: 0.0026,
            serde_cycles_per_mib: 9.0e6,
        }
    }
}

impl GrpcChannelModel {
    /// End-to-end latency of sending `bytes` from one process to another on
    /// the same node (TX traversal + RX traversal + serde on both ends).
    pub fn intra_node_latency(&self, bytes: u64) -> SimDuration {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        self.kernel.latency(bytes)
            + self.kernel.latency(bytes)
            + SimDuration::from_secs(self.serde_latency_per_mib * mib)
    }

    /// CPU cycles consumed on the node for one intra-node gRPC transfer.
    pub fn intra_node_cpu(&self, bytes: u64) -> CpuCycles {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        CpuCycles(self.kernel.cpu(bytes).0 * 2.0 + self.serde_cycles_per_mib * mib)
    }

    /// Bytes buffered along the path (sender copy + receiver copy).
    pub fn buffered_bytes(&self, bytes: u64) -> u64 {
        2 * bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_types::CodecKind;

    #[test]
    fn resnet152_latency_close_to_calibration() {
        let g = GrpcChannelModel::default();
        let lat = g.intra_node_latency(232 * 1024 * 1024).as_secs();
        // Paper: SF is ~3x LIFL's 0.76 s => ~2.3 s.
        assert!((1.6..3.2).contains(&lat), "got {lat}");
    }

    #[test]
    fn cpu_and_memory_grow_with_size() {
        let g = GrpcChannelModel::default();
        assert!(g.intra_node_cpu(200).0 < g.intra_node_cpu(2_000_000).0);
        assert_eq!(g.buffered_bytes(100), 200);
    }

    #[test]
    fn quantized_channel_is_cheaper() {
        let g = GrpcChannelModel::default();
        let dense = 83 * 1024 * 1024;
        let framed = |codec: CodecKind| codec.encoded_bytes(dense);
        assert_eq!(
            g.intra_node_latency(framed(CodecKind::Identity)),
            g.intra_node_latency(dense)
        );
        assert!(g.intra_node_latency(framed(CodecKind::Uniform8)) < g.intra_node_latency(dense));
        assert!(g.intra_node_cpu(framed(CodecKind::Uniform4)).0 < g.intra_node_cpu(dense).0);
    }
}
