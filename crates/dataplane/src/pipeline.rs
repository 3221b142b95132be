//! End-to-end data-plane pipelines (Fig. 5, Fig. 7, Fig. 13).
//!
//! A [`Pipeline`] is a sequence of hops, each with latency, CPU and buffered
//! memory. [`DataPlaneKind`] builds the aggregator-to-aggregator pipelines of
//! Fig. 7; [`QueuingSetup`] builds the client-to-aggregator message-queuing
//! pipelines of Fig. 5 / Fig. 13 (Appendix F).

use crate::broker::BrokerModel;
use crate::gateway::GatewayModel;
use crate::grpc::GrpcChannelModel;
use crate::kernel_net::KernelNetModel;
use crate::metrics::CpuCycles;
use crate::sharedmem::SharedMemoryModel;
use crate::sidecar::ContainerSidecarModel;
use lifl_types::SimDuration;
use serde::{Deserialize, Serialize};

/// One hop of a data-plane pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopCost {
    /// Component name ("kernel", "sidecar", "broker", "shm", "gateway", "grpc").
    pub component: String,
    /// Latency contributed by this hop.
    pub latency: SimDuration,
    /// CPU cycles contributed by this hop.
    pub cpu: CpuCycles,
    /// Bytes buffered at this hop while the message is in flight.
    pub buffered_bytes: u64,
}

/// An end-to-end pipeline: an ordered list of hops.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Pipeline {
    /// Ordered hops.
    pub hops: Vec<HopCost>,
}

impl Pipeline {
    /// Total end-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.hops.iter().map(|h| h.latency).sum()
    }

    /// Total CPU cycles.
    pub fn cpu(&self) -> CpuCycles {
        self.hops.iter().map(|h| h.cpu).sum()
    }

    /// Total bytes buffered along the path (the memory cost of Fig. 13(b)).
    pub fn buffered_bytes(&self) -> u64 {
        self.hops.iter().map(|h| h.buffered_bytes).sum()
    }

    /// Bytes buffered along the path excluding hops named `component`.
    ///
    /// Fig. 13(b) reports the *queuing* memory cost and therefore excludes the
    /// kernel receive buffer that every setup pays identically.
    pub fn buffered_bytes_excluding(&self, component: &str) -> u64 {
        self.hops
            .iter()
            .filter(|h| h.component != component)
            .map(|h| h.buffered_bytes)
            .sum()
    }

    /// Latency attributed to hops whose component name matches `component`.
    pub fn latency_of(&self, component: &str) -> SimDuration {
        self.hops
            .iter()
            .filter(|h| h.component == component)
            .map(|h| h.latency)
            .sum()
    }
}

/// The aggregator-to-aggregator data planes compared in Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataPlaneKind {
    /// Serverful: direct gRPC between aggregators.
    ServerfulGrpc,
    /// Serverless: container sidecars on both ends plus a message broker in between.
    ServerlessBrokerSidecar,
    /// LIFL: shared-memory hand-off steered by the SKMSG/sockmap path.
    LiflSharedMemory,
}

impl DataPlaneKind {
    /// Builds the intra-node aggregator-to-aggregator pipeline for an update
    /// of `bytes` (the Fig. 7 microbenchmark).
    pub fn intra_node_pipeline(self, bytes: u64, models: &PipelineModels) -> Pipeline {
        let mut hops = Vec::new();
        match self {
            DataPlaneKind::ServerfulGrpc => {
                hops.push(HopCost {
                    component: "grpc".to_string(),
                    latency: models.grpc.intra_node_latency(bytes),
                    cpu: models.grpc.intra_node_cpu(bytes),
                    buffered_bytes: models.grpc.buffered_bytes(bytes),
                });
            }
            DataPlaneKind::ServerlessBrokerSidecar => {
                hops.push(HopCost {
                    component: "kernel".to_string(),
                    latency: models.grpc.intra_node_latency(bytes),
                    cpu: models.grpc.intra_node_cpu(bytes),
                    buffered_bytes: models.grpc.buffered_bytes(bytes),
                });
                hops.push(HopCost {
                    component: "sidecar".to_string(),
                    latency: models.sidecar.latency(bytes) + models.sidecar.latency(bytes),
                    cpu: CpuCycles(models.sidecar.cpu(bytes).0 * 2.0),
                    buffered_bytes: 2 * models.sidecar.buffered_bytes(bytes),
                });
                hops.push(HopCost {
                    component: "broker".to_string(),
                    latency: models.broker.latency(bytes),
                    cpu: models.broker.cpu(bytes),
                    buffered_bytes: models.broker.buffered_bytes(bytes),
                });
            }
            DataPlaneKind::LiflSharedMemory => {
                hops.push(HopCost {
                    component: "shm".to_string(),
                    latency: models.shm.latency(bytes),
                    cpu: models.shm.cpu(bytes),
                    buffered_bytes: models.shm.buffered_bytes(bytes),
                });
            }
        }
        Pipeline { hops }
    }
}

/// The client-to-aggregator message-queuing setups of Fig. 5 / Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueuingSetup {
    /// Monolithic serverful: in-memory queue inside the always-on aggregator.
    SfMono,
    /// Microservice serverful: stateless aggregator behind a message broker.
    SfMicro,
    /// Basic serverless: broker plus a container sidecar in front of the function.
    SlBasic,
    /// LIFL: per-node gateway writing directly into shared memory.
    Lifl,
}

impl QueuingSetup {
    /// All setups in the order the paper's Fig. 13 plots them.
    pub fn all() -> [QueuingSetup; 4] {
        [
            QueuingSetup::SfMono,
            QueuingSetup::Lifl,
            QueuingSetup::SfMicro,
            QueuingSetup::SlBasic,
        ]
    }

    /// Label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            QueuingSetup::SfMono => "SF-mono",
            QueuingSetup::SfMicro => "SF-micro",
            QueuingSetup::SlBasic => "SL-B",
            QueuingSetup::Lifl => "LIFL",
        }
    }

    /// Builds the client-to-aggregator pipeline for one update of `bytes`
    /// arriving from a remote client (Appendix F; client-side costs excluded).
    pub fn queuing_pipeline(self, bytes: u64, models: &PipelineModels) -> Pipeline {
        let mut hops = Vec::new();
        // Every setup first receives the update over the node's kernel stack.
        hops.push(HopCost {
            component: "kernel".to_string(),
            latency: models.kernel.latency(bytes),
            cpu: models.kernel.cpu(bytes),
            buffered_bytes: models.kernel.buffered_bytes(bytes),
        });
        match self {
            QueuingSetup::SfMono => {
                // The monolith deserializes once and queues in its own memory.
                hops.push(HopCost {
                    component: "in-memory-queue".to_string(),
                    latency: SimDuration::from_secs(
                        models.gateway.transform_latency_per_mib * mib(bytes),
                    ),
                    cpu: CpuCycles(models.gateway.transform_cycles_per_mib * mib(bytes)),
                    buffered_bytes: bytes,
                });
            }
            QueuingSetup::SfMicro => {
                hops.push(HopCost {
                    component: "broker".to_string(),
                    latency: models.broker.latency(bytes),
                    cpu: models.broker.cpu(bytes),
                    buffered_bytes: models.broker.buffered_bytes(bytes),
                });
                hops.push(HopCost {
                    component: "aggregator-rx".to_string(),
                    latency: models.kernel.latency(bytes),
                    cpu: models.kernel.cpu(bytes),
                    buffered_bytes: bytes,
                });
            }
            QueuingSetup::SlBasic => {
                hops.push(HopCost {
                    component: "broker".to_string(),
                    latency: models.broker.latency(bytes),
                    cpu: models.broker.cpu(bytes),
                    buffered_bytes: models.broker.buffered_bytes(bytes),
                });
                hops.push(HopCost {
                    component: "sidecar".to_string(),
                    latency: models.sidecar.latency(bytes),
                    cpu: models.sidecar.cpu(bytes),
                    buffered_bytes: models.sidecar.buffered_bytes(bytes),
                });
                hops.push(HopCost {
                    component: "aggregator-rx".to_string(),
                    latency: models.kernel.latency(bytes),
                    cpu: models.kernel.cpu(bytes),
                    buffered_bytes: bytes,
                });
            }
            QueuingSetup::Lifl => {
                // The gateway performs the one-time payload transform and the
                // update lands in shared memory; the aggregator reads in place.
                hops.push(HopCost {
                    component: "gateway".to_string(),
                    latency: SimDuration::from_secs(
                        models.gateway.transform_latency_per_mib * mib(bytes),
                    ),
                    cpu: CpuCycles(models.gateway.transform_cycles_per_mib * mib(bytes)),
                    buffered_bytes: bytes,
                });
                hops.push(HopCost {
                    component: "shm".to_string(),
                    latency: SimDuration::from_secs(models.shm.latency_fixed),
                    cpu: CpuCycles(models.shm.cycles_fixed),
                    buffered_bytes: 0,
                });
            }
        }
        Pipeline { hops }
    }
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The component models a pipeline is built from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineModels {
    /// Kernel networking path.
    pub kernel: KernelNetModel,
    /// gRPC channel.
    pub grpc: GrpcChannelModel,
    /// Container sidecar.
    pub sidecar: ContainerSidecarModel,
    /// Message broker.
    pub broker: BrokerModel,
    /// Shared-memory hop.
    pub shm: SharedMemoryModel,
    /// Per-node gateway.
    pub gateway: GatewayModel,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_types::ModelKind;

    fn models() -> PipelineModels {
        PipelineModels::default()
    }

    #[test]
    fn fig7_ordering_lifl_sf_sl() {
        let bytes = ModelKind::ResNet152.update_bytes();
        let lifl = DataPlaneKind::LiflSharedMemory.intra_node_pipeline(bytes, &models());
        let sf = DataPlaneKind::ServerfulGrpc.intra_node_pipeline(bytes, &models());
        let sl = DataPlaneKind::ServerlessBrokerSidecar.intra_node_pipeline(bytes, &models());
        assert!(lifl.latency() < sf.latency());
        assert!(sf.latency() < sl.latency());
        // Paper ratios: SF ~3x LIFL, SL ~5.8x LIFL, SL ~2x SF.
        let r_sf = sf.latency().as_secs() / lifl.latency().as_secs();
        let r_sl = sl.latency().as_secs() / lifl.latency().as_secs();
        assert!((2.0..4.5).contains(&r_sf), "SF/LIFL = {r_sf}");
        assert!((4.5..8.0).contains(&r_sl), "SL/LIFL = {r_sl}");
        assert!(lifl.cpu().0 < sf.cpu().0);
        assert!(sf.cpu().0 < sl.cpu().0);
    }

    #[test]
    fn broker_share_of_sl_path_is_about_20_percent() {
        let bytes = ModelKind::ResNet152.update_bytes();
        let sl = DataPlaneKind::ServerlessBrokerSidecar.intra_node_pipeline(bytes, &models());
        let share = sl.latency_of("broker").as_secs() / sl.latency().as_secs();
        assert!((0.1..0.35).contains(&share), "broker share {share}");
    }

    #[test]
    fn fig13_memory_ordering() {
        let bytes = ModelKind::ResNet34.update_bytes();
        let mono = QueuingSetup::SfMono.queuing_pipeline(bytes, &models());
        let lifl = QueuingSetup::Lifl.queuing_pipeline(bytes, &models());
        let micro = QueuingSetup::SfMicro.queuing_pipeline(bytes, &models());
        let slb = QueuingSetup::SlBasic.queuing_pipeline(bytes, &models());
        // Paper: SL-B consumes ~3x the memory of SF-mono and LIFL; SF-micro in between.
        assert!(slb.buffered_bytes() > micro.buffered_bytes());
        assert!(micro.buffered_bytes() > lifl.buffered_bytes());
        assert!(lifl.buffered_bytes() <= mono.buffered_bytes());
        let ratio = slb.buffered_bytes() as f64 / lifl.buffered_bytes() as f64;
        assert!(
            (1.8..3.2).contains(&ratio),
            "SL-B/LIFL memory ratio {ratio}"
        );
    }

    #[test]
    fn fig13_cpu_and_delay_ordering() {
        let bytes = ModelKind::ResNet152.update_bytes();
        let lifl = QueuingSetup::Lifl.queuing_pipeline(bytes, &models());
        let micro = QueuingSetup::SfMicro.queuing_pipeline(bytes, &models());
        let slb = QueuingSetup::SlBasic.queuing_pipeline(bytes, &models());
        let mono = QueuingSetup::SfMono.queuing_pipeline(bytes, &models());
        assert!(lifl.cpu().0 < slb.cpu().0);
        assert!(lifl.cpu().0 < micro.cpu().0);
        assert!(lifl.latency() < slb.latency());
        assert!(lifl.latency() < micro.latency());
        // LIFL is equivalent to the monolithic serverful design (Appendix F).
        let ratio = lifl.latency().as_secs() / mono.latency().as_secs();
        assert!(
            (0.7..1.3).contains(&ratio),
            "LIFL/SF-mono delay ratio {ratio}"
        );
    }

    #[test]
    fn all_setups_have_labels() {
        for setup in QueuingSetup::all() {
            assert!(!setup.label().is_empty());
        }
    }
}
