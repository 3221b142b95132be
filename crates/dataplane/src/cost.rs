//! The consolidated cost model used by the cluster simulator.
//!
//! [`CostModel`] combines the per-component models into the quantities the
//! round drivers need: intra-node and inter-node transfer costs, aggregation
//! and evaluation compute, gateway processing and runtime start-up costs.
//! Calibration targets come from the paper (Fig. 4, Fig. 7(a,b), §6.1) and
//! are noted beside each constant.

use crate::metrics::CpuCycles;
use crate::pipeline::{DataPlaneKind, Pipeline, PipelineModels};
use crate::system::SystemKind;
use lifl_types::{CodecKind, ModelKind, SimDuration};
use serde::{Deserialize, Serialize};

/// Effective wire seconds per MiB for inter-node transfers on the 10 GbE testbed
/// (includes TCP pacing and congestion effects; calibrated to the ~4.2 s
/// ResNet-152 cross-node transfer of §6.1).
pub const WIRE_SECS_PER_MIB: f64 = 0.0065;

/// Bytes one update of `model` puts on the wire under `codec`: every transport
/// cost in the simulator is priced off this encoded size rather than the dense
/// parameter count.
pub fn update_wire_bytes(model: ModelKind, codec: CodecKind) -> u64 {
    codec.encoded_bytes(model.update_bytes())
}

/// The cost of moving one model update along some path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransferCost {
    /// End-to-end latency of the transfer.
    pub latency: SimDuration,
    /// CPU cycles consumed on the aggregation node(s).
    pub cpu: CpuCycles,
    /// Bytes buffered along the path.
    pub buffered_bytes: u64,
    /// Bytes that crossed a node boundary (0 for intra-node paths).
    pub inter_node_bytes: u64,
}

impl From<&Pipeline> for TransferCost {
    fn from(p: &Pipeline) -> Self {
        TransferCost {
            latency: p.latency(),
            cpu: p.cpu(),
            buffered_bytes: p.buffered_bytes(),
            inter_node_bytes: 0,
        }
    }
}

/// Start-up behaviour of an aggregator runtime on some platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StartupCost {
    /// Delay before a cold instance can begin processing.
    pub cold_start: SimDuration,
    /// CPU time consumed by the start-up itself.
    pub cold_start_cpu: SimDuration,
    /// Delay for re-activating a warm (kept-alive) instance.
    pub warm_start: SimDuration,
}

/// The full cost model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostModel {
    /// Component models used to build pipelines.
    pub models: PipelineModels,
}

impl CostModel {
    /// A cost model calibrated to the paper's testbed (§6.1).
    pub fn paper_calibrated() -> Self {
        CostModel {
            models: PipelineModels::default(),
        }
    }

    /// Cost of one intra-node aggregator-to-aggregator transfer on `plane`.
    pub fn intra_node_transfer(&self, plane: DataPlaneKind, bytes: u64) -> TransferCost {
        TransferCost::from(&plane.intra_node_pipeline(bytes, &self.models))
    }

    /// Cost of one inter-node aggregator-to-aggregator transfer.
    ///
    /// Calibrated to the paper's observation that moving a single ResNet-152
    /// update across nodes takes ~4.2 s on the 10 GbE testbed (§6.1). The
    /// sending gateway's TX path, the wire time and the receiving gateway's RX
    /// path all contribute.
    pub fn inter_node_transfer(&self, bytes: u64) -> TransferCost {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        // Wire + kernel at ~10 Gb/s effective with protocol overheads.
        let wire = SimDuration::from_secs(mib * WIRE_SECS_PER_MIB);
        let tx = self.models.gateway.tx_latency(bytes);
        let rx = self.models.gateway.rx_latency(bytes);
        TransferCost {
            latency: wire + tx + rx,
            cpu: CpuCycles(
                self.models.gateway.tx_cpu(bytes).0 + self.models.gateway.rx_cpu(bytes).0,
            ),
            buffered_bytes: 2 * bytes,
            inter_node_bytes: bytes,
        }
    }

    /// Cost of ingesting one client update at a node (client → gateway → queue),
    /// for the given system. For LIFL this is the gateway RX path plus the
    /// in-place enqueue; for the baselines it is their Fig. 5 pipelines.
    pub fn client_ingest(&self, system: SystemKind, bytes: u64) -> TransferCost {
        use crate::pipeline::QueuingSetup;
        let setup = match system {
            SystemKind::Lifl | SystemKind::SlHierarchical => QueuingSetup::Lifl,
            SystemKind::Serverful | SystemKind::SfMono => QueuingSetup::SfMono,
            SystemKind::SfMicro => QueuingSetup::SfMicro,
            SystemKind::Serverless | SystemKind::SlBasic => QueuingSetup::SlBasic,
        };
        let pipeline = setup.queuing_pipeline(bytes, &self.models);
        let mut cost = TransferCost::from(&pipeline);
        // The update arrives from a remote client, so the wire time applies too.
        let mib = bytes as f64 / (1024.0 * 1024.0);
        cost.latency += SimDuration::from_secs(mib * WIRE_SECS_PER_MIB);
        cost.inter_node_bytes = bytes;
        cost
    }

    /// CPU time of one codec pass (encode *or* decode) over one update of
    /// `model`.
    ///
    /// Uniform quantization is a single linear scan (scale + round per
    /// element); top-k pays an extra selection factor. `Identity` is free —
    /// the payload already is its wire form, preserving the seed's cost model
    /// bit-for-bit.
    pub fn codec_compute(&self, model: ModelKind, codec: CodecKind) -> SimDuration {
        let params = model.parameters() as f64;
        let secs_per_param = match codec {
            CodecKind::Identity => 0.0,
            CodecKind::Uniform8 | CodecKind::Uniform4 => 1.5e-9,
            CodecKind::TopK { .. } => 4.0e-9,
        };
        SimDuration::from_secs(params * secs_per_param)
    }

    /// CPU time of one *fused* decode-fold pass over one update of `model`:
    /// the dequantize is folded into the aggregation scan
    /// (`EncodedView::fold_range_into` in `lifl-fl`), so instead of paying
    /// [`CostModel::codec_compute`] *plus* [`CostModel::aggregation_compute`]
    /// the pass costs a *fraction* of the dense fold — the quantized payload
    /// streams fewer bytes per element than dense `f32`, and `TopK` touches
    /// only its kept coordinates.
    ///
    /// `Identity` returns exactly [`CostModel::aggregation_compute`],
    /// preserving the seed cost model bit-for-bit.
    pub fn fused_fold_compute(&self, model: ModelKind, codec: CodecKind) -> SimDuration {
        let fold = self.aggregation_compute(model);
        match codec {
            CodecKind::Identity => fold,
            // One u8 (or packed nibble) stream + the f32 accumulator instead
            // of two f32 streams: ~12 (10.5) bytes of traffic per element
            // against 12 dense.
            CodecKind::Uniform8 => fold.scaled(0.80),
            CodecKind::Uniform4 => fold.scaled(0.72),
            // Folds only the kept coordinates; the scatter costs ~2x a
            // streaming element, and the whole-payload scan floors the cost.
            CodecKind::TopK { permille } => {
                let kept = f64::from(permille.clamp(1, 1000)) / 1000.0;
                fold.scaled((2.0 * kept).clamp(0.05, 1.0))
            }
        }
    }

    /// Cost of one cluster hop: shipping a node session's exported
    /// intermediate to the node hosting the global top aggregator. When the
    /// exporting node hosts the top itself (`same_node`), the intermediate
    /// crosses the local data plane (`plane`); otherwise it crosses the
    /// network via [`CostModel::inter_node_transfer`]. This is the pricing
    /// rule `lifl_core`'s in-process `Cluster` applies to every
    /// gateway-to-gateway hop, mirroring the simulated platform's top-stage
    /// accounting.
    pub fn hop_transfer(&self, same_node: bool, plane: DataPlaneKind, bytes: u64) -> TransferCost {
        if same_node {
            self.intra_node_transfer(plane, bytes)
        } else {
            self.inter_node_transfer(bytes)
        }
    }

    /// CPU time to aggregate one model update into a running accumulator.
    ///
    /// Calibrated so a ResNet-152 update (~60 M parameters) takes ~0.5 s, which
    /// together with the transfer costs reproduces the per-round times of
    /// Fig. 4 (57–60 s serverful) and Fig. 7(c) (44.9 s LIFL).
    pub fn aggregation_compute(&self, model: ModelKind) -> SimDuration {
        let params = model.parameters() as f64;
        SimDuration::from_secs(params * 8.3e-9)
    }

    /// CPU time to evaluate the global model after a round (the "Eval." task of Fig. 4).
    pub fn evaluation_compute(&self, model: ModelKind) -> SimDuration {
        let params = model.parameters() as f64;
        SimDuration::from_secs(2.0 + params * 25.0e-9)
    }

    /// Start-up costs of an aggregator runtime on each platform.
    pub fn startup(&self, system: SystemKind) -> StartupCost {
        match system {
            // Knative-style function pods: image pull is cached but the pod,
            // sidecar and runtime initialisation dominate.
            SystemKind::Serverless | SystemKind::SlBasic => StartupCost {
                cold_start: SimDuration::from_secs(4.0),
                cold_start_cpu: SimDuration::from_secs(2.0),
                warm_start: SimDuration::from_secs(0.05),
            },
            // LIFL / SL-H runtimes are lightweight processes attached to shm.
            SystemKind::Lifl | SystemKind::SlHierarchical => StartupCost {
                cold_start: SimDuration::from_secs(0.8),
                cold_start_cpu: SimDuration::from_secs(0.4),
                warm_start: SimDuration::from_secs(0.01),
            },
            // Serverful aggregators are always on: no start-up on the critical path.
            SystemKind::Serverful | SystemKind::SfMono | SystemKind::SfMicro => StartupCost {
                cold_start: SimDuration::ZERO,
                cold_start_cpu: SimDuration::ZERO,
                warm_start: SimDuration::ZERO,
            },
        }
    }

    /// Always-on CPU cores consumed per aggregator slot for each system
    /// (sidecars, brokers, gateways and the serverful aggregator itself).
    pub fn idle_cores_per_aggregator(&self, system: SystemKind) -> f64 {
        match system {
            SystemKind::Serverful | SystemKind::SfMono | SystemKind::SfMicro => 1.0,
            SystemKind::Serverless | SystemKind::SlBasic => {
                self.models.sidecar.idle_cores + self.models.broker.idle_cores / 4.0
            }
            SystemKind::Lifl | SystemKind::SlHierarchical => 0.0,
        }
    }

    /// Always-on CPU cores consumed per *node* by stateful data-plane
    /// components (LIFL's gateway "tax", the broker for serverless setups).
    pub fn idle_cores_per_node(&self, system: SystemKind) -> f64 {
        match system {
            SystemKind::Lifl | SystemKind::SlHierarchical => self.models.gateway.idle_cores,
            SystemKind::Serverless | SystemKind::SlBasic | SystemKind::SfMicro => {
                self.models.broker.idle_cores
            }
            SystemKind::Serverful | SystemKind::SfMono => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inter_node_resnet152_close_to_paper() {
        let cm = CostModel::paper_calibrated();
        let cost = cm.inter_node_transfer(ModelKind::ResNet152.update_bytes());
        let lat = cost.latency.as_secs();
        assert!((3.4..5.2).contains(&lat), "inter-node R152 latency {lat}");
        assert_eq!(cost.inter_node_bytes, ModelKind::ResNet152.update_bytes());
    }

    #[test]
    fn intra_node_faster_than_inter_node() {
        let cm = CostModel::paper_calibrated();
        let bytes = ModelKind::ResNet152.update_bytes();
        let intra = cm.intra_node_transfer(DataPlaneKind::LiflSharedMemory, bytes);
        let inter = cm.inter_node_transfer(bytes);
        assert!(intra.latency < inter.latency);
        assert_eq!(intra.inter_node_bytes, 0);
    }

    #[test]
    fn aggregation_compute_scales_with_model() {
        let cm = CostModel::paper_calibrated();
        let small = cm.aggregation_compute(ModelKind::ResNet18);
        let large = cm.aggregation_compute(ModelKind::ResNet152);
        assert!(small < large);
        assert!((large.as_secs() - 0.5).abs() < 0.1, "{}", large.as_secs());
    }

    #[test]
    fn startup_ordering_matches_paper() {
        let cm = CostModel::paper_calibrated();
        let sl = cm.startup(SystemKind::Serverless);
        let lifl = cm.startup(SystemKind::Lifl);
        let sf = cm.startup(SystemKind::Serverful);
        assert!(sl.cold_start > lifl.cold_start);
        assert_eq!(sf.cold_start, SimDuration::ZERO);
        assert!(lifl.warm_start < lifl.cold_start);
    }

    #[test]
    fn serverful_pays_idle_aggregators_lifl_does_not() {
        let cm = CostModel::paper_calibrated();
        assert!(cm.idle_cores_per_aggregator(SystemKind::Serverful) > 0.9);
        assert_eq!(cm.idle_cores_per_aggregator(SystemKind::Lifl), 0.0);
        assert!(cm.idle_cores_per_node(SystemKind::Lifl) > 0.0);
        assert!(
            cm.idle_cores_per_node(SystemKind::Lifl)
                < cm.idle_cores_per_node(SystemKind::Serverless)
        );
    }

    #[test]
    fn encoded_transfers_price_off_encoded_bytes() {
        let cm = CostModel::paper_calibrated();
        let model = ModelKind::ResNet152;
        let inter = |codec| cm.inter_node_transfer(update_wire_bytes(model, codec));
        let identity = inter(CodecKind::Identity);
        let u8c = inter(CodecKind::Uniform8);
        let u4c = inter(CodecKind::Uniform4);
        // Identity is bit-identical to the pre-codec pricing.
        assert_eq!(identity, cm.inter_node_transfer(model.update_bytes()));
        assert!(identity.inter_node_bytes >= 4 * u8c.inter_node_bytes - 64);
        assert!(u8c.inter_node_bytes > u4c.inter_node_bytes);
        assert!(identity.latency > u8c.latency && u8c.latency > u4c.latency);
        let intra = |codec| {
            cm.intra_node_transfer(
                DataPlaneKind::LiflSharedMemory,
                update_wire_bytes(model, codec),
            )
        };
        assert!(intra(CodecKind::Identity).latency > intra(CodecKind::Uniform8).latency);
    }

    #[test]
    fn codec_compute_is_cheap_relative_to_aggregation() {
        let cm = CostModel::paper_calibrated();
        let model = ModelKind::ResNet152;
        assert_eq!(
            cm.codec_compute(model, CodecKind::Identity),
            SimDuration::ZERO
        );
        let quant = cm.codec_compute(model, CodecKind::Uniform8);
        let topk = cm.codec_compute(model, CodecKind::TopK { permille: 50 });
        assert!(quant > SimDuration::ZERO);
        assert!(topk > quant);
        // A codec pass must stay well under the aggregation fold itself,
        // otherwise compressing would never pay off.
        assert!(topk < cm.aggregation_compute(model));
    }

    #[test]
    fn fused_fold_discounts_quantized_codecs() {
        let cm = CostModel::paper_calibrated();
        let model = ModelKind::ResNet152;
        let dense_fold = cm.aggregation_compute(model);
        // Identity is bit-identical to the seed fold cost.
        assert_eq!(
            cm.fused_fold_compute(model, CodecKind::Identity),
            dense_fold
        );
        // The fused pass beats decode-then-fold for every lossy codec...
        for codec in [
            CodecKind::Uniform8,
            CodecKind::Uniform4,
            CodecKind::TopK { permille: 50 },
        ] {
            let fused = cm.fused_fold_compute(model, codec);
            let two_step = cm.codec_compute(model, codec) + dense_fold;
            assert!(fused < two_step, "{codec}: {fused:?} !< {two_step:?}");
            // ...and even the dense fold alone (it streams fewer bytes).
            assert!(fused < dense_fold, "{codec}: {fused:?} !< {dense_fold:?}");
        }
        // Stronger codecs fold faster.
        assert!(
            cm.fused_fold_compute(model, CodecKind::Uniform4)
                < cm.fused_fold_compute(model, CodecKind::Uniform8)
        );
        assert!(
            cm.fused_fold_compute(model, CodecKind::TopK { permille: 50 })
                < cm.fused_fold_compute(model, CodecKind::Uniform4)
        );
    }

    #[test]
    fn wire_bytes_shrink_with_stronger_codecs() {
        let sizes: Vec<u64> = CodecKind::ablation_set()
            .iter()
            .map(|c| update_wire_bytes(ModelKind::ResNet18, *c))
            .collect();
        for pair in sizes.windows(2) {
            assert!(pair[0] > pair[1], "{sizes:?}");
        }
        let ratio = sizes[0] as f64 / sizes[1] as f64;
        assert!(ratio >= 3.99, "uniform8 reduction only {ratio}x");
    }

    #[test]
    fn client_ingest_includes_wire_time() {
        let cm = CostModel::paper_calibrated();
        let bytes = ModelKind::ResNet18.update_bytes();
        let lifl = cm.client_ingest(SystemKind::Lifl, bytes);
        let slb = cm.client_ingest(SystemKind::Serverless, bytes);
        assert!(lifl.latency < slb.latency);
        assert_eq!(lifl.inter_node_bytes, bytes);
    }
}
