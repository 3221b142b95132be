//! Function chains and the cascading cold-start effect (§2.3).
//!
//! Hierarchical aggregation on a serverless platform is a *function chain*:
//! leaf aggregators feed middle aggregators feed the top aggregator. With a
//! purely reactive autoscaler, the platform only notices that the next stage
//! needs an instance when the previous stage tries to send to it, so cold
//! starts serialise along the chain — the "cascading effect" (Park et al.,
//! 2021b) the paper cites as a motivation for hierarchy-aware planning and
//! runtime reuse (§5.2, §5.3).
//!
//! [`FunctionChain`] models a linear chain of stages, each backed by an
//! [`InstancePool`], and computes the end-to-end readiness time under
//! reactive scaling (cold starts serialise) versus pre-planned scaling
//! (every stage is started concurrently before traffic arrives).

use crate::function::FunctionSpec;
use crate::instance::InstancePool;
use lifl_dataplane::cost::StartupCost;
use lifl_dataplane::SystemKind;
use lifl_types::{SimDuration, SimTime};

/// How the chain's instances are brought up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainScaling {
    /// Each stage is started only when the previous stage produces output
    /// (the reactive behaviour of threshold autoscalers).
    Reactive,
    /// All stages are started concurrently before traffic arrives
    /// (what LIFL's hierarchy planner and runtime reuse achieve).
    PrePlanned,
}

/// Per-stage readiness report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageReadiness {
    /// Index of the stage within the chain (0 = entry stage).
    pub stage: usize,
    /// When the stage's instance is ready to process.
    pub ready_at: SimTime,
    /// Whether bringing the stage up required a cold start.
    pub cold_start: bool,
}

/// The result of scaling a chain for one wave of traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainReadiness {
    /// Scaling mode used.
    pub scaling: ChainScaling,
    /// Per-stage readiness, in chain order.
    pub stages: Vec<StageReadiness>,
    /// Time at which the whole chain can process end to end.
    pub chain_ready_at: SimTime,
    /// Total start-up CPU consumed across stages.
    pub startup_cpu: SimDuration,
}

impl ChainReadiness {
    /// Number of cold starts incurred.
    pub fn cold_starts(&self) -> usize {
        self.stages.iter().filter(|s| s.cold_start).count()
    }
}

/// A linear chain of serverless function stages.
#[derive(Debug)]
pub struct FunctionChain {
    stages: Vec<InstancePool>,
}

impl FunctionChain {
    /// Builds a chain of `depth` aggregator stages on `system`'s platform,
    /// all sharing the same start-up cost model.
    pub fn aggregation_chain(system: SystemKind, depth: usize, startup: StartupCost) -> Self {
        let stages = (0..depth.max(1))
            .map(|level| {
                let mut spec = FunctionSpec::aggregator(system);
                spec.name = format!("aggregator-level-{level}");
                InstancePool::new(spec, startup)
            })
            .collect();
        FunctionChain { stages }
    }

    /// Scales the chain for a wave of traffic arriving at `now` and returns
    /// when each stage — and the chain as a whole — becomes ready.
    ///
    /// Under [`ChainScaling::Reactive`], stage `k + 1` is only acquired once
    /// stage `k` is ready, so cold-start delays accumulate. Under
    /// [`ChainScaling::PrePlanned`], every stage is acquired at `now`, so the
    /// chain is ready when the slowest single stage is.
    pub fn scale_for_traffic(&mut self, now: SimTime, scaling: ChainScaling) -> ChainReadiness {
        let mut stages = Vec::with_capacity(self.stages.len());
        let mut startup_cpu = SimDuration::ZERO;
        let mut chain_ready_at = now;
        match scaling {
            ChainScaling::Reactive => {
                let mut trigger_at = now;
                for (idx, pool) in self.stages.iter_mut().enumerate() {
                    let outcome = pool.acquire(trigger_at);
                    startup_cpu += outcome.startup_cpu;
                    stages.push(StageReadiness {
                        stage: idx,
                        ready_at: outcome.ready_at,
                        cold_start: outcome.cold_start,
                    });
                    // The next stage is only provoked once this one is ready.
                    trigger_at = outcome.ready_at;
                    chain_ready_at = outcome.ready_at;
                }
            }
            ChainScaling::PrePlanned => {
                for (idx, pool) in self.stages.iter_mut().enumerate() {
                    let outcome = pool.acquire(now);
                    startup_cpu += outcome.startup_cpu;
                    chain_ready_at = chain_ready_at.max(outcome.ready_at);
                    stages.push(StageReadiness {
                        stage: idx,
                        ready_at: outcome.ready_at,
                        cold_start: outcome.cold_start,
                    });
                }
            }
        }
        ChainReadiness {
            scaling,
            stages,
            chain_ready_at,
            startup_cpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_dataplane::CostModel;

    fn startup(system: SystemKind) -> StartupCost {
        CostModel::paper_calibrated().startup(system)
    }

    #[test]
    fn reactive_cold_starts_cascade() {
        let mut chain = FunctionChain::aggregation_chain(
            SystemKind::Serverless,
            3,
            startup(SystemKind::Serverless),
        );
        let reactive = chain.scale_for_traffic(SimTime::ZERO, ChainScaling::Reactive);
        assert_eq!(reactive.cold_starts(), 3);
        // Each stage becomes ready strictly after the previous one.
        for pair in reactive.stages.windows(2) {
            assert!(pair[1].ready_at > pair[0].ready_at);
        }
        let single_stage_delay = reactive.stages[0].ready_at.as_secs();
        assert!(
            reactive.chain_ready_at.as_secs() >= 2.5 * single_stage_delay,
            "cascade should be ~3x one cold start: {} vs {}",
            reactive.chain_ready_at.as_secs(),
            single_stage_delay
        );
    }

    #[test]
    fn preplanned_chain_ready_after_one_cold_start() {
        let mut reactive_chain = FunctionChain::aggregation_chain(
            SystemKind::Serverless,
            4,
            startup(SystemKind::Serverless),
        );
        let mut planned_chain = FunctionChain::aggregation_chain(
            SystemKind::Serverless,
            4,
            startup(SystemKind::Serverless),
        );
        let reactive = reactive_chain.scale_for_traffic(SimTime::ZERO, ChainScaling::Reactive);
        let planned = planned_chain.scale_for_traffic(SimTime::ZERO, ChainScaling::PrePlanned);
        assert_eq!(planned.cold_starts(), 4);
        assert!(
            planned.chain_ready_at < reactive.chain_ready_at,
            "pre-planning should beat the cascade: {} vs {}",
            planned.chain_ready_at.as_secs(),
            reactive.chain_ready_at.as_secs()
        );
        // Pre-planned readiness equals the slowest single stage.
        let slowest = planned
            .stages
            .iter()
            .map(|s| s.ready_at.as_secs())
            .fold(0.0, f64::max);
        assert!((planned.chain_ready_at.as_secs() - slowest).abs() < 1e-9);
    }

    #[test]
    fn lifl_runtimes_start_faster_than_knative_containers() {
        let mut sl = FunctionChain::aggregation_chain(
            SystemKind::Serverless,
            3,
            startup(SystemKind::Serverless),
        );
        let mut lifl =
            FunctionChain::aggregation_chain(SystemKind::Lifl, 3, startup(SystemKind::Lifl));
        let sl_ready = sl.scale_for_traffic(SimTime::ZERO, ChainScaling::Reactive);
        let lifl_ready = lifl.scale_for_traffic(SimTime::ZERO, ChainScaling::Reactive);
        assert!(lifl_ready.chain_ready_at < sl_ready.chain_ready_at);
        assert!(lifl_ready.startup_cpu < sl_ready.startup_cpu);
    }

    #[test]
    fn chain_depth_is_at_least_one() {
        let mut chain =
            FunctionChain::aggregation_chain(SystemKind::Lifl, 0, startup(SystemKind::Lifl));
        let ready = chain.scale_for_traffic(SimTime::ZERO, ChainScaling::PrePlanned);
        assert_eq!(ready.stages.len(), 1);
    }
}
