//! Warm-instance pools with cold-start accounting and keep-alive termination.

use crate::function::{FunctionSpec, InstanceState};
use lifl_dataplane::cost::StartupCost;
use lifl_types::{InstanceId, SimDuration, SimTime};
use std::collections::HashMap;

/// The result of acquiring an instance for a piece of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcquireOutcome {
    /// The instance that will run the work.
    pub instance: InstanceId,
    /// When the instance is ready to start processing.
    pub ready_at: SimTime,
    /// Whether a cold start was required.
    pub cold_start: bool,
    /// CPU time consumed by the start-up (zero for warm acquisitions).
    pub startup_cpu: SimDuration,
}

#[derive(Debug, Clone)]
struct Instance {
    state: InstanceState,
    idle_since: SimTime,
}

/// A per-node pool of function instances.
#[derive(Debug, Clone)]
pub struct InstancePool {
    spec: FunctionSpec,
    startup: StartupCost,
    instances: HashMap<InstanceId, Instance>,
    next_id: u64,
}

impl InstancePool {
    /// Creates an empty pool for `spec` with the given start-up cost model.
    pub fn new(spec: FunctionSpec, startup: StartupCost) -> Self {
        InstancePool {
            spec,
            startup,
            instances: HashMap::new(),
            next_id: 0,
        }
    }

    /// Acquires an instance at `now`: reuses a warm idle instance when one
    /// exists, otherwise performs a cold start.
    pub fn acquire(&mut self, now: SimTime) -> AcquireOutcome {
        self.expire_idle(now);
        // Prefer a warm idle instance.
        let warm = self
            .instances
            .iter()
            .filter(|(_, inst)| inst.state == InstanceState::Idle)
            .map(|(id, _)| *id)
            .min();
        if let Some(id) = warm {
            let inst = self.instances.get_mut(&id).expect("instance exists");
            inst.state = InstanceState::Busy;
            return AcquireOutcome {
                instance: id,
                ready_at: now + self.startup.warm_start,
                cold_start: false,
                startup_cpu: SimDuration::ZERO,
            };
        }
        // Cold start a new instance.
        let id = InstanceId::new(self.next_id);
        self.next_id += 1;
        self.instances.insert(
            id,
            Instance {
                state: InstanceState::Busy,
                idle_since: now,
            },
        );
        AcquireOutcome {
            instance: id,
            ready_at: now + self.startup.cold_start,
            cold_start: true,
            startup_cpu: self.startup.cold_start_cpu,
        }
    }

    /// Terminates instances idle longer than the keep-alive period.
    pub fn expire_idle(&mut self, now: SimTime) {
        let keep_alive = self.spec.keep_alive;
        for inst in self.instances.values_mut() {
            if inst.state == InstanceState::Idle && now.duration_since(inst.idle_since) > keep_alive
            {
                inst.state = InstanceState::Terminated;
            }
        }
        self.instances
            .retain(|_, inst| inst.state != InstanceState::Terminated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_dataplane::CostModel;
    use lifl_dataplane::SystemKind;

    fn pool(system: SystemKind) -> InstancePool {
        InstancePool::new(
            FunctionSpec::aggregator(system),
            CostModel::paper_calibrated().startup(system),
        )
    }

    #[test]
    fn lifl_cold_start_cheaper_than_knative() {
        let mut sl = pool(SystemKind::Serverless);
        let mut lifl = pool(SystemKind::Lifl);
        let a = sl.acquire(SimTime::ZERO);
        let b = lifl.acquire(SimTime::ZERO);
        assert!(b.ready_at < a.ready_at);
        assert!(b.startup_cpu < a.startup_cpu);
    }

    #[test]
    fn concurrent_acquisitions_create_instances() {
        let mut pool = pool(SystemKind::Lifl);
        let a = pool.acquire(SimTime::ZERO);
        let b = pool.acquire(SimTime::ZERO);
        assert_ne!(a.instance, b.instance);
    }
}
