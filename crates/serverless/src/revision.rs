//! Revision and pod lifecycle reconciliation.
//!
//! The serverless baseline creates aggregators as pods of a *revision* whose
//! replica count follows the autoscaler's desired value. Pods do not appear
//! instantaneously: they pass through `Pending → Starting → Ready` (the cold
//! start) and are torn down through `Terminating`. The reconciler here turns
//! a desired replica count into pod state transitions with the appropriate
//! delays, so the experiments can report "number of active aggregators over
//! time" (Fig. 10(b)/(e)) for the baseline systems from first principles.

use lifl_dataplane::cost::StartupCost;
use lifl_types::{InstanceId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Lifecycle phase of one pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PodPhase {
    /// Scheduled but the container has not started yet.
    Pending,
    /// Container started; runtime and libraries loading (cold start).
    Starting,
    /// Serving traffic.
    Ready,
    /// Being torn down.
    Terminating,
}

/// One pod of the revision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pod {
    /// The pod's identity.
    pub id: InstanceId,
    /// Current phase.
    pub phase: PodPhase,
    /// When the pod entered its current phase.
    pub phase_since: SimTime,
    /// When the pod becomes ready (meaningful while starting).
    pub ready_at: SimTime,
}

/// Counters describing the revision's scaling activity.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RevisionStats {
    /// Pods created over the revision's lifetime.
    pub pods_created: u64,
    /// Pods terminated over the revision's lifetime.
    pub pods_terminated: u64,
    /// Total CPU time spent on cold starts.
    pub startup_cpu: SimDuration,
}

/// A revision: a set of pods reconciled toward a desired replica count.
#[derive(Debug, Clone)]
pub struct Revision {
    startup: StartupCost,
    termination_grace: SimDuration,
    pods: BTreeMap<InstanceId, Pod>,
    next_id: u64,
    stats: RevisionStats,
}

impl Revision {
    /// Creates an empty revision.
    pub fn new(startup: StartupCost) -> Self {
        Revision {
            startup,
            termination_grace: SimDuration::from_secs(2.0),
            pods: BTreeMap::new(),
            next_id: 0,
            stats: RevisionStats::default(),
        }
    }

    /// Scaling counters.
    pub fn stats(&self) -> RevisionStats {
        self.stats
    }

    /// Number of pods in the given phase at `now` (after applying transitions).
    pub fn count_in_phase(&mut self, now: SimTime, phase: PodPhase) -> usize {
        self.advance(now);
        self.pods.values().filter(|p| p.phase == phase).count()
    }

    /// Number of ready pods at `now`.
    pub fn ready_pods(&mut self, now: SimTime) -> u32 {
        self.count_in_phase(now, PodPhase::Ready) as u32
    }

    /// Applies time-based phase transitions up to `now`:
    /// `Pending → Starting` immediately, `Starting → Ready` once the cold
    /// start completes, and `Terminating` pods disappear after the grace
    /// period.
    pub fn advance(&mut self, now: SimTime) {
        let grace = self.termination_grace;
        let mut terminated = 0;
        self.pods.retain(|_, pod| {
            if pod.phase == PodPhase::Terminating && now.duration_since(pod.phase_since) >= grace {
                terminated += 1;
                false
            } else {
                true
            }
        });
        self.stats.pods_terminated += terminated;
        for pod in self.pods.values_mut() {
            match pod.phase {
                PodPhase::Pending => {
                    pod.phase = PodPhase::Starting;
                    pod.phase_since = now;
                }
                PodPhase::Starting if now.as_secs() >= pod.ready_at.as_secs() => {
                    pod.phase = PodPhase::Ready;
                    pod.phase_since = pod.ready_at;
                }
                _ => {}
            }
        }
    }

    /// Reconciles the revision toward `desired` replicas at `now`, creating
    /// pending pods or terminating ready ones as needed. Returns the number of
    /// pods created (positive) or marked for termination (negative).
    pub fn reconcile(&mut self, now: SimTime, desired: u32) -> i64 {
        self.advance(now);
        let live: Vec<InstanceId> = self
            .pods
            .iter()
            .filter(|(_, p)| p.phase != PodPhase::Terminating)
            .map(|(id, _)| *id)
            .collect();
        let current = live.len() as u32;
        if desired > current {
            let to_create = desired - current;
            for _ in 0..to_create {
                let id = InstanceId::new(self.next_id);
                self.next_id += 1;
                self.pods.insert(
                    id,
                    Pod {
                        id,
                        phase: PodPhase::Starting,
                        phase_since: now,
                        ready_at: now + self.startup.cold_start,
                    },
                );
                self.stats.pods_created += 1;
                self.stats.startup_cpu += self.startup.cold_start_cpu;
            }
            to_create as i64
        } else if desired < current {
            let to_remove = (current - desired) as usize;
            // Prefer terminating the newest pods (they are least likely to be warm).
            for id in live.iter().rev().take(to_remove) {
                if let Some(pod) = self.pods.get_mut(id) {
                    pod.phase = PodPhase::Terminating;
                    pod.phase_since = now;
                }
            }
            -(to_remove as i64)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_dataplane::CostModel;
    use lifl_dataplane::SystemKind;

    fn revision() -> Revision {
        Revision::new(CostModel::paper_calibrated().startup(SystemKind::Serverless))
    }

    #[test]
    fn scale_up_creates_starting_pods_that_become_ready() {
        let mut rev = revision();
        let created = rev.reconcile(SimTime::ZERO, 3);
        assert_eq!(created, 3);
        assert_eq!(rev.count_in_phase(SimTime::ZERO, PodPhase::Starting), 3);
        assert_eq!(rev.ready_pods(SimTime::ZERO), 0);
        // After the cold start completes, the pods are ready.
        let ready = rev.ready_pods(SimTime::from_secs(30.0));
        assert_eq!(ready, 3);
        assert_eq!(rev.stats().pods_created, 3);
        assert!(rev.stats().startup_cpu.as_secs() > 0.0);
    }

    #[test]
    fn scale_down_terminates_and_removes_after_grace() {
        let mut rev = revision();
        rev.reconcile(SimTime::ZERO, 4);
        rev.advance(SimTime::from_secs(30.0));
        let delta = rev.reconcile(SimTime::from_secs(30.0), 1);
        assert_eq!(delta, -3);
        assert_eq!(
            rev.count_in_phase(SimTime::from_secs(30.0), PodPhase::Terminating),
            3
        );
        // After the grace period, terminated pods disappear entirely.
        rev.advance(SimTime::from_secs(40.0));
        assert_eq!(rev.pods.len(), 1);
        assert_eq!(rev.stats().pods_terminated, 3);
    }

    #[test]
    fn reconcile_is_idempotent_at_the_desired_count() {
        let mut rev = revision();
        rev.reconcile(SimTime::ZERO, 2);
        assert_eq!(rev.reconcile(SimTime::from_secs(1.0), 2), 0);
        assert_eq!(rev.stats().pods_created, 2);
    }

    #[test]
    fn scale_to_zero_then_back_up_pays_cold_start_again() {
        let mut rev = revision();
        rev.reconcile(SimTime::ZERO, 2);
        rev.advance(SimTime::from_secs(30.0));
        rev.reconcile(SimTime::from_secs(30.0), 0);
        rev.advance(SimTime::from_secs(60.0));
        assert_eq!(rev.pods.len(), 0);
        rev.reconcile(SimTime::from_secs(100.0), 2);
        assert_eq!(
            rev.ready_pods(SimTime::from_secs(100.0)),
            0,
            "fresh pods start cold"
        );
        assert_eq!(rev.stats().pods_created, 4);
        assert!(rev.ready_pods(SimTime::from_secs(130.0)) == 2);
    }

    #[test]
    fn pod_ordering_is_stable_and_named() {
        let mut rev = revision();
        rev.reconcile(SimTime::ZERO, 3);
        let ids: Vec<u64> = rev.pods.values().map(|p| p.id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
