//! Client failure detection via keep-alive heartbeats and over-provisioning
//! (§3: "LIFL detects client failures with keep-alive heartbeats and enhances
//! resilience by over-provisioning the number of clients").

use lifl_types::{ClientId, LiflError, Result, SimDuration, SimTime};
use std::collections::HashMap;

/// Tracks the last heartbeat of every selected client and flags the ones whose
/// heartbeat is older than the timeout.
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    timeout: SimDuration,
    last_seen: HashMap<ClientId, SimTime>,
}

impl HeartbeatMonitor {
    /// Creates a monitor with the given keep-alive timeout.
    pub fn new(timeout: SimDuration) -> Self {
        HeartbeatMonitor {
            timeout,
            last_seen: HashMap::new(),
        }
    }

    /// Registers a client at selection time (its first implicit heartbeat).
    pub fn register(&mut self, client: ClientId, now: SimTime) {
        self.last_seen.insert(client, now);
    }

    /// Records a heartbeat from a client. Unknown clients are registered.
    pub fn heartbeat(&mut self, client: ClientId, now: SimTime) {
        self.last_seen.insert(client, now);
    }

    /// Removes a client (for example once its update arrived).
    pub fn complete(&mut self, client: ClientId) {
        self.last_seen.remove(&client);
    }

    /// Clients whose last heartbeat is older than the timeout at `now`.
    ///
    /// This is a non-destructive peek: a client reported here is reported
    /// again on every later poll until it heartbeats or completes. Reactive
    /// callers act on each failure exactly once by [`complete`]-ing each one
    /// as they act on it — when acting on one can fail, as the cluster's
    /// failure detector's can, the rest are reported again.
    ///
    /// [`complete`]: HeartbeatMonitor::complete
    pub fn failed_clients(&self, now: SimTime) -> Vec<ClientId> {
        let mut failed: Vec<ClientId> = self
            .last_seen
            .iter()
            .filter(|(_, seen)| now.duration_since(**seen) > self.timeout)
            .map(|(client, _)| *client)
            .collect();
        failed.sort();
        failed
    }
}

/// Drop-out rates above this saturate instead of inflating the selection
/// without bound (a 20x over-provisioning factor); rates outside `[0, 1)` are
/// rejected outright.
pub const MAX_DROPOUT_RATE: f64 = 0.95;

/// How many clients to select so that, with an expected drop-out rate, at
/// least `goal` updates arrive (the over-provisioning rule of §3): the
/// smallest `n` with `n · (1 − rate) ≥ goal`.
///
/// Rates in `(MAX_DROPOUT_RATE, 1.0)` saturate at [`MAX_DROPOUT_RATE`]: the
/// selection stays finite (at most `20 * goal`) rather than exploding as the
/// rate approaches 1.
///
/// # Errors
/// Returns [`LiflError::InvalidConfig`] for a rate that is NaN, negative or
/// at least 1 (no finite selection can cover losing every client).
pub fn over_provisioned_selection(goal: u64, expected_dropout_rate: f64) -> Result<u64> {
    if !(0.0..1.0).contains(&expected_dropout_rate) {
        return Err(LiflError::InvalidConfig(format!(
            "expected dropout rate must be in [0,1), got {expected_dropout_rate}"
        )));
    }
    let kept = 1.0 - expected_dropout_rate.min(MAX_DROPOUT_RATE);
    let covers = |n: u64| n as f64 * kept >= goal as f64;
    // The quotient's ceiling is the answer up to one rounding step either
    // way (21 / 0.7 is 30.000000000000004, whose ceiling selects 31).
    let mut n = (goal as f64 / kept).ceil() as u64;
    while n > 0 && covers(n - 1) {
        n -= 1;
    }
    while !covers(n) {
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_silent_clients() {
        let mut monitor = HeartbeatMonitor::new(SimDuration::from_secs(30.0));
        monitor.register(ClientId::new(1), SimTime::from_secs(0.0));
        monitor.register(ClientId::new(2), SimTime::from_secs(0.0));
        monitor.heartbeat(ClientId::new(2), SimTime::from_secs(25.0));
        let failed = monitor.failed_clients(SimTime::from_secs(40.0));
        assert_eq!(failed, vec![ClientId::new(1)]);
        assert_eq!(monitor.last_seen.len(), 2);
        monitor.complete(ClientId::new(2));
        assert_eq!(monitor.last_seen.len(), 1);
        assert_eq!(monitor.timeout.as_secs(), 30.0);
    }

    #[test]
    fn completed_clients_are_never_reported_failed() {
        let mut monitor = HeartbeatMonitor::new(SimDuration::from_secs(10.0));
        monitor.register(ClientId::new(7), SimTime::ZERO);
        monitor.complete(ClientId::new(7));
        assert!(monitor.failed_clients(SimTime::from_secs(100.0)).is_empty());
    }

    #[test]
    fn failed_clients_re_reports_until_completed() {
        let mut monitor = HeartbeatMonitor::new(SimDuration::from_secs(30.0));
        monitor.register(ClientId::new(1), SimTime::ZERO);
        monitor.register(ClientId::new(2), SimTime::ZERO);
        monitor.heartbeat(ClientId::new(2), SimTime::from_secs(50.0));
        // failed_clients is a peek: polling twice re-reports.
        let now = SimTime::from_secs(40.0);
        assert_eq!(monitor.failed_clients(now), vec![ClientId::new(1)]);
        assert_eq!(monitor.failed_clients(now), vec![ClientId::new(1)]);
        // Completing the one acted on ends its reports; survivors stay.
        monitor.complete(ClientId::new(1));
        assert!(monitor.failed_clients(now).is_empty());
        assert_eq!(monitor.last_seen.len(), 1);
    }

    #[test]
    fn over_provisioning_covers_dropout() {
        assert_eq!(over_provisioned_selection(120, 0.0).unwrap(), 120);
        assert_eq!(over_provisioned_selection(120, 0.2).unwrap(), 150);
        assert_eq!(over_provisioned_selection(15, 0.25).unwrap(), 20);
        // Rates beyond MAX_DROPOUT_RATE saturate so selection stays finite.
        assert_eq!(over_provisioned_selection(10, 0.99).unwrap(), 200);
        assert_eq!(
            over_provisioned_selection(10, 0.96).unwrap(),
            over_provisioned_selection(10, MAX_DROPOUT_RATE).unwrap()
        );
        // Rates outside [0,1) are rejected, not silently clamped.
        assert!(over_provisioned_selection(10, 1.0).is_err());
        assert!(over_provisioned_selection(10, -0.1).is_err());
        assert!(over_provisioned_selection(10, f64::NAN).is_err());
    }

    /// The smallest selection that covers the goal, not the ceiling of a
    /// quotient that rounding can push just past an integer.
    #[test]
    fn over_provisioning_selects_the_smallest_covering_count() {
        for (goal, rate, selected) in [
            (21, 0.3, 30),  // 21 / 0.7 = 30.000000000000004
            (9, 0.55, 20),  // 9 / 0.45 = 20.000000000000004
            (42, 0.3, 60),  // 42 / 0.7 = 60.00000000000001
            (21, 0.65, 60), // 21 / 0.35 = 60.00000000000001
            (8, 0.2, 10),   // exact
            (10, 0.2, 13),  // 12.5 rounds up
            (0, 0.5, 0),    // nothing to cover
            (1, 0.95, 20),  // at the saturation rate
            (3, 0.999, 60), // saturated at MAX_DROPOUT_RATE
        ] {
            let n = over_provisioned_selection(goal, rate).unwrap();
            assert_eq!(n, selected, "goal {goal} at rate {rate}");
            let kept = 1.0 - rate.min(MAX_DROPOUT_RATE);
            assert!(n as f64 * kept >= goal as f64);
            assert!(n == 0 || ((n - 1) as f64 * kept) < goal as f64);
        }
        // The rates the repository runs at were never affected: there the
        // quotient's ceiling already was the smallest covering count.
        for rate in [0.1, 0.2] {
            for goal in 0..=2_000u64 {
                assert_eq!(
                    over_provisioned_selection(goal, rate).unwrap(),
                    (goal as f64 / (1.0 - rate)).ceil() as u64,
                    "goal {goal} at rate {rate}"
                );
            }
        }
    }
}
