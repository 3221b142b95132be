//! A Knative-Pod-Autoscaler (KPA) style autoscaler with stable and panic
//! windows.
//!
//! The baseline serverless systems in the paper (§2.3, §6.1) rely on Knative's
//! concurrency-based autoscaling. This module models the KPA control loop
//! closely enough to study its interaction with FL's bursty arrivals
//! (Fig. 10(a)):
//!
//! * concurrency observations are averaged over a long **stable window**
//!   (default 60 s) and a short **panic window** (default 6 s);
//! * the desired replica count is `ceil(avg_concurrency / target)`;
//! * if the panic-window desired count exceeds twice the current ready count,
//!   the autoscaler enters **panic mode**: it scales by the panic estimate and
//!   refuses to scale down until the panic hold expires;
//! * scale-to-zero happens only after an idle grace period.
//!
//! This "application-agnostic, simple autoscaling" is precisely what LIFL's
//! hierarchy-aware planner (§5.2) replaces, so having a faithful model of it
//! lets the experiments quantify the difference.

use lifl_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of the KPA-style autoscaler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KpaConfig {
    /// Target concurrency per replica.
    pub target_concurrency: f64,
    /// Length of the stable averaging window.
    pub stable_window: SimDuration,
    /// Length of the panic averaging window.
    pub panic_window: SimDuration,
    /// Panic threshold: panic mode starts when the panic-window desired count
    /// exceeds this multiple of the current ready replicas.
    pub panic_threshold: f64,
    /// How long panic mode persists after the last panic trigger.
    pub panic_hold: SimDuration,
    /// Idle time before scaling to zero.
    pub scale_to_zero_grace: SimDuration,
    /// Upper bound on replicas.
    pub max_replicas: u32,
}

impl Default for KpaConfig {
    fn default() -> Self {
        KpaConfig {
            target_concurrency: 2.0,
            stable_window: SimDuration::from_secs(60.0),
            panic_window: SimDuration::from_secs(6.0),
            panic_threshold: 2.0,
            panic_hold: SimDuration::from_secs(60.0),
            scale_to_zero_grace: SimDuration::from_secs(30.0),
            max_replicas: 1000,
        }
    }
}

/// One autoscaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KpaDecision {
    /// Desired replica count after this evaluation.
    pub desired_replicas: u32,
    /// Whether the autoscaler is currently in panic mode.
    pub panicking: bool,
    /// The stable-window average concurrency used.
    pub stable_concurrency: f64,
    /// The panic-window average concurrency used.
    pub panic_concurrency: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Observation {
    at: SimTime,
    concurrency: f64,
}

/// The KPA-style autoscaler.
#[derive(Debug, Clone)]
pub struct KpaAutoscaler {
    config: KpaConfig,
    observations: VecDeque<Observation>,
    panic_until: Option<SimTime>,
    panic_floor: u32,
    last_positive_at: Option<SimTime>,
}

impl KpaAutoscaler {
    /// Creates an autoscaler with the given configuration.
    pub fn new(config: KpaConfig) -> Self {
        KpaAutoscaler {
            config,
            observations: VecDeque::new(),
            panic_until: None,
            panic_floor: 0,
            last_positive_at: None,
        }
    }

    /// Records a concurrency observation (in-flight requests) at `now`.
    pub fn observe(&mut self, now: SimTime, concurrency: f64) {
        self.observations.push_back(Observation {
            at: now,
            concurrency: concurrency.max(0.0),
        });
        if concurrency > 0.0 {
            self.last_positive_at = Some(now);
        }
        // Drop observations older than the stable window.
        while let Some(front) = self.observations.front() {
            if now.duration_since(front.at) > self.config.stable_window {
                self.observations.pop_front();
            } else {
                break;
            }
        }
    }

    fn window_average(&self, now: SimTime, window: SimDuration) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for obs in self.observations.iter().rev() {
            if now.duration_since(obs.at) > window {
                break;
            }
            sum += obs.concurrency;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Whether the autoscaler is in panic mode at `now`.
    pub fn panicking(&self, now: SimTime) -> bool {
        self.panic_until
            .is_some_and(|until| now.as_secs() <= until.as_secs())
    }

    /// Evaluates the control loop at `now`, given the currently ready replica
    /// count, and returns the desired replica count.
    pub fn evaluate(&mut self, now: SimTime, ready_replicas: u32) -> KpaDecision {
        let stable = self.window_average(now, self.config.stable_window);
        let panic = self.window_average(now, self.config.panic_window);
        let target = self.config.target_concurrency.max(1e-9);
        let stable_desired = (stable / target).ceil() as u32;
        let panic_desired = (panic / target).ceil() as u32;

        // Enter (or extend) panic mode when the short-window estimate has
        // outrun the current capacity by the panic threshold.
        if ready_replicas > 0
            && panic_desired as f64 >= self.config.panic_threshold * ready_replicas as f64
            && panic_desired > 0
        {
            self.panic_until = Some(now + self.config.panic_hold);
            self.panic_floor = self.panic_floor.max(ready_replicas);
        } else if ready_replicas == 0 && panic_desired > 0 {
            // Scale from zero is immediate but is not a panic.
            self.panic_until = None;
            self.panic_floor = 0;
        }

        let panicking = self.panicking(now);
        if !panicking {
            self.panic_floor = 0;
        }

        let mut desired = if panicking {
            // In panic mode, use the short-window estimate and never let the
            // desired count decrease for as long as the panic persists.
            let held = panic_desired.max(self.panic_floor);
            self.panic_floor = held;
            held
        } else {
            stable_desired
        };

        // Scale to zero only after the grace period with no traffic.
        if desired == 0 {
            let idle_long_enough = match self.last_positive_at {
                Some(at) => now.duration_since(at) >= self.config.scale_to_zero_grace,
                None => true,
            };
            if !idle_long_enough {
                // Hold one replica until the grace period elapses.
                desired = 1;
            }
        }

        let desired = desired.min(self.config.max_replicas);
        KpaDecision {
            desired_replicas: desired,
            panicking,
            stable_concurrency: stable,
            panic_concurrency: panic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler() -> KpaAutoscaler {
        KpaAutoscaler::new(KpaConfig::default())
    }

    #[test]
    fn steady_load_gives_proportional_replicas() {
        let mut kpa = scaler();
        for s in 0..60 {
            kpa.observe(SimTime::from_secs(s as f64), 8.0);
        }
        let decision = kpa.evaluate(SimTime::from_secs(60.0), 4);
        assert_eq!(decision.desired_replicas, 4, "8 concurrency / target 2 = 4");
        assert!((decision.stable_concurrency - 8.0).abs() < 1e-9);
    }

    #[test]
    fn burst_triggers_panic_mode_and_holds_floor() {
        let mut kpa = scaler();
        // Quiet baseline with one replica.
        for s in 0..54 {
            kpa.observe(SimTime::from_secs(s as f64), 1.0);
        }
        // Sudden burst in the last 6 seconds (the panic window).
        for s in 54..60 {
            kpa.observe(SimTime::from_secs(s as f64), 20.0);
        }
        let decision = kpa.evaluate(SimTime::from_secs(60.0), 1);
        assert!(decision.panicking, "burst should trigger panic mode");
        assert!(
            decision.desired_replicas >= 10,
            "panic desired should follow the short window: {}",
            decision.desired_replicas
        );
        // While panic persists, the desired count never drops below the floor
        // even if load momentarily vanishes.
        kpa.observe(SimTime::from_secs(61.0), 0.0);
        let later = kpa.evaluate(SimTime::from_secs(62.0), 10);
        assert!(later.panicking);
        assert!(later.desired_replicas >= 10);
    }

    #[test]
    fn panic_mode_expires_after_hold() {
        let mut kpa = KpaAutoscaler::new(KpaConfig {
            panic_hold: SimDuration::from_secs(10.0),
            ..KpaConfig::default()
        });
        for s in 0..6 {
            kpa.observe(SimTime::from_secs(s as f64), 20.0);
        }
        let burst = kpa.evaluate(SimTime::from_secs(6.0), 1);
        assert!(burst.panicking);
        // Well past the hold with no further bursts, panic clears.
        for s in 7..80 {
            kpa.observe(SimTime::from_secs(s as f64), 1.0);
        }
        let calm = kpa.evaluate(SimTime::from_secs(80.0), 10);
        assert!(!calm.panicking);
        assert!(calm.desired_replicas <= 2);
    }

    #[test]
    fn scale_to_zero_requires_grace_period() {
        let mut kpa = KpaAutoscaler::new(KpaConfig {
            scale_to_zero_grace: SimDuration::from_secs(30.0),
            ..KpaConfig::default()
        });
        kpa.observe(SimTime::from_secs(0.0), 4.0);
        for s in 1..20 {
            kpa.observe(SimTime::from_secs(s as f64), 0.0);
        }
        // Only 20 s idle: hold one replica.
        let early = kpa.evaluate(SimTime::from_secs(20.0), 2);
        assert!(early.desired_replicas >= 1);
        for s in 20..120 {
            kpa.observe(SimTime::from_secs(s as f64), 0.0);
        }
        let late = kpa.evaluate(SimTime::from_secs(120.0), 1);
        assert_eq!(
            late.desired_replicas, 0,
            "idle past grace should scale to zero"
        );
    }

    #[test]
    fn desired_is_capped_by_max_replicas() {
        let mut kpa = KpaAutoscaler::new(KpaConfig {
            max_replicas: 5,
            ..KpaConfig::default()
        });
        for s in 0..60 {
            kpa.observe(SimTime::from_secs(s as f64), 1000.0);
        }
        let decision = kpa.evaluate(SimTime::from_secs(60.0), 5);
        assert_eq!(decision.desired_replicas, 5);
    }

    #[test]
    fn no_observations_means_no_replicas() {
        let mut kpa = scaler();
        let decision = kpa.evaluate(SimTime::from_secs(10.0), 0);
        assert_eq!(decision.desired_replicas, 0);
        assert!(!decision.panicking);
        assert_eq!(decision.stable_concurrency, 0.0);
    }

    #[test]
    fn old_observations_fall_out_of_the_stable_window() {
        let mut kpa = scaler();
        kpa.observe(SimTime::from_secs(0.0), 50.0);
        for s in 100..160 {
            kpa.observe(SimTime::from_secs(s as f64), 2.0);
        }
        let decision = kpa.evaluate(SimTime::from_secs(160.0), 1);
        assert!(
            decision.stable_concurrency < 3.0,
            "the old burst should have aged out: {}",
            decision.stable_concurrency
        );
    }
}
