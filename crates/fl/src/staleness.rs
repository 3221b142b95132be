//! Staleness weighting for asynchronous aggregation.
//!
//! When aggregation is asynchronous (Fig. 11, §7 future work; PAPAYA (Huba et
//! al., 2022) and FedBuff (Nguyen et al., 2022) in the paper's references),
//! a client's update may have been computed against a global model several
//! versions old. The standard mitigation is to down-weight stale updates by a
//! function `s(τ)` of the staleness `τ = current_version − base_version`.
//!
//! This module provides the three weighting families used in that literature
//! and applies them to an update's sample weight
//! ([`StalenessPolicy::scaled_samples`]), so every fold consumes a stale
//! update unchanged — `lifl_core::training::TrainingDriver::run_async`
//! weights each update it ingests this way.

use lifl_types::{LiflError, Result};
use serde::{Deserialize, Serialize};

/// A staleness-weighting policy `s(τ)` with `s(0) = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum StalenessPolicy {
    /// Every update counts fully regardless of staleness (`s(τ) = 1`).
    #[default]
    Constant,
    /// Polynomial decay `s(τ) = (1 + τ)^(−a)` (FedBuff's default family).
    Polynomial {
        /// Decay exponent `a > 0`.
        exponent: f64,
    },
    /// Hinge decay: full weight up to `threshold`, then `1 / (1 + b·(τ − threshold))`.
    Hinge {
        /// Staleness up to which updates keep full weight.
        threshold: u64,
        /// Decay slope `b > 0` beyond the threshold.
        slope: f64,
    },
}

impl StalenessPolicy {
    /// The weight multiplier for an update with staleness `tau`.
    ///
    /// Always in `(0, 1]`, and exactly `1.0` at `tau = 0`.
    pub fn weight(self, tau: u64) -> f64 {
        match self {
            StalenessPolicy::Constant => 1.0,
            StalenessPolicy::Polynomial { exponent } => (1.0 + tau as f64).powf(-exponent.max(0.0)),
            StalenessPolicy::Hinge { threshold, slope } => {
                if tau <= threshold {
                    1.0
                } else {
                    1.0 / (1.0 + slope.max(0.0) * (tau - threshold) as f64)
                }
            }
        }
    }

    /// Validates policy parameters.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] if an exponent or slope is not positive.
    pub fn validate(&self) -> Result<()> {
        match self {
            StalenessPolicy::Constant => Ok(()),
            StalenessPolicy::Polynomial { exponent } if *exponent > 0.0 => Ok(()),
            StalenessPolicy::Polynomial { exponent } => Err(LiflError::InvalidConfig(format!(
                "polynomial staleness exponent must be positive, got {exponent}"
            ))),
            StalenessPolicy::Hinge { slope, .. } if *slope > 0.0 => Ok(()),
            StalenessPolicy::Hinge { slope, .. } => Err(LiflError::InvalidConfig(format!(
                "hinge staleness slope must be positive, got {slope}"
            ))),
        }
    }

    /// The staleness-discounted sample count an update of `samples` samples
    /// and staleness `tau` folds with (rounded, but never below 1 so the
    /// update still contributes). The model is untouched: only its weight
    /// changes.
    pub fn scaled_samples(self, samples: u64, tau: u64) -> u64 {
        ((samples as f64) * self.weight(tau)).round().max(1.0) as u64
    }
}

impl std::fmt::Display for StalenessPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StalenessPolicy::Constant => write!(f, "constant"),
            StalenessPolicy::Polynomial { exponent } => write!(f, "poly(a={exponent})"),
            StalenessPolicy::Hinge { threshold, slope } => {
                write!(f, "hinge(t={threshold}, b={slope})")
            }
        }
    }
}

/// Tracks staleness statistics across an asynchronous run in four running
/// counters, so it stays the same size however long the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StalenessTracker {
    count: usize,
    stale: usize,
    sum: u64,
    max: u64,
}

impl StalenessTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the staleness of one accepted update.
    pub fn record(&mut self, tau: u64) {
        self.count += 1;
        self.stale += usize::from(tau > 0);
        self.sum += tau;
        self.max = self.max.max(tau);
    }

    /// Number of updates observed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of stale updates (τ > 0).
    pub fn stale_count(&self) -> usize {
        self.stale
    }

    /// Mean staleness, 0 when nothing has been recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Maximum staleness observed, 0 when nothing has been recorded.
    pub fn max(&self) -> u64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_updates_keep_full_weight() {
        for policy in [
            StalenessPolicy::Constant,
            StalenessPolicy::Polynomial { exponent: 0.5 },
            StalenessPolicy::Hinge {
                threshold: 3,
                slope: 0.4,
            },
        ] {
            assert_eq!(policy.weight(0), 1.0, "{policy}");
        }
    }

    #[test]
    fn polynomial_weight_decreases_with_staleness() {
        let policy = StalenessPolicy::Polynomial { exponent: 0.5 };
        let mut prev = policy.weight(0);
        for tau in 1..10 {
            let w = policy.weight(tau);
            assert!(w < prev, "weight must strictly decrease: {w} vs {prev}");
            assert!(w > 0.0);
            prev = w;
        }
    }

    #[test]
    fn hinge_keeps_full_weight_up_to_threshold() {
        let policy = StalenessPolicy::Hinge {
            threshold: 5,
            slope: 1.0,
        };
        for tau in 0..=5 {
            assert_eq!(policy.weight(tau), 1.0);
        }
        assert!(policy.weight(6) < 1.0);
        assert!(policy.weight(20) < policy.weight(6));
    }

    #[test]
    fn apply_scales_samples_but_never_to_zero() {
        let policy = StalenessPolicy::Polynomial { exponent: 2.0 };
        let scaled = policy.scaled_samples(10, 3);
        assert!(scaled < 10);
        assert!(scaled >= 1);
        assert_eq!(policy.scaled_samples(10, 0), 10);
        // Extreme staleness still leaves at least one sample of weight.
        assert_eq!(policy.scaled_samples(10, 10_000), 1);
    }

    #[test]
    fn validation_flags_bad_parameters() {
        assert!(StalenessPolicy::Polynomial { exponent: 0.0 }
            .validate()
            .is_err());
        assert!(StalenessPolicy::Hinge {
            threshold: 2,
            slope: 0.0
        }
        .validate()
        .is_err());
        assert!(StalenessPolicy::Constant.validate().is_ok());
        assert!(StalenessPolicy::Polynomial { exponent: 1.0 }
            .validate()
            .is_ok());
    }

    #[test]
    fn tracker_statistics() {
        let mut tracker = StalenessTracker::new();
        assert_eq!(tracker.mean(), 0.0);
        assert_eq!(tracker.max(), 0);
        for tau in [0, 0, 2, 4] {
            tracker.record(tau);
        }
        assert_eq!(tracker.count(), 4);
        assert_eq!(tracker.stale_count(), 2);
        assert!((tracker.mean() - 1.5).abs() < 1e-12);
        assert_eq!(tracker.max(), 4);
    }

    /// The counters answer exactly what the whole τ stream would: a seeded
    /// stream checked against a reference that keeps every observation.
    #[test]
    fn tracker_counters_match_the_kept_stream() {
        let mut rng = lifl_simcore::SimRng::from_seed(0x57A1E);
        let (mut tracker, mut kept) = (StalenessTracker::new(), Vec::new());
        for step in 0..2_000 {
            // Mostly fresh or slightly stale, with an occasional straggler.
            let tau = match rng.index(10) {
                0..=3 => 0,
                9 => rng.index(1_000) as u64,
                _ => rng.index(8) as u64,
            };
            tracker.record(tau);
            kept.push(tau);
            if step % 97 == 0 || step == 1_999 {
                assert_eq!(tracker.count(), kept.len());
                assert_eq!(
                    tracker.stale_count(),
                    kept.iter().filter(|t| **t > 0).count()
                );
                let mean = kept.iter().sum::<u64>() as f64 / kept.len() as f64;
                assert_eq!(tracker.mean().to_bits(), mean.to_bits());
                assert_eq!(tracker.max(), kept.iter().copied().max().unwrap_or(0));
            }
        }
        assert!(tracker.max() > 8, "the stream reached its stragglers");
    }

    #[test]
    fn display_labels_are_informative() {
        assert_eq!(StalenessPolicy::Constant.to_string(), "constant");
        assert!(StalenessPolicy::Polynomial { exponent: 0.5 }
            .to_string()
            .contains("0.5"));
        assert!(StalenessPolicy::Hinge {
            threshold: 3,
            slope: 0.4
        }
        .to_string()
        .contains("3"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn weights_are_in_unit_interval_and_monotone(
            exponent in 0.1f64..4.0,
            threshold in 0u64..10,
            slope in 0.1f64..4.0,
            tau in 0u64..1000,
        ) {
            for policy in [
                StalenessPolicy::Constant,
                StalenessPolicy::Polynomial { exponent },
                StalenessPolicy::Hinge { threshold, slope },
            ] {
                let w = policy.weight(tau);
                prop_assert!(w > 0.0 && w <= 1.0, "{policy}: weight {w} out of range");
                let w_next = policy.weight(tau + 1);
                prop_assert!(w_next <= w + 1e-12, "{policy}: weight must be non-increasing");
            }
        }
    }
}
