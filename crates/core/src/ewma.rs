//! The EWMA load estimator of §5.2: the smoothed pending-queue length that
//! sizes a node's aggregation tree and drives the cluster's live top
//! placement.

/// The Exponentially Weighted Moving Average estimator of the pending queue
/// length `Q_{i,t}` (§5.2): `Q_t = α·Q_{t−1} + (1−α)·q_t` with α = 0.7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaEstimator {
    alpha: f64,
    value: Option<f64>,
}

impl EwmaEstimator {
    /// Creates an estimator with smoothing coefficient `alpha` in `[0, 1]`.
    pub fn new(alpha: f64) -> Self {
        EwmaEstimator {
            alpha: alpha.clamp(0.0, 1.0),
            value: None,
        }
    }

    /// Feeds an observation and returns the smoothed estimate.
    pub fn observe(&mut self, observation: f64) -> f64 {
        let next = match self.value {
            None => observation,
            Some(prev) => self.alpha * prev + (1.0 - self.alpha) * observation,
        };
        self.value = Some(next);
        next
    }

    /// The current estimate (None before the first observation).
    pub fn estimate(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_matches_paper_formula() {
        let mut e = EwmaEstimator::new(0.7);
        assert_eq!(e.estimate(), None);
        assert_eq!(e.observe(10.0), 10.0);
        let v = e.observe(20.0);
        assert!((v - (0.7 * 10.0 + 0.3 * 20.0)).abs() < 1e-12);
        assert_eq!(e.estimate(), Some(v));
    }

    #[test]
    fn ewma_damps_spikes() {
        let mut e = EwmaEstimator::new(0.7);
        e.observe(10.0);
        let spiked = e.observe(100.0);
        assert!(spiked < 40.0, "spike damped: {spiked}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ewma_stays_within_observation_range(observations in proptest::collection::vec(0.0f64..1000.0, 1..50)) {
            let mut e = EwmaEstimator::new(0.7);
            let min = observations.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = observations.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for obs in &observations {
                let v = e.observe(*obs);
                prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
            }
        }
    }
}
