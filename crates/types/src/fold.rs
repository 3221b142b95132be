//! Aggregation fold-policy configuration.
//!
//! Every aggregator in the seed folded updates with sample-weighted FedAvg,
//! which a single corrupted or adversarially scaled client update can skew
//! arbitrarily — lossy low-bit codecs only amplify the damage. [`FoldPolicy`]
//! names the robust-statistics alternatives the fold can run instead; the
//! actual fold implementations live in `lifl-fl::robust`, while this enum is
//! the *configuration* vocabulary shared by the session and cluster builders
//! (`lifl-core`), the simulator's configuration (`lifl-sim`) and the
//! fault-injection test tier.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How an aggregator combines the model updates of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum FoldPolicy {
    /// Sample-weighted federated averaging (the seed behaviour): eager,
    /// constant-memory, bit-exact with the pre-policy fold path.
    #[default]
    FedAvg,
    /// Coordinate-wise trimmed mean: for every coordinate, the
    /// `trim_permille`/1000 largest and smallest values across the round's
    /// updates are discarded and the survivors averaged **unweighted** (an
    /// adversary controls its reported sample count, so robust statistics
    /// must not weight by it). Buffers the round's updates.
    TrimmedMean {
        /// Per-side trim fraction in permille (1..=499); e.g. `100` trims the
        /// top and bottom 10% of values at every coordinate.
        trim_permille: u16,
    },
    /// Coordinate-wise median across the round's updates (unweighted; the
    /// maximally trimmed mean). Buffers the round's updates.
    Median,
}

impl FoldPolicy {
    /// A short stable label for tables and test names.
    pub fn label(self) -> String {
        match self {
            FoldPolicy::FedAvg => "fedavg".to_string(),
            FoldPolicy::TrimmedMean { trim_permille } => format!("trimmed{trim_permille}"),
            FoldPolicy::Median => "median".to_string(),
        }
    }

    /// Whether this policy is the seed's eager sample-weighted FedAvg fold.
    pub fn is_fedavg(self) -> bool {
        matches!(self, FoldPolicy::FedAvg)
    }

    /// Validates the policy's parameters.
    ///
    /// # Errors
    /// Returns an error string when a trimmed mean trims nothing
    /// (`trim_permille == 0`) or trims everything (both sides of 500‰ meet in
    /// the middle, leaving no survivors on even counts).
    pub fn validate(self) -> Result<(), String> {
        if let FoldPolicy::TrimmedMean { trim_permille } = self {
            if trim_permille == 0 || trim_permille >= 500 {
                return Err(format!(
                    "trimmed-mean trim_permille must be in 1..=499 (per side), got {trim_permille}"
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for FoldPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_seed_fold() {
        assert_eq!(FoldPolicy::default(), FoldPolicy::FedAvg);
        assert!(FoldPolicy::default().is_fedavg());
        assert!(!FoldPolicy::Median.is_fedavg());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FoldPolicy::FedAvg.to_string(), "fedavg");
        assert_eq!(
            FoldPolicy::TrimmedMean { trim_permille: 100 }.to_string(),
            "trimmed100"
        );
        assert_eq!(FoldPolicy::Median.to_string(), "median");
    }

    #[test]
    fn validation_bounds_the_trim() {
        assert!(FoldPolicy::FedAvg.validate().is_ok());
        assert!(FoldPolicy::Median.validate().is_ok());
        assert!(FoldPolicy::TrimmedMean { trim_permille: 1 }
            .validate()
            .is_ok());
        assert!(FoldPolicy::TrimmedMean { trim_permille: 499 }
            .validate()
            .is_ok());
        assert!(FoldPolicy::TrimmedMean { trim_permille: 0 }
            .validate()
            .is_err());
        assert!(FoldPolicy::TrimmedMean { trim_permille: 500 }
            .validate()
            .is_err());
    }

    #[test]
    fn serde_roundtrip() {
        for policy in [
            FoldPolicy::FedAvg,
            FoldPolicy::TrimmedMean { trim_permille: 250 },
            FoldPolicy::Median,
        ] {
            let json = serde_json::to_string(&policy).unwrap();
            let back: FoldPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(policy, back);
        }
    }
}
