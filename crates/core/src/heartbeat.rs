//! Client over-provisioning (§3: "LIFL detects client failures with
//! keep-alive heartbeats and enhances resilience by over-provisioning the
//! number of clients"). The keep-alive half is the cluster's: each node's
//! last heartbeat lives with the rest of the fault state in
//! `cluster::faults` ([`Cluster::detect_failed_nodes`]).
//!
//! [`Cluster::detect_failed_nodes`]: crate::cluster::Cluster::detect_failed_nodes

use lifl_types::{LiflError, Result};

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
