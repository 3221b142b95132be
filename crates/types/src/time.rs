//! Simulated time.
//!
//! The discrete-event simulator measures time in seconds as `f64`. Two
//! newtypes keep instants and durations apart and provide saturating,
//! non-negative arithmetic so that simulation code never produces a negative
//! timestamp.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in seconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SimTime(f64);

/// A span of simulated time in seconds. Always non-negative.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant from seconds. Negative values are clamped to zero.
    pub fn from_secs(secs: f64) -> Self {
        SimTime(secs.max(0.0))
    }

    /// Seconds since the simulation epoch.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Duration elapsed since `earlier`; zero if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs((self.0 - earlier.0).max(0.0))
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds. Negative values are clamped to zero.
    pub fn from_secs(secs: f64) -> Self {
        SimDuration(secs.max(0.0))
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis / 1e3)
    }

    /// Duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Duration in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Scales the duration by a non-negative factor.
    pub fn scaled(self, factor: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * factor.max(0.0))
    }
}

impl Eq for SimTime {}
impl Eq for SimDuration {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for SimDuration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_never_negative() {
        assert_eq!(SimTime::from_secs(-5.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(3.0);
        assert_eq!(b.duration_since(a).as_secs(), 2.0);
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
        assert_eq!(a - b, SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(10.0) + SimDuration::from_secs(2.5);
        assert_eq!(t.as_secs(), 12.5);
        let d = SimDuration::from_millis(1500.0);
        assert_eq!(d.as_secs(), 1.5);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
        ];
        v.sort();
        assert_eq!(v[0].as_secs(), 1.0);
        assert_eq!(v[2].as_secs(), 3.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1.0, 2.0, 3.5]
            .iter()
            .map(|s| SimDuration::from_secs(*s))
            .sum();
        assert!((total.as_secs() - 6.5).abs() < 1e-12);
        assert!((total.as_hours() - 6.5 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_clamps_negative_factor() {
        let d = SimDuration::from_secs(2.0);
        assert_eq!(d.scaled(-1.0), SimDuration::ZERO);
        assert_eq!(d.scaled(2.0).as_secs(), 4.0);
    }
}
