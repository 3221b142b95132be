//! The CPU-cycle count every cost model prices compute in (the unit of
//! Fig. 7(b) and Fig. 13(a)).

use lifl_types::SimDuration;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// A CPU-cycle count (the unit used by Fig. 7(b) and Fig. 13(a)).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize, Default)]
pub struct CpuCycles(pub f64);

impl CpuCycles {
    /// Zero cycles.
    pub const ZERO: CpuCycles = CpuCycles(0.0);

    /// Cycle count in giga-cycles.
    pub fn as_giga(self) -> f64 {
        self.0 / 1e9
    }

    /// CPU time these cycles occupy on a core with the given clock (GHz).
    pub fn to_duration(self, clock_ghz: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / (clock_ghz.max(1e-9) * 1e9))
    }
}

impl Add for CpuCycles {
    type Output = CpuCycles;
    fn add(self, rhs: CpuCycles) -> CpuCycles {
        CpuCycles(self.0 + rhs.0)
    }
}

impl AddAssign for CpuCycles {
    fn add_assign(&mut self, rhs: CpuCycles) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for CpuCycles {
    fn sum<I: Iterator<Item = CpuCycles>>(iter: I) -> Self {
        iter.fold(CpuCycles::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_duration_roundtrip() {
        let cycles = CpuCycles(2.8e9);
        let dur = cycles.to_duration(2.8);
        assert!((dur.as_secs() - 1.0).abs() < 1e-9);
        assert!((cycles.as_giga() - 2.8).abs() < 1e-9);
    }

    #[test]
    fn cycles_sum() {
        let total: CpuCycles = [1.0, 2.0].iter().map(|g| CpuCycles(g * 1e9)).sum();
        assert!((total.as_giga() - 3.0).abs() < 1e-12);
    }
}
