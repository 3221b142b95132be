//! The common interface every evaluated aggregation system exposes to the
//! experiment harness.

use crate::platform::{RoundReport, RoundSpec};
use lifl_types::SystemKind;

/// An aggregation system that can execute FL rounds in the cluster simulator.
///
/// Implemented by the LIFL platform and by every baseline profile in [`crate::systems`],
/// so the figure harnesses can drive them uniformly.
pub trait AggregationSystem {
    /// Which system this is (drives labels in tables and plots).
    fn system(&self) -> SystemKind;

    /// Simulates one aggregation round for the given arrivals.
    fn run_round(&mut self, spec: &RoundSpec) -> RoundReport;

    /// Number of aggregator instances currently provisioned (warm or always-on),
    /// sampled after the most recent round (Fig. 10(b)/(e)).
    fn active_aggregators(&self) -> u32;

    /// Label used in printed tables.
    fn label(&self) -> &'static str {
        self.system().label()
    }
}
