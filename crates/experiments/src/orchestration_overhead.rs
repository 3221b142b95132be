//! §6.1 "Orchestration overhead of LIFL": the wall-clock cost of the
//! control-plane algorithms themselves — locality-aware placement with up to
//! 10,000 clients (< 17 ms in the paper) and one EWMA estimate (~0.2 ms).
//! Unlike every other experiment, these are *real* measurements of this
//! implementation, not simulated quantities.

use crate::report::format_table;
use lifl_core::ewma::EwmaEstimator;
use lifl_sim::config::PlacementPolicy;
use lifl_sim::placement::{NodeCapacity, PlacementEngine};
use lifl_types::NodeId;
use serde::Serialize;
use std::time::Instant;

/// One measured row.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadRow {
    /// Number of clients / updates placed.
    pub clients: usize,
    /// Time to compute the placement, in milliseconds.
    pub placement_ms: f64,
    /// Time for one EWMA estimate, in microseconds.
    pub ewma_us: f64,
}

/// The measured result.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadResult {
    /// Rows for increasing client counts.
    pub rows: Vec<OverheadRow>,
}

/// Measures the orchestration overhead for 100 … 10,000 clients.
pub fn run() -> OverheadResult {
    let mut rows = Vec::new();
    for clients in [100usize, 1_000, 5_000, 10_000] {
        // Enough nodes/capacity to absorb the demand, as in a large cluster.
        let nodes = (clients / 20 + 1).max(5);
        let engine = PlacementEngine::new(PlacementPolicy::BestFit);
        let mut caps: Vec<NodeCapacity> = (0..nodes as u64)
            .map(|i| NodeCapacity::new(NodeId::new(i), 20))
            .collect();
        let start = Instant::now();
        let outcome = engine.place_batch(clients as u64, &mut caps);
        let placement_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(outcome.assignments.len(), clients);

        let mut ewma = EwmaEstimator::new(0.7);
        let start = Instant::now();
        for i in 0..1000 {
            ewma.observe(i as f64);
        }
        let ewma_us = start.elapsed().as_secs_f64() * 1e6 / 1000.0;
        rows.push(OverheadRow {
            clients,
            placement_ms,
            ewma_us,
        });
    }
    OverheadResult { rows }
}

/// Formats the measured overheads.
pub fn format(result: &OverheadResult) -> String {
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.clients.to_string(),
                format!("{:.3}", r.placement_ms),
                format!("{:.3}", r.ewma_us),
            ]
        })
        .collect();
    let mut out = String::from("Orchestration overhead (measured on this implementation)\n");
    out.push_str(&format_table(
        &["clients", "placement (ms)", "EWMA (us)"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_at_10k_clients_is_fast() {
        let result = run();
        let row = result.rows.iter().find(|r| r.clients == 10_000).unwrap();
        // Paper: < 17 ms even with 10K clients. Allow headroom for debug builds.
        assert!(
            row.placement_ms < 500.0,
            "placement took {} ms",
            row.placement_ms
        );
        // EWMA estimate: negligible (paper: 0.2 ms including orchestration glue).
        assert!(row.ewma_us < 1000.0);
        assert!(format(&result).contains("10000"));
    }
}
