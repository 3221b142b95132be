//! Application-agnostic autoscaling (Knative KPA, §2.3) versus LIFL's
//! hierarchy-aware planning (§5.2) on the same bursty FL arrival trace.
//!
//! The KPA control loop only sees a concurrency number, so it reacts to the
//! burst with panic-mode over-provisioning and pays cascading cold starts;
//! the hierarchy planner sizes the aggregation tree from the (EWMA-smoothed)
//! queue estimate and keeps runtimes warm across levels.
//!
//! Run with: `cargo run -p lifl-examples --example autoscaler_comparison`

use lifl_core::ewma::EwmaEstimator;
use lifl_dataplane::CostModel;
use lifl_dataplane::SystemKind;
use lifl_serverless::kpa::{KpaAutoscaler, KpaConfig};
use lifl_sim::hierarchy::HierarchyPlan;
use lifl_types::{NodeId, SimTime};

fn main() {
    // A bursty arrival trace: quiet, a burst of 40 updates/min, quiet again.
    let arrival_per_min = [4.0, 4.0, 6.0, 40.0, 44.0, 38.0, 8.0, 4.0, 2.0, 0.0];

    // --- Knative KPA: concurrency-threshold scaling with panic mode. ---
    let mut kpa = KpaAutoscaler::new(KpaConfig::default());
    let mut ready = 1u32;
    println!("minute  arrivals/min  KPA desired  panic  planner leaves (+middle/top)");
    let mut ewma = EwmaEstimator::new(0.7);
    for (minute, &rate) in arrival_per_min.iter().enumerate() {
        // Feed per-second concurrency observations for this minute.
        for s in 0..60 {
            let t = SimTime::from_secs((minute * 60 + s) as f64);
            kpa.observe(t, rate / 10.0);
        }
        let now = SimTime::from_secs(((minute + 1) * 60) as f64);
        let decision = kpa.evaluate(now, ready);
        ready = decision.desired_replicas.max(1);

        // --- LIFL: hierarchy planned from the smoothed queue estimate. ---
        let estimate = ewma.observe(rate);
        let plan = HierarchyPlan::plan(&[(NodeId::new(0), estimate.round() as u32)], 2);
        let leaves = plan
            .on_node(NodeId::new(0))
            .map(|h| h.leaves())
            .unwrap_or(0);
        println!(
            "{:>6}  {:>12.0}  {:>11}  {:>5}  {:>6} (+{})",
            minute,
            rate,
            decision.desired_replicas,
            decision.panicking,
            leaves,
            plan.total_aggregators().saturating_sub(leaves)
        );
    }

    // Cascading cold starts: reactive scaling starts each level of a
    // 3-level chain only once the level before it is ready, so the chain is
    // ready after three cold starts; a pre-planned chain starts every level
    // at once and is ready after one.
    let cold_start = CostModel::paper_calibrated()
        .startup(SystemKind::Serverless)
        .cold_start;
    let reactive = SimTime::ZERO + cold_start + cold_start + cold_start;
    let planned = SimTime::ZERO + cold_start;
    println!(
        "\n3-level chain readiness: reactive (cascading cold starts) = {:.1}s, pre-planned = {:.1}s",
        reactive.as_secs(),
        planned.as_secs()
    );
}
