//! Eager versus lazy aggregation timing (Fig. 1, §5.4, Appendix G).
//!
//! Given the times at which a single aggregator's inputs become available and
//! the per-update aggregation time, [`completion_time`] computes when the
//! aggregator produces its output under each policy:
//!
//! * **Eager**: Recv and Agg overlap — each update is aggregated as soon as it
//!   arrives (and the aggregator is free), so arrival gaps are hidden.
//! * **Lazy**: all `n` updates are queued first, then aggregated in one batch.

use lifl_types::{AggregationTiming, SimDuration, SimTime};

/// When an aggregator finishes aggregating a set of inputs.
///
/// `ready_at` is when the aggregator instance itself can start working
/// (cold-start or reuse time); `arrivals` are the input-availability times;
/// `per_update` is the aggregation compute per input.
pub fn completion_time(
    timing: AggregationTiming,
    ready_at: SimTime,
    arrivals: &[SimTime],
    per_update: SimDuration,
) -> SimTime {
    if arrivals.is_empty() {
        return ready_at;
    }
    let mut sorted: Vec<SimTime> = arrivals.to_vec();
    sorted.sort();
    match timing {
        AggregationTiming::Eager => {
            let mut done = ready_at;
            for arrival in sorted {
                done = done.max(arrival) + per_update;
            }
            done
        }
        AggregationTiming::Lazy => match sorted.last() {
            Some(&last) => ready_at.max(last) + per_update.scaled(sorted.len() as f64),
            None => ready_at,
        },
    }
}

/// The total busy CPU time the aggregator spends, identical under both
/// policies (eager changes *when* work happens, not *how much*).
pub fn busy_time(arrivals: &[SimTime], per_update: SimDuration) -> SimDuration {
    per_update.scaled(arrivals.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn eager_hides_arrival_gaps() {
        let arrivals = vec![t(0.0), t(10.0), t(20.0)];
        let per = SimDuration::from_secs(2.0);
        let eager = completion_time(AggregationTiming::Eager, t(0.0), &arrivals, per);
        let lazy = completion_time(AggregationTiming::Lazy, t(0.0), &arrivals, per);
        // Eager: each update is aggregated within its gap, so completion is
        // last arrival + one aggregation.
        assert_eq!(eager.as_secs(), 22.0);
        // Lazy: last arrival + 3 aggregations.
        assert_eq!(lazy.as_secs(), 26.0);
        assert!(eager < lazy);
    }

    #[test]
    fn eager_equals_lazy_for_simultaneous_arrivals() {
        let arrivals = vec![t(5.0); 4];
        let per = SimDuration::from_secs(1.0);
        let eager = completion_time(AggregationTiming::Eager, t(0.0), &arrivals, per);
        let lazy = completion_time(AggregationTiming::Lazy, t(0.0), &arrivals, per);
        assert_eq!(eager, lazy);
        assert_eq!(eager.as_secs(), 9.0);
    }

    #[test]
    fn ready_time_delays_start() {
        let arrivals = vec![t(1.0)];
        let per = SimDuration::from_secs(2.0);
        let done = completion_time(AggregationTiming::Eager, t(10.0), &arrivals, per);
        assert_eq!(done.as_secs(), 12.0);
    }

    #[test]
    fn empty_arrivals_finish_immediately() {
        assert_eq!(
            completion_time(
                AggregationTiming::Eager,
                t(3.0),
                &[],
                SimDuration::from_secs(1.0)
            ),
            t(3.0)
        );
        assert_eq!(
            busy_time(&[], SimDuration::from_secs(1.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn busy_time_is_policy_independent() {
        let arrivals = vec![t(0.0), t(1.0), t(2.0)];
        assert_eq!(
            busy_time(&arrivals, SimDuration::from_secs(2.0)).as_secs(),
            6.0
        );
    }

    #[test]
    fn eager_never_slower_than_lazy() {
        // Property over a grid of arrival patterns.
        for gap in [0.0, 0.5, 1.0, 3.0, 10.0] {
            let arrivals: Vec<SimTime> = (0..6).map(|i| t(i as f64 * gap)).collect();
            let per = SimDuration::from_secs(1.5);
            let eager = completion_time(AggregationTiming::Eager, t(0.0), &arrivals, per);
            let lazy = completion_time(AggregationTiming::Lazy, t(0.0), &arrivals, per);
            assert!(eager <= lazy, "gap {gap}");
        }
    }
}
