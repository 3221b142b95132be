//! Order statistics over timing samples: medians, percentiles and the
//! quartile spread the benchmark's regression bounds are judged against.

use std::time::Instant;

/// Sorts a copy of `values` ascending (NaNs, which no timing produces, sort
/// last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v
}

/// Median of `values` (mean of the two middle samples for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile (`0.0..=1.0`) by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the rule the acceptance driver applies to ten runs.
/// `None` with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median (the "spread" of the
/// acceptance rule); 0 when undefined.
pub fn iqr_frac(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Wall-clock nanoseconds `op` takes, once.
pub fn time_ns<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = op();
    (out, start.elapsed().as_nanos() as f64)
}

/// Median wall-clock nanoseconds of `reps` runs of `op`, after one untimed
/// warm-up run.
pub fn median_ns(reps: usize, mut op: impl FnMut()) -> f64 {
    op();
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| time_ns(&mut op).1).collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 6.0);
        assert_eq!(percentile(&v, 0.9), 10.0);
        assert_eq!(percentile(&v, 1.0), 11.0);
        assert!((percentile(&[1.0, 2.0], 0.25) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_frac_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[5.0; 10]), 0.0);
        assert_eq!(iqr_frac(&[5.0]), 0.0);
    }
}
