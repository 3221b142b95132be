//! Deterministic random-number helpers for simulations.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic random-number generator with the distributions the
/// experiments need (uniform, exponential inter-arrivals, choice, shuffle).
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Uniform value in `[low, high)`. Returns `low` when the range is empty.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        if high <= low {
            return low;
        }
        self.inner.gen_range(low..high)
    }

    /// Uniform integer in `[0, n)`. Returns 0 when `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.inner.gen_range(0..n)
        }
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = self.inner.gen_range(1e-12..1.0);
        -mean * u.ln()
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1: f64 = self.inner.gen_range(1e-12..1.0);
        let u2: f64 = self.inner.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Samples from a symmetric Dirichlet distribution of dimension `k` with
    /// concentration `alpha`, used for non-IID client label skew.
    pub fn dirichlet(&mut self, k: usize, alpha: f64) -> Vec<f64> {
        // Gamma(alpha, 1) sampling via Marsaglia–Tsang; for alpha < 1 use the
        // boosting identity Gamma(a) = Gamma(a+1) * U^(1/a).
        let mut draws = Vec::with_capacity(k);
        for _ in 0..k {
            draws.push(self.gamma(alpha.max(1e-3)));
        }
        let sum: f64 = draws.iter().sum::<f64>().max(1e-12);
        draws.iter().map(|d| d / sum).collect()
    }

    fn gamma(&mut self, alpha: f64) -> f64 {
        if alpha < 1.0 {
            let u: f64 = self.inner.gen_range(1e-12..1.0);
            return self.gamma(alpha + 1.0) * u.powf(1.0 / alpha);
        }
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal(0.0, 1.0);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = self.inner.gen_range(1e-12..1.0);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::from_seed(1);
        for _ in 0..1000 {
            let v = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
        assert_eq!(rng.uniform(5.0, 5.0), 5.0);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::from_seed(2);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean {mean}");
        assert_eq!(rng.exponential(0.0), 0.0);
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = SimRng::from_seed(3);
        for alpha in [0.1, 0.5, 1.0, 5.0] {
            let probs = rng.dirichlet(10, alpha);
            assert_eq!(probs.len(), 10);
            let sum: f64 = probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(probs.iter().all(|p| *p >= 0.0));
        }
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = SimRng::from_seed(4);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn index_handles_empty() {
        let mut rng = SimRng::from_seed(5);
        assert_eq!(rng.index(0), 0);
        for _ in 0..100 {
            assert!(rng.index(7) < 7);
        }
    }
}
