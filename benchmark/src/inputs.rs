//! Seeded workload inputs and the harness-side reference they are checked
//! against. Nothing here calls the engine: the program under test receives
//! only the generated values.

/// SplitMix64: the whole benchmark's only source of randomness, so the same
/// `--seed` gives the same inputs on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A bell-shaped value in about ±0.35 (sum of four 16-bit uniforms,
    /// centred): the shape of a model delta — most coordinates small, a few
    /// large — which is what top-k selection and per-tensor scales react to.
    pub fn bell(&mut self) -> f32 {
        let w = self.next_u64();
        let sum = (w & 0xFFFF) + ((w >> 16) & 0xFFFF) + ((w >> 32) & 0xFFFF) + (w >> 48);
        (sum as f32 - 131_070.0) * (0.1 / 37_837.0)
    }
}

/// One client's contribution: a dense parameter vector and its FedAvg
/// weight (sample count).
#[derive(Debug, Clone)]
pub struct ClientInput {
    pub client: u64,
    pub values: Vec<f32>,
    pub weight: u64,
}

/// `count` client inputs of `dim` seeded parameters, ids `0..count`. Weights
/// cycle through `1..=13` by client id rather than by seed: the `f32`
/// rounding error `model_err_ppm` reports under `Identity` depends on the
/// weight mix, and a seeded mix would make it wander by a tenth from seed
/// to seed.
pub fn generate(rng: &mut Rng, count: usize, dim: usize) -> Vec<ClientInput> {
    (0..count as u64)
        .map(|client| ClientInput {
            client,
            values: (0..dim).map(|_| rng.bell()).collect(),
            weight: 1 + (client * 7) % 13,
        })
        .collect()
}

/// Flat FedAvg of `(values, weight)` pairs accumulated in `f64`: the
/// reference every workload's first round is compared with.
pub fn reference_fedavg<'a>(updates: impl IntoIterator<Item = (&'a [f32], u64)>) -> Vec<f64> {
    let mut acc: Vec<f64> = Vec::new();
    let mut total = 0.0f64;
    for (values, weight) in updates {
        if acc.is_empty() {
            acc = vec![0.0; values.len()];
        }
        let w = weight as f64;
        total += w;
        for (a, v) in acc.iter_mut().zip(values) {
            *a += w * f64::from(*v);
        }
    }
    if total > 0.0 {
        for a in &mut acc {
            *a /= total;
        }
    }
    acc
}

/// Relative L2 distance `‖model − reference‖ / ‖reference‖`; infinite on a
/// length mismatch or a non-finite model.
pub fn relative_l2(model: &[f32], reference: &[f64]) -> f64 {
    if model.len() != reference.len() || model.iter().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    let (mut diff, mut norm) = (0.0f64, 0.0f64);
    for (m, r) in model.iter().zip(reference) {
        let d = f64::from(*m) - r;
        diff += d * d;
        norm += r * r;
    }
    if norm == 0.0 {
        return if diff == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (diff / norm).sqrt()
}

/// FNV-1a over the model's little-endian bytes: equal across passes exactly
/// when the round is bit-reproducible.
pub fn fnv1a(model: &[f32]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for v in model {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_bell_is_centred() {
        let a = generate(&mut Rng::new(7), 3, 1000);
        let b = generate(&mut Rng::new(7), 3, 1000);
        let c = generate(&mut Rng::new(8), 3, 1000);
        assert_eq!(a[2].values, b[2].values);
        assert_ne!(a[0].values, c[0].values);
        let all: Vec<f32> = a.iter().flat_map(|i| i.values.iter().copied()).collect();
        let mean = all.iter().sum::<f32>() / all.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!(all.iter().all(|v| v.abs() <= 0.35));
        assert!(a.iter().all(|i| (1..=13).contains(&i.weight)));
    }

    #[test]
    fn reference_is_the_weighted_mean() {
        let updates = [(&[1.0f32, 4.0][..], 1u64), (&[3.0, 0.0][..], 3)];
        assert_eq!(reference_fedavg(updates), vec![2.5, 1.0]);
    }

    #[test]
    fn relative_l2_flags_mismatch_and_nan() {
        assert_eq!(relative_l2(&[3.0, 4.0], &[3.0, 4.0]), 0.0);
        assert!((relative_l2(&[3.0, 4.5], &[3.0, 4.0]) - 0.1).abs() < 1e-12);
        assert!(relative_l2(&[3.0], &[3.0, 4.0]).is_infinite());
        assert!(relative_l2(&[f32::NAN, 4.0], &[3.0, 4.0]).is_infinite());
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        // FNV-1a("") and FNV-1a of four zero bytes.
        assert_eq!(fnv1a(&[]), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(&[0.0]), 0x4D25_767F_9DCE_13F5);
        assert_ne!(fnv1a(&[1.0, 2.0]), fnv1a(&[2.0, 1.0]));
    }
}
