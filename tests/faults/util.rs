//! Shared fixtures for the fault tier.

use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::DenseModel;
use lifl_types::ClientId;

/// A deterministic batch of `n` client updates of dimension `dim`, values in
/// roughly `[-1.9, 2.0)`, client `i` reporting `i + 1` samples.
pub fn updates(n: usize, dim: usize) -> Vec<ModelUpdate> {
    (0..n)
        .map(|i| {
            let values: Vec<f32> = (0..dim)
                .map(|d| ((i * dim + d * 7) % 101) as f32 * 0.04 - 1.9)
                .collect();
            ModelUpdate::from_client(
                ClientId::new(i as u64),
                DenseModel::from_vec(values),
                (i + 1) as u64,
            )
        })
        .collect()
}

/// Asserts two models agree bit-for-bit.
pub fn assert_bit_exact(actual: &DenseModel, expected: &DenseModel, context: &str) {
    assert_eq!(actual.dim(), expected.dim(), "{context}: dimension");
    for (i, (a, b)) in actual
        .as_slice()
        .iter()
        .zip(expected.as_slice())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{context}: coordinate {i} diverged: {a} vs {b}"
        );
    }
}

/// The per-coordinate honest envelope `[min, max]` over a set of updates.
pub fn envelope(honest: &[ModelUpdate]) -> (Vec<f32>, Vec<f32>) {
    let dim = honest[0].model.dim();
    let mut lo = vec![f32::INFINITY; dim];
    let mut hi = vec![f32::NEG_INFINITY; dim];
    for update in honest {
        for (d, value) in update.model.as_slice().iter().enumerate() {
            lo[d] = lo[d].min(*value);
            hi[d] = hi[d].max(*value);
        }
    }
    (lo, hi)
}
