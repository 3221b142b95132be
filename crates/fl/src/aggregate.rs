//! FedAvg aggregation (§2.1).
//!
//! The aggregation function is `w_i = Σ_k w_i^k c_i^k / T_i` with
//! `T_i = Σ_k c_i^k`, where `c_i^k` is the number of data samples at client k.
//! [`CumulativeFedAvg`] maintains the running weighted sum so updates can be
//! folded in one at a time — precisely the property that makes *eager*
//! aggregation possible (Fig. 1, §5.4), and that lets hierarchical aggregation
//! produce the same result as flat aggregation.

use crate::codec::{EncodedUpdate, EncodedView};
use crate::model::DenseModel;
use crate::update::Update;
use lifl_types::{ClientId, LiflError, Result};
use serde::{Deserialize, Serialize};

/// One model update travelling through the aggregation hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelUpdate {
    /// The producing client, if this is a raw (leaf-level) update.
    pub client: Option<ClientId>,
    /// Model parameters (for a raw update) or the weighted average so far
    /// (for an intermediate update).
    pub model: DenseModel,
    /// Auxiliary information `A_i^k`: the number of samples this update
    /// represents (the sum of sample counts for an intermediate update).
    pub samples: u64,
}

impl ModelUpdate {
    /// A raw update from one client trained on `samples` examples.
    pub fn from_client(client: ClientId, model: DenseModel, samples: u64) -> Self {
        ModelUpdate {
            client: Some(client),
            model,
            samples,
        }
    }

    /// An intermediate update produced by an aggregator.
    pub fn intermediate(model: DenseModel, samples: u64) -> Self {
        ModelUpdate {
            client: None,
            model,
            samples,
        }
    }

    /// Serialized size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.model.byte_size()
    }
}

/// A running, sample-weighted FedAvg accumulator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CumulativeFedAvg {
    pub(crate) weighted_sum: DenseModel,
    pub(crate) total_samples: u64,
    pub(crate) updates_folded: u64,
}

impl CumulativeFedAvg {
    /// Creates an empty accumulator for models of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        CumulativeFedAvg {
            weighted_sum: DenseModel::zeros(dim),
            total_samples: 0,
            updates_folded: 0,
        }
    }

    /// Backs an accumulator that holds no buffer yet (fresh, or emptied by
    /// [`CumulativeFedAvg::finalize`]) with one checked out of `pool`, so
    /// the first fold of a round writes into memory a previous round already
    /// touched instead of allocating. The fold starts from the zeros
    /// [`lifl_shmem::BufferPool::checkout_f32`] guarantees, whatever the
    /// buffer held before. A no-op once a buffer is in place.
    pub fn warm_from(&mut self, pool: &lifl_shmem::BufferPool, dim: usize) {
        if self.weighted_sum.is_empty() && dim > 0 {
            self.weighted_sum = DenseModel::from_vec(pool.checkout_f32(dim));
        }
    }

    /// Empties the accumulator, checking a buffer it still holds (a round
    /// that failed mid-fold left one) back into `pool`, so the buffer
    /// [`CumulativeFedAvg::warm_from`] drew is reused rather than dropped.
    pub fn release_to(&mut self, pool: &lifl_shmem::BufferPool) {
        let stale = std::mem::take(self);
        if !stale.weighted_sum.is_empty() {
            pool.checkin_f32(stale.weighted_sum.into_vec());
        }
    }

    /// Folds one update into the accumulator (eager aggregation step).
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] on a dimension mismatch and
    /// [`LiflError::InvalidAggregationGoal`] for an update carrying zero
    /// samples or samples that would overflow the folded `u64` total, before
    /// any state changes.
    pub fn fold(&mut self, update: &ModelUpdate) -> Result<()> {
        let total = add_samples(self.total_samples, update.samples)?;
        if self.weighted_sum.is_empty() {
            self.weighted_sum = DenseModel::zeros(update.model.dim());
        }
        if self.weighted_sum.dim() != update.model.dim() {
            return Err(LiflError::DimensionMismatch {
                expected: self.weighted_sum.dim(),
                actual: update.model.dim(),
            });
        }
        self.weighted_sum
            .axpy(update.samples as f32, &update.model)?;
        self.total_samples = total;
        self.updates_folded += 1;
        Ok(())
    }

    /// Folds one *encoded* update in a single fused dequantize-and-axpy pass
    /// over the wire payload — no intermediate `DenseModel` is materialised.
    /// [`EncodedView::fold_range_into`] routes each codec through the
    /// runtime-dispatched SIMD kernels in [`crate::kernels`]; `TopK` folds
    /// only its nonzeros.
    ///
    /// # Errors
    /// Same conditions as [`CumulativeFedAvg::fold`].
    pub fn fold_encoded(&mut self, update: &EncodedUpdate, samples: u64) -> Result<()> {
        self.fold_encoded_view(&update.view(), samples)
    }

    /// Zero-copy variant of [`CumulativeFedAvg::fold_encoded`] operating on a
    /// borrowed wire payload (e.g. straight out of the shared-memory store).
    ///
    /// # Errors
    /// Same conditions as [`CumulativeFedAvg::fold`].
    pub fn fold_encoded_view(&mut self, view: &EncodedView<'_>, samples: u64) -> Result<()> {
        let total = add_samples(self.total_samples, samples)?;
        if self.weighted_sum.is_empty() {
            self.weighted_sum = DenseModel::zeros(view.dim());
        }
        view.fold_into(samples as f32, self.weighted_sum.as_mut_slice())?;
        self.total_samples = total;
        self.updates_folded += 1;
        Ok(())
    }

    /// Folds one update in whatever representation its [`Update`] envelope
    /// carries — the fold behind the flat backend ([`crate::FlatFedAvg`]):
    /// dense updates fold exactly like
    /// [`CumulativeFedAvg::fold`], encoded ones fuse dequantize-and-axpy, and
    /// remote wire bytes are parsed (or wrapped) in place with no copy.
    ///
    /// # Errors
    /// Same conditions as [`CumulativeFedAvg::fold`], plus codec parse
    /// failures for malformed remote bytes.
    pub fn fold_update(&mut self, update: &Update) -> Result<()> {
        match update {
            Update::Dense(dense) => self.fold(dense),
            Update::Encoded {
                update, samples, ..
            } => self.fold_encoded(update, *samples),
            Update::RemoteBytes {
                wire,
                weight,
                encoded: true,
            } => self.fold_encoded_view(&EncodedView::parse(wire)?, *weight),
            // Headerless dense little-endian `f32`s, folded in place.
            Update::RemoteBytes { wire, weight, .. } => {
                self.fold_encoded_view(&EncodedView::identity_over(wire), *weight)
            }
        }
    }

    /// Number of updates folded so far.
    pub fn updates_folded(&self) -> u64 {
        self.updates_folded
    }

    /// Produces the aggregated model as an intermediate update, leaving the
    /// accumulator empty for reuse.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] if nothing has been folded.
    pub fn finalize(&mut self) -> Result<ModelUpdate> {
        if self.updates_folded == 0 || self.total_samples == 0 {
            return Err(LiflError::InvalidAggregationGoal(self.updates_folded));
        }
        let mut model = std::mem::take(&mut self.weighted_sum);
        model.scale(1.0 / self.total_samples as f32);
        let samples = self.total_samples;
        self.total_samples = 0;
        self.updates_folded = 0;
        Ok(ModelUpdate::intermediate(model, samples))
    }

    /// Allocation-free [`CumulativeFedAvg::finalize`]: writes the aggregated
    /// model into `out` (resizing it only if the dimension changed), zeroes
    /// the accumulator *in place* so the next round reuses its allocation,
    /// and returns the total sample count.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] if nothing has been folded.
    pub fn drain_into(&mut self, out: &mut DenseModel) -> Result<u64> {
        if self.updates_folded == 0 || self.total_samples == 0 {
            return Err(LiflError::InvalidAggregationGoal(self.updates_folded));
        }
        let inv = 1.0 / self.total_samples as f32;
        out.copy_from_slice(self.weighted_sum.as_slice());
        out.scale(inv);
        self.weighted_sum.as_mut_slice().fill(0.0);
        let samples = self.total_samples;
        self.total_samples = 0;
        self.updates_folded = 0;
        Ok(samples)
    }
}

/// The folded sample total once an update of `samples` joins `total`: the
/// one weight check every fold — FedAvg's single and batch folds and
/// [`crate::RobustFold`] — makes before it changes any state.
///
/// # Errors
/// Returns [`LiflError::InvalidAggregationGoal`] of 0 for an update carrying
/// no samples, and of `samples` for one whose samples would overflow the
/// `u64` total.
pub(crate) fn add_samples(total: u64, samples: u64) -> Result<u64> {
    if samples == 0 {
        return Err(LiflError::InvalidAggregationGoal(0));
    }
    total
        .checked_add(samples)
        .ok_or(LiflError::InvalidAggregationGoal(samples))
}

/// Aggregates a batch of updates in one shot (lazy aggregation / reference result).
///
/// # Errors
/// Propagates the errors of [`CumulativeFedAvg::fold`] and
/// [`CumulativeFedAvg::finalize`].
pub fn fedavg(updates: &[ModelUpdate]) -> Result<ModelUpdate> {
    let dim = updates.first().map(|u| u.model.dim()).unwrap_or(0);
    let mut acc = CumulativeFedAvg::new(dim);
    for update in updates {
        acc.fold(update)?;
    }
    acc.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(client: u64, values: Vec<f32>, samples: u64) -> ModelUpdate {
        ModelUpdate::from_client(ClientId::new(client), DenseModel::from_vec(values), samples)
    }

    #[test]
    fn weighted_average_matches_hand_computation() {
        let updates = vec![update(1, vec![1.0, 0.0], 10), update(2, vec![0.0, 1.0], 30)];
        let agg = fedavg(&updates).unwrap();
        assert!((agg.model.as_slice()[0] - 0.25).abs() < 1e-6);
        assert!((agg.model.as_slice()[1] - 0.75).abs() < 1e-6);
        assert_eq!(agg.samples, 40);
        assert!(agg.client.is_none());
    }

    #[test]
    fn hierarchical_equals_flat() {
        // Aggregate {a,b} and {c,d} at two leaves, then the two intermediates
        // at the top; compare against flat aggregation of all four.
        let a = update(1, vec![1.0, 2.0], 5);
        let b = update(2, vec![3.0, 4.0], 15);
        let c = update(3, vec![5.0, 6.0], 10);
        let d = update(4, vec![7.0, 8.0], 20);
        let leaf1 = fedavg(&[a.clone(), b.clone()]).unwrap();
        let leaf2 = fedavg(&[c.clone(), d.clone()]).unwrap();
        let top = fedavg(&[leaf1, leaf2]).unwrap();
        let flat = fedavg(&[a, b, c, d]).unwrap();
        for (x, y) in top.model.as_slice().iter().zip(flat.model.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
        assert_eq!(top.samples, flat.samples);
    }

    #[test]
    fn eager_folding_matches_batch() {
        let updates: Vec<ModelUpdate> = (1..=6)
            .map(|i| update(i, vec![i as f32, (2 * i) as f32], i * 3))
            .collect();
        let batch = fedavg(&updates).unwrap();
        let mut acc = CumulativeFedAvg::new(2);
        for u in &updates {
            acc.fold(u).unwrap();
        }
        assert_eq!(acc.updates_folded(), 6);
        let eager = acc.finalize().unwrap();
        for (x, y) in eager.model.as_slice().iter().zip(batch.model.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn finalize_resets_accumulator() {
        let mut acc = CumulativeFedAvg::new(1);
        acc.fold(&update(1, vec![2.0], 4)).unwrap();
        let first = acc.finalize().unwrap();
        assert_eq!(first.samples, 4);
        assert_eq!(acc.updates_folded(), 0);
        assert!(acc.finalize().is_err());
        // The next round's total starts from zero.
        acc.fold(&update(2, vec![1.0], 3)).unwrap();
        assert_eq!(acc.finalize().unwrap().samples, 3);
    }

    #[test]
    fn warm_from_a_dirty_pooled_buffer_folds_like_a_fresh_accumulator() {
        let pool = lifl_shmem::BufferPool::new();
        let mut dirty = pool.checkout_f32(3);
        dirty.copy_from_slice(&[f32::NAN, -7.0, 1e30]);
        pool.checkin_f32(dirty);
        let updates = [
            update(1, vec![1.5, -0.25, 3.0], 4),
            update(2, vec![-2.0, 0.5, 0.125], 9),
        ];
        let mut fresh = CumulativeFedAvg::new(3);
        let mut warmed = CumulativeFedAvg::default();
        warmed.warm_from(&pool, 3);
        assert_eq!(pool.stats().hits, 1, "the dirty buffer was reused");
        for u in &updates {
            fresh.fold(u).unwrap();
            warmed.fold(u).unwrap();
        }
        let (fresh, warmed) = (fresh.finalize().unwrap(), warmed.finalize().unwrap());
        assert_eq!(fresh.samples, warmed.samples);
        let bits = |u: &ModelUpdate| -> Vec<u32> {
            u.model.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&warmed), bits(&fresh));
    }

    #[test]
    fn errors_on_bad_input() {
        let mut acc = CumulativeFedAvg::new(2);
        assert!(acc.fold(&update(1, vec![1.0, 2.0], 0)).is_err());
        acc.fold(&update(1, vec![1.0, 2.0], 1)).unwrap();
        assert!(acc.fold(&update(2, vec![1.0], 1)).is_err());
        assert!(fedavg(&[]).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_updates() -> impl Strategy<Value = Vec<ModelUpdate>> {
        (2usize..12, 1usize..8).prop_flat_map(|(n, dim)| {
            proptest::collection::vec(
                (proptest::collection::vec(-10.0f32..10.0, dim), 1u64..50),
                n..=n,
            )
            .prop_map(|items| {
                items
                    .into_iter()
                    .enumerate()
                    .map(|(i, (values, samples))| {
                        ModelUpdate::from_client(
                            ClientId::new(i as u64),
                            DenseModel::from_vec(values),
                            samples,
                        )
                    })
                    .collect()
            })
        })
    }

    proptest! {
        #[test]
        fn fedavg_is_within_input_bounds(updates in arbitrary_updates()) {
            let result = fedavg(&updates).unwrap();
            for d in 0..result.model.dim() {
                let min = updates.iter().map(|u| u.model.as_slice()[d]).fold(f32::INFINITY, f32::min);
                let max = updates.iter().map(|u| u.model.as_slice()[d]).fold(f32::NEG_INFINITY, f32::max);
                let v = result.model.as_slice()[d];
                prop_assert!(v >= min - 1e-3 && v <= max + 1e-3, "dim {}: {} not in [{}, {}]", d, v, min, max);
            }
        }

        #[test]
        fn fedavg_is_permutation_invariant(updates in arbitrary_updates()) {
            let forward = fedavg(&updates).unwrap();
            let mut reversed = updates.clone();
            reversed.reverse();
            let backward = fedavg(&reversed).unwrap();
            prop_assert_eq!(forward.samples, backward.samples);
            for (a, b) in forward.model.as_slice().iter().zip(backward.model.as_slice()) {
                prop_assert!((a - b).abs() < 1e-3);
            }
        }

        #[test]
        fn hierarchical_split_matches_flat(updates in arbitrary_updates(), split in 1usize..11) {
            let split = split.min(updates.len() - 1).max(1);
            let flat = fedavg(&updates).unwrap();
            let left = fedavg(&updates[..split]).unwrap();
            let right = fedavg(&updates[split..]).unwrap();
            let top = fedavg(&[left, right]).unwrap();
            prop_assert_eq!(flat.samples, top.samples);
            for (a, b) in flat.model.as_slice().iter().zip(top.model.as_slice()) {
                prop_assert!((a - b).abs() < 1e-2, "{} vs {}", a, b);
            }
        }
    }
}
