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
    /// What `weighted_sum`'s buffer holds.
    pub(crate) held: Held,
}

/// What the buffer behind a [`CumulativeFedAvg`]'s sum holds. Each element
/// of a round's sum is multiplied by the round's factor exactly once, after
/// its last add: by the closing batch's pass ([`Held::Average`]) or else by
/// [`CumulativeFedAvg::finalize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Held {
    /// The running weighted sum: zeros before the first fold.
    #[default]
    Sum,
    /// Nothing yet: a pooled buffer as an earlier round left it. The
    /// round's first accumulator pass writes every element without reading
    /// one; a fold that reads the sum zero-fills it first, once.
    Stale,
    /// The round's average: the batch that completed the round stored it
    /// already scaled, so the sum takes no further fold.
    Average,
}

impl CumulativeFedAvg {
    /// Creates an empty accumulator for models of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        CumulativeFedAvg {
            weighted_sum: DenseModel::zeros(dim),
            total_samples: 0,
            updates_folded: 0,
            held: Held::Sum,
        }
    }

    /// Backs an accumulator that holds no buffer yet (fresh, or emptied by
    /// [`CumulativeFedAvg::finalize`]) with one checked out of `pool`, so
    /// the first fold of a round writes into memory a previous round already
    /// touched instead of allocating. The buffer comes back holding whatever
    /// it held ([`lifl_shmem::BufferPool::checkout_f32`]), and nothing zeroes
    /// it here: the round's first batch pass starts every element from zeros
    /// held in registers and writes it without reading it, and a fold that
    /// must read the sum (a single-view fold, a `TopK` scatter first in its
    /// batch) zero-fills it first, once. A no-op once a buffer is in place.
    pub fn warm_from(&mut self, pool: &lifl_shmem::BufferPool, dim: usize) {
        if self.weighted_sum.is_empty() && dim > 0 {
            self.weighted_sum = DenseModel::from_vec(pool.checkout_f32(dim));
            self.held = Held::Stale;
        }
    }

    /// Refuses a fold into an accumulator whose round a closing batch
    /// already averaged ([`CumulativeFedAvg::fold_closing_batch`]): the sum
    /// it would add to is gone.
    pub(crate) fn check_open(&self) -> Result<()> {
        match self.held {
            Held::Average => Err(LiflError::InvalidAggregationGoal(self.updates_folded)),
            Held::Sum | Held::Stale => Ok(()),
        }
    }

    /// Readies the sum for a fold that reads it: a stale buffer is
    /// zero-filled here, once.
    fn zero_stale(&mut self) {
        if self.held == Held::Stale {
            self.weighted_sum.as_mut_slice().fill(0.0);
            self.held = Held::Sum;
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
    /// samples or samples that would overflow the folded `u64` total, or
    /// into a round a closing batch already averaged, before any state
    /// changes.
    pub fn fold(&mut self, update: &ModelUpdate) -> Result<()> {
        self.check_open()?;
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
        self.zero_stale();
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
        self.check_open()?;
        let total = add_samples(self.total_samples, samples)?;
        if self.weighted_sum.is_empty() {
            self.weighted_sum = DenseModel::zeros(view.dim());
        }
        self.zero_stale();
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
    /// accumulator empty for reuse. The sum is scaled by `1 / total` here
    /// only when no closing batch stored it scaled already
    /// ([`CumulativeFedAvg::fold_closing_batch`]): a round folded one view
    /// at a time, or one no batch closed. Either way every element is
    /// multiplied by the same factor once, after its last add.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] if nothing has been folded.
    pub fn finalize(&mut self) -> Result<ModelUpdate> {
        if self.updates_folded == 0 || self.total_samples == 0 {
            return Err(LiflError::InvalidAggregationGoal(self.updates_folded));
        }
        let mut model = std::mem::take(&mut self.weighted_sum);
        if std::mem::take(&mut self.held) != Held::Average {
            model.scale(1.0 / self.total_samples as f32);
        }
        let samples = self.total_samples;
        self.total_samples = 0;
        self.updates_folded = 0;
        Ok(ModelUpdate::intermediate(model, samples))
    }

    /// Allocation-free [`CumulativeFedAvg::finalize`]: writes the aggregated
    /// model into `out` (resizing it only if the dimension changed) and
    /// keeps the accumulator's buffer, stale, so the next round reuses its
    /// allocation and its first pass writes it without reading it; returns
    /// the total sample count.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] if nothing has been folded.
    pub fn drain_into(&mut self, out: &mut DenseModel) -> Result<u64> {
        if self.updates_folded == 0 || self.total_samples == 0 {
            return Err(LiflError::InvalidAggregationGoal(self.updates_folded));
        }
        out.copy_from_slice(self.weighted_sum.as_slice());
        if self.held != Held::Average {
            out.scale(1.0 / self.total_samples as f32);
        }
        self.held = Held::Stale;
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

    /// `drain_into` leaves the buffer stale rather than zeroing it: a next
    /// round folded by batch (its first pass writes without reading) or one
    /// update at a time (which zero-fills first) gets the bits a fresh
    /// accumulator gets, round after round.
    #[test]
    fn a_drained_accumulator_folds_the_next_round_like_a_fresh_one() {
        let dim = 2100;
        let rounds: Vec<Vec<ModelUpdate>> = (0..3u64)
            .map(|r| {
                (0..4u64)
                    .map(|i| {
                        let values = (0..dim)
                            .map(|d| ((d as u64 * 7 + i * 31 + r) % 89) as f32 * 0.02 - 0.9);
                        update(i, values.collect(), i + r + 1)
                    })
                    .collect()
            })
            .collect();
        let bits =
            |m: &DenseModel| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        let pool = lifl_shmem::BufferPool::new();
        let mut dirty = pool.checkout_f32(dim);
        dirty.fill(f32::NAN);
        pool.checkin_f32(dirty);
        let mut acc = CumulativeFedAvg::default();
        acc.warm_from(&pool, dim);
        let mut out = DenseModel::zeros(dim);
        for (round, updates) in rounds.iter().enumerate() {
            let views: Vec<_> = updates
                .iter()
                .map(|u| {
                    (
                        EncodedView::identity_over(crate::kernels::le_bytes(u.model.as_slice())),
                        u.samples,
                    )
                })
                .collect();
            if round == 1 {
                for u in updates {
                    acc.fold(u).unwrap();
                }
            } else {
                acc.fold_closing_batch(&views).unwrap();
            }
            assert_eq!(
                acc.drain_into(&mut out).unwrap(),
                fedavg(updates).unwrap().samples
            );
            assert_eq!(acc.held, Held::Stale, "round {round}");
            assert_eq!(
                bits(&out),
                bits(&fedavg(updates).unwrap().model),
                "round {round}"
            );
        }
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
