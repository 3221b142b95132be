//! Robust aggregation folds ([`FoldPolicy`]).
//!
//! FedAvg's weighted mean has a breakdown point of zero: one corrupted or
//! adversarially scaled client update moves the aggregate arbitrarily far,
//! and lossy low-bit codecs amplify the damage. [`RobustFold`] implements the
//! coordinate-wise robust statistics named by [`FoldPolicy`] — trimmed mean
//! and median — and [`PolicyFold`] is the policy-dispatched accumulator the
//! aggregator runtime folds through: its [`FoldPolicy::FedAvg`] arm delegates
//! to the exact [`CumulativeFedAvg`] calls the pre-policy path made, so the
//! default policy stays bit-exact with the seed.
//!
//! The robust statistics are deliberately **unweighted**: an adversary
//! controls the sample count its update reports, so weighting by it would
//! hand the attacker its influence back. The finalized intermediate still
//! carries the summed sample count so hierarchical weighting above a robust
//! level stays meaningful.

use crate::aggregate::{add_samples, CumulativeFedAvg, ModelUpdate};
use crate::codec::EncodedView;
use crate::model::DenseModel;
use lifl_types::{FoldPolicy, LiflError, Result};

/// A buffering accumulator computing a coordinate-wise robust statistic
/// (trimmed mean or median) over one round's updates.
///
/// Unlike [`CumulativeFedAvg`] this cannot fold eagerly in constant memory —
/// order statistics need the whole round — so it buffers each update decoded
/// to dense parameters and computes the statistic at
/// [`RobustFold::finalize`].
#[derive(Debug, Clone)]
pub struct RobustFold {
    policy: FoldPolicy,
    rows: Vec<DenseModel>,
    total_samples: u64,
}

impl RobustFold {
    /// Creates an empty fold for `policy`.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when the policy's parameters are
    /// invalid (see [`FoldPolicy::validate`]) or the policy is
    /// [`FoldPolicy::FedAvg`] (which has a dedicated constant-memory fold).
    pub fn new(policy: FoldPolicy) -> Result<Self> {
        policy.validate().map_err(LiflError::InvalidConfig)?;
        if policy.is_fedavg() {
            return Err(LiflError::InvalidConfig(
                "RobustFold does not serve FedAvg; use CumulativeFedAvg".to_string(),
            ));
        }
        Ok(RobustFold {
            policy,
            rows: Vec::new(),
            total_samples: 0,
        })
    }

    /// The policy this fold computes.
    pub fn policy(&self) -> FoldPolicy {
        self.policy
    }

    /// Number of updates buffered so far.
    pub fn updates_folded(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Buffers one update decoded from its zero-copy wire view (the decode
    /// runs on the dispatched [`crate::kernels`] arms like every other
    /// codec consumer).
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] for an update carrying
    /// zero samples or samples that would overflow the buffered total, and
    /// [`LiflError::DimensionMismatch`] on a dimension mismatch with the
    /// buffered rows.
    pub fn fold_encoded_view(&mut self, view: &EncodedView<'_>, samples: u64) -> Result<()> {
        self.fold_encoded_batch(&[(*view, samples)])
    }

    /// Buffers a batch of views, all-or-nothing: every weight and dimension
    /// is checked before the first row is decoded.
    fn fold_encoded_batch(&mut self, views: &[(EncodedView<'_>, u64)]) -> Result<()> {
        let Some((first, _)) = views.first() else {
            return Ok(());
        };
        let dim = self.rows.first().map_or(first.dim(), DenseModel::dim);
        let mut total = self.total_samples;
        for (view, samples) in views {
            total = add_samples(total, *samples)?;
            if view.dim() != dim {
                return Err(LiflError::DimensionMismatch {
                    expected: dim,
                    actual: view.dim(),
                });
            }
        }
        self.rows
            .extend(views.iter().map(|(view, _)| view.decode()));
        self.total_samples = total;
        Ok(())
    }

    /// Computes the coordinate-wise statistic over the buffered updates and
    /// returns it as an intermediate update carrying the summed sample count,
    /// leaving the fold empty for reuse.
    ///
    /// Values are ordered with [`f32::total_cmp`], so NaNs injected by
    /// corruption sort past every finite value and land in the trimmed tails.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] if nothing was buffered.
    pub fn finalize(&mut self) -> Result<ModelUpdate> {
        if self.rows.is_empty() {
            return Err(LiflError::InvalidAggregationGoal(0));
        }
        let rows = std::mem::take(&mut self.rows);
        let samples = self.total_samples;
        self.total_samples = 0;
        let dim = rows[0].dim();
        let n = rows.len();
        let trim = match self.policy {
            FoldPolicy::TrimmedMean { trim_permille } => n * usize::from(trim_permille) / 1000,
            // The median is the maximally trimmed mean: keep the middle one
            // (odd n) or average the middle two (even n).
            FoldPolicy::Median => (n - 1) / 2,
            FoldPolicy::FedAvg => unreachable!("RobustFold::new rejects FedAvg"),
        };
        let mut out = DenseModel::zeros(dim);
        let mut column = vec![0.0f32; n];
        for d in 0..dim {
            for (slot, row) in column.iter_mut().zip(&rows) {
                *slot = row.as_slice()[d];
            }
            column.sort_unstable_by(f32::total_cmp);
            let kept = &column[trim..n - trim];
            let sum: f64 = kept.iter().map(|v| f64::from(*v)).sum();
            out.as_mut_slice()[d] = (sum / kept.len() as f64) as f32;
        }
        Ok(ModelUpdate::intermediate(out, samples))
    }
}

/// The policy-dispatched accumulator behind every aggregator: FedAvg folds
/// through the seed's [`CumulativeFedAvg`] path unchanged (bit-exact),
/// robust policies buffer through [`RobustFold`].
#[derive(Debug)]
pub enum PolicyFold {
    /// Sample-weighted eager FedAvg (the seed path).
    FedAvg(CumulativeFedAvg),
    /// A buffering coordinate-wise robust statistic.
    Robust(RobustFold),
}

impl Default for PolicyFold {
    fn default() -> Self {
        PolicyFold::FedAvg(CumulativeFedAvg::default())
    }
}

impl PolicyFold {
    /// Creates the accumulator serving `policy`.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] for invalid policy parameters.
    pub fn new(policy: FoldPolicy) -> Result<Self> {
        if policy.is_fedavg() {
            Ok(PolicyFold::FedAvg(CumulativeFedAvg::default()))
        } else {
            Ok(PolicyFold::Robust(RobustFold::new(policy)?))
        }
    }

    /// The policy this accumulator computes.
    pub fn policy(&self) -> FoldPolicy {
        match self {
            PolicyFold::FedAvg(_) => FoldPolicy::FedAvg,
            PolicyFold::Robust(robust) => robust.policy(),
        }
    }

    /// Number of updates folded (or buffered) so far.
    pub fn updates_folded(&self) -> u64 {
        match self {
            PolicyFold::FedAvg(acc) => acc.updates_folded(),
            PolicyFold::Robust(robust) => robust.updates_folded(),
        }
    }

    /// Backs the FedAvg accumulator with a `pool` buffer when it holds none
    /// (see [`CumulativeFedAvg::warm_from`]); robust policies buffer whole
    /// updates instead of accumulating and ignore it.
    pub fn warm_from(&mut self, pool: &lifl_shmem::BufferPool, dim: usize) {
        if let PolicyFold::FedAvg(acc) = self {
            acc.warm_from(pool, dim);
        }
    }

    /// Hands a FedAvg accumulator's buffer back to `pool` (see
    /// [`CumulativeFedAvg::release_to`]); robust policies hold none.
    pub fn release_to(&mut self, pool: &lifl_shmem::BufferPool) {
        if let PolicyFold::FedAvg(acc) = self {
            acc.release_to(pool);
        }
    }

    /// Folds one update off its zero-copy wire view.
    ///
    /// # Errors
    /// Propagates the underlying fold's errors.
    pub fn fold_encoded_view(&mut self, view: &EncodedView<'_>, samples: u64) -> Result<()> {
        match self {
            PolicyFold::FedAvg(acc) => acc.fold_encoded_view(view, samples),
            PolicyFold::Robust(robust) => robust.fold_encoded_view(view, samples),
        }
    }

    /// Folds a drained batch of wire views, all-or-nothing, on the calling
    /// thread. The FedAvg arm folds through the cache-blocked
    /// [`CumulativeFedAvg::fold_encoded_batch`]; robust arms buffer the
    /// decoded batch.
    ///
    /// # Errors
    /// Propagates the underlying fold's errors; on failure nothing is folded.
    pub fn fold_encoded_batch(&mut self, views: &[(EncodedView<'_>, u64)]) -> Result<()> {
        match self {
            PolicyFold::FedAvg(acc) => acc.fold_encoded_batch(views),
            PolicyFold::Robust(robust) => robust.fold_encoded_batch(views),
        }
    }

    /// Finalizes the round's aggregate, leaving the accumulator empty for
    /// reuse.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] if nothing was folded.
    pub fn finalize(&mut self) -> Result<ModelUpdate> {
        match self {
            PolicyFold::FedAvg(acc) => acc.finalize(),
            PolicyFold::Robust(robust) => robust.finalize(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_types::ClientId;

    /// Folds `values` into `fold` off their little-endian bytes, as a
    /// station folds a dense payload.
    fn fold_dense(fold: &mut RobustFold, values: &[f32], samples: u64) -> Result<()> {
        let view = EncodedView::identity_over(crate::kernels::le_bytes(values));
        fold.fold_encoded_view(&view, samples)
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        let mut fold = RobustFold::new(FoldPolicy::Median).unwrap();
        for (v, s) in [(1.0f32, 1), (100.0, 7), (3.0, 2)] {
            fold_dense(&mut fold, &[v, -v], s).unwrap();
        }
        let odd = fold.finalize().unwrap();
        assert_eq!(odd.model.as_slice(), &[3.0, -3.0]);
        assert_eq!(odd.samples, 10);

        for (v, s) in [(1.0f32, 1), (2.0, 1), (7.0, 1), (100.0, 1)] {
            fold_dense(&mut fold, &[v], s).unwrap();
        }
        let even = fold.finalize().unwrap();
        assert_eq!(even.model.as_slice(), &[4.5]);
    }

    #[test]
    fn trimmed_mean_discards_the_tails() {
        let mut fold = RobustFold::new(FoldPolicy::TrimmedMean { trim_permille: 200 }).unwrap();
        // 5 updates, 200‰ per side trims exactly one from each tail.
        for v in [1.0f32, 2.0, 3.0, 4.0, 1000.0] {
            fold_dense(&mut fold, &[v], 1).unwrap();
        }
        let agg = fold.finalize().unwrap();
        assert_eq!(agg.model.as_slice(), &[3.0]);
    }

    #[test]
    fn robust_statistics_ignore_reported_sample_counts() {
        // The outlier claims a huge sample count; the median must not care.
        let mut fold = RobustFold::new(FoldPolicy::Median).unwrap();
        fold_dense(&mut fold, &[1.0], 1).unwrap();
        fold_dense(&mut fold, &[2.0], 1).unwrap();
        fold_dense(&mut fold, &[1e9], 1_000_000).unwrap();
        let agg = fold.finalize().unwrap();
        assert_eq!(agg.model.as_slice(), &[2.0]);
    }

    #[test]
    fn nans_sort_into_the_trimmed_tail() {
        let mut fold = RobustFold::new(FoldPolicy::TrimmedMean { trim_permille: 250 }).unwrap();
        for v in [1.0f32, 2.0, 3.0, f32::NAN] {
            fold_dense(&mut fold, &[v], 1).unwrap();
        }
        let agg = fold.finalize().unwrap();
        // 250‰ per side over 4 rows trims one from each tail: the NaN (which
        // total_cmp sorts past +inf) and the minimum.
        assert_eq!(agg.model.as_slice(), &[2.5]);
        assert!(agg.model.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rejects_bad_inputs_and_policies() {
        assert!(RobustFold::new(FoldPolicy::FedAvg).is_err());
        assert!(RobustFold::new(FoldPolicy::TrimmedMean { trim_permille: 500 }).is_err());
        let mut fold = RobustFold::new(FoldPolicy::Median).unwrap();
        assert!(fold.finalize().is_err());
        assert!(fold_dense(&mut fold, &[1.0], 0).is_err());
        fold_dense(&mut fold, &[1.0, 2.0], 1).unwrap();
        assert!(fold_dense(&mut fold, &[1.0], 1).is_err());
    }

    #[test]
    fn policy_fold_fedavg_is_bit_exact_with_cumulative() {
        let updates: Vec<ModelUpdate> = (1..=5u64)
            .map(|i| {
                let values = vec![i as f32 * 0.7, -(i as f32) * 1.3, 0.25];
                ModelUpdate::from_client(ClientId::new(i), DenseModel::from_vec(values), i)
            })
            .collect();
        let mut reference = CumulativeFedAvg::default();
        let mut policy = PolicyFold::new(FoldPolicy::FedAvg).unwrap();
        for u in &updates {
            reference.fold(u).unwrap();
            let bytes = crate::kernels::le_bytes(u.model.as_slice());
            policy
                .fold_encoded_view(&EncodedView::identity_over(bytes), u.samples)
                .unwrap();
        }
        assert_eq!(policy.updates_folded(), 5);
        let a = reference.finalize().unwrap();
        let b = policy.finalize().unwrap();
        assert_eq!((a.samples, b.samples), (15, 15));
        for (x, y) in a.model.as_slice().iter().zip(b.model.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn policy_fold_batch_is_all_or_nothing_for_robust_arms() {
        let mut policy = PolicyFold::new(FoldPolicy::Median).unwrap();
        let payload: Vec<u8> = [1.0f32, 2.0].iter().flat_map(|v| v.to_le_bytes()).collect();
        let views = vec![
            (EncodedView::identity_over(&payload), 1u64),
            (EncodedView::identity_over(&payload), 0u64), // invalid weight
        ];
        assert!(policy.fold_encoded_batch(&views).is_err());
        assert_eq!(policy.updates_folded(), 0);
        // A dimension mismatch behind a valid view buffers neither.
        let short = [3.0f32].map(f32::to_le_bytes).concat();
        let views = [
            (EncodedView::identity_over(&payload), 1u64),
            (EncodedView::identity_over(&short), 1u64),
        ];
        assert!(matches!(
            policy.fold_encoded_batch(&views),
            Err(LiflError::DimensionMismatch { .. })
        ));
        assert_eq!(policy.updates_folded(), 0);
        // Nothing of either refused batch is counted: one later update is
        // the whole round.
        let view = EncodedView::identity_over(&payload);
        policy.fold_encoded_view(&view, 1).unwrap();
        assert_eq!(policy.finalize().unwrap().samples, 1);
    }

    #[test]
    fn a_weight_that_would_overflow_the_total_is_refused_before_any_state_changes() {
        let payload = crate::kernels::le_bytes(&[1.0f32, 2.0]).to_vec();
        let view = EncodedView::identity_over(&payload);
        let half = 1u64 << 63;
        for policy in [FoldPolicy::FedAvg, FoldPolicy::Median] {
            let mut fold = PolicyFold::new(policy).unwrap();
            fold.fold_encoded_view(&view, half).unwrap();
            assert_eq!(
                fold.fold_encoded_view(&view, half),
                Err(LiflError::InvalidAggregationGoal(half)),
                "{policy:?}"
            );
            // A batch refuses as a whole: its first view fits, its second
            // does not, and neither is folded.
            assert_eq!(
                fold.fold_encoded_batch(&[(view, 2), (view, half)]),
                Err(LiflError::InvalidAggregationGoal(half)),
                "{policy:?}"
            );
            assert_eq!(fold.updates_folded(), 1, "{policy:?}");
            fold.fold_encoded_view(&view, 2).unwrap();
            let agg = fold.finalize().unwrap();
            assert_eq!(agg.samples, half + 2, "{policy:?}");
            assert_eq!(agg.model.as_slice(), &[1.0, 2.0], "{policy:?}");
        }
    }
}
