//! The cache-blocked batch fold ([`CumulativeFedAvg::fold_encoded_batch`]).
//!
//! [`CumulativeFedAvg::fold_encoded_view`] folds one update at a time,
//! streaming the whole accumulator through the cache hierarchy once per
//! update — at ResNet-152 scale that is ~700 MB of memory traffic per fold.
//! The batch fold restructures a *batch* along two axes:
//!
//! * **Cache blocking** — the parameter vector is walked in L1-sized blocks,
//!   and every update in the batch is folded into a block before moving on.
//!   The accumulator is then read and written once per batch instead of once
//!   per update, cutting memory traffic from `(2N + N)·dim·4` bytes to
//!   `(2 + N)·dim·4` for an N-update batch.
//! * **Multi-source passes** — inside a block, each run of up to eight
//!   consecutive dense (`Identity`) views folds in one kernel call
//!   ([`kernels::fold_dense_le_n`]) that loads and stores every accumulator
//!   element once, the views' adds chained in batch order. For N dense
//!   views the block makes `⌈N/8⌉` load/store passes instead of `N`; a
//!   quantized view still makes a pass of its own.
//!
//! The fold runs on the calling thread only: a station's parallelism is the
//! level it belongs to, whose stations the session's worker set folds side
//! by side.
//!
//! **Determinism:** within every element, updates are folded in batch order —
//! exactly the order the one-at-a-time fold uses. Results are therefore
//! bit-identical run-to-run *and* bit-identical to the sequential fold.
//!
//! A batch is a slice of [`EncodedView`]s folded with their fused
//! decode-fold kernels, so aggregators drain their queue without ever
//! materialising a dense intermediate; a dense payload joins as an identity
//! view over its little-endian bytes ([`EncodedView::identity_over`], with
//! [`crate::kernels::le_bytes`] for an `f32` slice). A sparse `TopK` update
//! is not cache-blocked — it touches a few percent of each block — but folds
//! into the whole accumulator at its place in the batch.
//!
//! [`ShardedFedAvg`] forwards to the batch fold; it exists only so the
//! whole-round benchmark's engine adapter compiles unchanged.

use crate::aggregate::{add_samples, CumulativeFedAvg};
use crate::codec::EncodedView;
use crate::kernels;
use crate::model::DenseModel;
use lifl_types::{CodecKind, LiflError, Result};

/// Elements per cache block (8 KiB of `f32`: the block of the accumulator
/// and the matching slice of one update together fit comfortably in L1).
const BLOCK_ELEMS: usize = 2048;

impl CumulativeFedAvg {
    /// Folds a batch of `(view, samples)` pairs cache-blocked, with the
    /// fused decode-fold kernels, on the calling thread; dense payloads join
    /// the same batch wrapped by [`EncodedView::identity_over`]. Every bit of
    /// the result is the one [`CumulativeFedAvg::fold_encoded_view`] gives
    /// the same views in batch order.
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] or
    /// [`LiflError::InvalidAggregationGoal`] (a zero-sample update, or one
    /// whose samples would overflow the folded total) before any state is
    /// mutated; the batch is all-or-nothing.
    pub fn fold_encoded_batch(&mut self, updates: &[(EncodedView<'_>, u64)]) -> Result<()> {
        let Some((first, _)) = updates.first() else {
            return Ok(());
        };
        let dim = first.dim();
        if self.weighted_sum.is_empty() {
            self.weighted_sum = DenseModel::zeros(dim);
        }
        if self.weighted_sum.dim() != dim {
            return Err(LiflError::DimensionMismatch {
                expected: self.weighted_sum.dim(),
                actual: dim,
            });
        }
        let mut total = self.total_samples;
        for (view, samples) in updates {
            total = add_samples(total, *samples)?;
            if view.dim() != dim {
                return Err(LiflError::DimensionMismatch {
                    expected: dim,
                    actual: view.dim(),
                });
            }
        }
        // Within every element the adds happen in batch order: a `TopK`
        // update folds into the whole accumulator at once, and each run of
        // other updates between two of them is cache-blocked.
        let is_topk = |view: &EncodedView<'_>| matches!(view.codec(), CodecKind::TopK { .. });
        let sum = self.weighted_sum.as_mut_slice();
        let mut next = 0;
        while let Some((view, samples)) = updates.get(next) {
            if is_topk(view) {
                view.fold_range_into(*samples as f32, 0, sum);
                next += 1;
                continue;
            }
            let run = &updates[next..];
            let run = &run[..run.iter().take_while(|(view, _)| !is_topk(view)).count()];
            for (index, block) in sum.chunks_mut(BLOCK_ELEMS).enumerate() {
                fold_block(run, index * BLOCK_ELEMS, block);
            }
            next += run.len();
        }
        self.total_samples = total;
        self.updates_folded += updates.len() as u64;
        Ok(())
    }
}

/// Folds `run` — views of any codec but `TopK` — into `block`, the
/// accumulator's elements from `at` on, in batch order: each group of up to
/// eight consecutive `Identity` views in one accumulator pass
/// ([`kernels::fold_dense_le_n`]), every other view in a pass of its own.
fn fold_block(run: &[(EncodedView<'_>, u64)], at: usize, block: &mut [f32]) {
    let mut rest = run;
    while let Some((view, samples)) = rest.first() {
        let mut srcs: [&[u8]; 8] = [&[]; 8];
        let mut weights = [0.0f32; 8];
        let mut dense = 0;
        for ((view, samples), (src, weight)) in rest.iter().zip(srcs.iter_mut().zip(&mut weights)) {
            let Some(bytes) = view.dense_from(at) else {
                break;
            };
            (*src, *weight) = (bytes, *samples as f32);
            dense += 1;
        }
        let folded = if dense == 0 {
            view.fold_range_into(*samples as f32, at, block);
            1
        } else {
            kernels::fold_dense_le_n(block, &srcs[..dense], &weights[..dense]);
            dense
        };
        rest = &rest[folded..];
    }
}

/// A [`CumulativeFedAvg`] that only batch-folds, kept because the
/// whole-round benchmark's engine adapter builds one. The shard count it
/// takes is ignored — the batch fold runs on the calling thread whatever it
/// is — and every bit it folds is [`CumulativeFedAvg::fold_encoded_batch`]'s.
#[derive(Debug, Clone)]
pub struct ShardedFedAvg(CumulativeFedAvg);

impl ShardedFedAvg {
    /// An empty accumulator for models of dimension `dim`; `shards` is
    /// accepted for compatibility and changes nothing.
    pub fn new(dim: usize, _shards: usize) -> Self {
        ShardedFedAvg(CumulativeFedAvg::new(dim))
    }

    /// Forwards to [`CumulativeFedAvg::fold_encoded_batch`].
    ///
    /// # Errors
    /// Exactly those of [`CumulativeFedAvg::fold_encoded_batch`].
    pub fn fold_encoded_batch(&mut self, updates: &[(EncodedView<'_>, u64)]) -> Result<()> {
        self.0.fold_encoded_batch(updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::ModelUpdate;
    use crate::codec::UpdateCodec;
    use lifl_types::{ClientId, CodecKind};

    /// Dense updates as the identity views a station folds them through.
    pub(super) fn identity_views(updates: &[ModelUpdate]) -> Vec<(EncodedView<'_>, u64)> {
        updates
            .iter()
            .map(|u| {
                let bytes = crate::kernels::le_bytes(u.model.as_slice());
                (EncodedView::identity_over(bytes), u.samples)
            })
            .collect()
    }

    fn batch(n: usize, dim: usize) -> Vec<ModelUpdate> {
        (0..n)
            .map(|i| {
                let values: Vec<f32> = (0..dim)
                    .map(|d| ((i * 31 + d * 7) % 113) as f32 * 0.017 - 0.95)
                    .collect();
                ModelUpdate::from_client(
                    ClientId::new(i as u64),
                    DenseModel::from_vec(values),
                    (i % 7 + 1) as u64,
                )
            })
            .collect()
    }

    #[test]
    fn sharded_batch_is_bit_identical_to_sequential() {
        let updates = batch(6, 10_000);
        let mut sequential = CumulativeFedAvg::new(10_000);
        for u in &updates {
            sequential.fold(u).unwrap();
        }
        let expected = sequential.finalize().unwrap();
        let mut batched = CumulativeFedAvg::new(10_000);
        batched
            .fold_encoded_batch(&identity_views(&updates))
            .unwrap();
        assert_eq!(batched.updates_folded(), 6);
        let got = batched.finalize().unwrap();
        assert_eq!(got.samples, expected.samples);
        for (a, b) in got.model.as_slice().iter().zip(expected.model.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn encoded_batch_matches_decode_then_fold() {
        let updates = batch(5, 3000);
        let mut codec = UpdateCodec::new(CodecKind::Uniform8);
        let encoded: Vec<_> = updates
            .iter()
            .map(|u| (codec.encode(&u.model), u.samples))
            .collect();
        // Reference: decode each update, fold sequentially.
        let mut reference = CumulativeFedAvg::new(3000);
        for (e, samples) in &encoded {
            reference
                .fold(&ModelUpdate::intermediate(e.decode(), *samples))
                .unwrap();
        }
        let expected = reference.finalize().unwrap();
        let step = encoded[0].0.scale();
        let mut batched = CumulativeFedAvg::new(3000);
        let views: Vec<_> = encoded.iter().map(|(e, s)| (e.view(), *s)).collect();
        batched.fold_encoded_batch(&views).unwrap();
        let got = batched.finalize().unwrap();
        assert_eq!(got.samples, expected.samples);
        for (a, b) in got.model.as_slice().iter().zip(expected.model.as_slice()) {
            assert!((a - b).abs() <= step, "|{a} - {b}| > {step}");
        }
    }

    /// Sequential reference: every view folded whole, in batch order.
    fn folded_sequentially(dim: usize, views: &[(EncodedView<'_>, u64)]) -> Vec<u32> {
        let mut reference = CumulativeFedAvg::new(dim);
        for (view, samples) in views {
            reference.fold_encoded_view(view, *samples).unwrap();
        }
        let model = reference.finalize().unwrap().model;
        model.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The same views folded as one batch.
    fn folded_as_batch(dim: usize, views: &[(EncodedView<'_>, u64)]) -> Vec<u32> {
        let mut batched = CumulativeFedAvg::new(dim);
        batched.fold_encoded_batch(views).unwrap();
        assert_eq!(batched.updates_folded(), views.len() as u64);
        let model = batched.finalize().unwrap().model;
        model.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A hand-built `TopK` wire buffer: pairs go out exactly as given, under
    /// the permille that keeps that many of `dim`.
    fn topk_wire(dim: u32, permille: u16, pairs: &[(u32, f32)]) -> Vec<u8> {
        let mut wire = vec![3, 0];
        wire.extend_from_slice(&permille.to_le_bytes());
        wire.extend_from_slice(&dim.to_le_bytes());
        wire.extend_from_slice(&0.0f32.to_le_bytes());
        wire.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (index, value) in pairs {
            wire.extend_from_slice(&index.to_le_bytes());
            wire.extend_from_slice(&value.to_le_bytes());
        }
        wire
    }

    #[test]
    fn sorted_topk_splits_once_per_shard_and_matches_fold_encoded() {
        // Many cache blocks, through the encoder.
        let dim = 20_000;
        let updates = batch(3, dim);
        let mut codec = UpdateCodec::new(CodecKind::TopK { permille: 100 });
        let encoded: Vec<_> = updates
            .iter()
            .map(|u| (codec.encode(&u.model), u.samples))
            .collect();
        let views: Vec<_> = encoded.iter().map(|(e, s)| (e.view(), *s)).collect();
        assert_eq!(
            folded_as_batch(dim, &views),
            folded_sequentially(dim, &views)
        );

        // Hand-built pairs: the first update has none at or past 16, the
        // second starts at 0 and ends on the last element. 167 permille of
        // 24 keeps 4.
        let dim = 24;
        let first = topk_wire(24, 167, &[(7, 1.5), (8, -2.25), (9, 0.75), (12, 3.5)]);
        let second = topk_wire(24, 167, &[(0, -0.5), (11, 1.25), (13, -4.0), (23, 2.0)]);
        let views = [
            (EncodedView::parse(&first).unwrap(), 3),
            (EncodedView::parse(&second).unwrap(), 5),
        ];
        assert_eq!(
            folded_as_batch(dim, &views),
            folded_sequentially(dim, &views)
        );
    }

    #[test]
    fn dense_groups_across_blocks_and_codecs_fold_the_sequential_bits() {
        // 19 dense views split into groups of 8, 8 and 3; a `Uniform8` view
        // ends a group early, 3 dense views form a short one, a `TopK` view
        // splits the run, and 9 dense views cross a group boundary again.
        // Dims sit one short of, on and one past the cache block, and span
        // several blocks.
        for dim in [2047usize, 2048, 2049, 10_000] {
            let updates = batch(33, dim);
            let dense = identity_views(&updates);
            let quantized = UpdateCodec::new(CodecKind::Uniform8).encode(&updates[19].model);
            let sparse =
                UpdateCodec::new(CodecKind::TopK { permille: 50 }).encode(&updates[23].model);
            let mut views = dense[..19].to_vec();
            views.push((quantized.view(), updates[19].samples));
            views.extend_from_slice(&dense[20..23]);
            views.push((sparse.view(), updates[23].samples));
            views.extend_from_slice(&dense[24..]);
            assert_eq!(views.len(), 33);
            assert_eq!(
                folded_as_batch(dim, &views),
                folded_sequentially(dim, &views),
                "dim {dim}"
            );
        }
    }

    #[test]
    fn unsorted_and_duplicate_topk_payloads_are_refused_before_the_fold() {
        // Binary search on either payload would hand a block the wrong
        // pairs, so neither may become a view; the same pairs in ascending
        // order may.
        let unsorted = topk_wire(24, 167, &[(20, 1.0), (3, -2.0), (12, 0.5), (7, 4.0)]);
        let duplicate = topk_wire(24, 167, &[(2, 1.0), (9, 0.25), (9, 0.125), (17, -3.0)]);
        let sorted = topk_wire(24, 167, &[(3, -2.0), (7, 4.0), (12, 0.5), (20, 1.0)]);
        for wire in [&unsorted, &duplicate] {
            assert!(matches!(EncodedView::parse(wire), Err(LiflError::Codec(_))));
        }
        let views = [(EncodedView::parse(&sorted).unwrap(), 2)];
        assert_eq!(folded_as_batch(24, &views), folded_sequentially(24, &views));
    }

    #[test]
    fn mixed_dense_and_encoded_batch_folds() {
        let updates = batch(4, 512);
        let mut codec = UpdateCodec::new(CodecKind::Identity);
        let dense_bytes: Vec<Vec<u8>> = updates
            .iter()
            .map(|u| {
                u.model
                    .as_slice()
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect()
            })
            .collect();
        let encoded: Vec<_> = updates
            .iter()
            .skip(2)
            .map(|u| codec.encode(&u.model))
            .collect();
        let mut mixed: Vec<(EncodedView<'_>, u64)> = dense_bytes
            .iter()
            .take(2)
            .zip(&updates)
            .map(|(b, u)| (EncodedView::identity_over(b), u.samples))
            .collect();
        mixed.extend(
            encoded
                .iter()
                .zip(updates.iter().skip(2))
                .map(|(e, u)| (e.view(), u.samples)),
        );
        let mut batched = CumulativeFedAvg::new(512);
        batched.fold_encoded_batch(&mixed).unwrap();
        let got = batched.finalize().unwrap();
        let expected = crate::aggregate::fedavg(&updates).unwrap();
        assert_eq!(got.samples, expected.samples);
        for (a, b) in got.model.as_slice().iter().zip(expected.model.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "identity mixed batch diverged");
        }
    }

    #[test]
    fn bad_batches_are_rejected_atomically() {
        let mut updates = batch(3, 64);
        let mut acc = CumulativeFedAvg::new(64);
        updates[2].samples = 0;
        assert!(acc.fold_encoded_batch(&identity_views(&updates)).is_err());
        assert_eq!(acc.updates_folded(), 0);
        updates[2].samples = 1;
        updates[1].model = DenseModel::zeros(63);
        assert!(acc.fold_encoded_batch(&identity_views(&updates)).is_err());
        assert_eq!(acc.updates_folded(), 0);
        assert!(acc.finalize().is_err());
        acc.fold_encoded_batch(&[]).unwrap();
        assert_eq!(acc.updates_folded(), 0);
    }

    #[test]
    fn a_batch_whose_weights_overflow_is_rejected_atomically() {
        let updates = batch(3, 64);
        let mut acc = CumulativeFedAvg::new(64);
        acc.fold_encoded_batch(&identity_views(&updates[..1]))
            .unwrap();
        let mut views = identity_views(&updates[1..]);
        views[1].1 = u64::MAX - updates[1].samples;
        assert_eq!(
            acc.fold_encoded_batch(&views),
            Err(LiflError::InvalidAggregationGoal(views[1].1))
        );
        assert_eq!(acc.updates_folded(), 1);
        assert_eq!(acc.finalize().unwrap().samples, updates[0].samples);
    }

    #[test]
    fn eager_single_fold_interoperates_with_batches() {
        let updates = batch(5, 256);
        let mut eager = CumulativeFedAvg::new(256);
        eager.fold(&updates[0]).unwrap();
        eager
            .fold_encoded_batch(&identity_views(&updates[1..]))
            .unwrap();
        let got = eager.finalize().unwrap();
        let expected = crate::aggregate::fedavg(&updates).unwrap();
        for (a, b) in got.model.as_slice().iter().zip(expected.model.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn drain_into_reuses_allocations() {
        let updates = batch(4, 128);
        let mut acc = CumulativeFedAvg::new(128);
        let mut out = DenseModel::zeros(128);
        let views = identity_views(&updates);
        for _ in 0..3 {
            acc.fold_encoded_batch(&views).unwrap();
            let samples = acc.drain_into(&mut out).unwrap();
            assert_eq!(samples, updates.iter().map(|u| u.samples).sum::<u64>());
        }
        let expected = crate::aggregate::fedavg(&updates).unwrap();
        for (a, b) in out.as_slice().iter().zip(expected.model.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::aggregate::{fedavg, ModelUpdate};
    use crate::codec::UpdateCodec;
    use lifl_types::{ClientId, CodecKind};
    use proptest::prelude::*;

    fn arbitrary_batch() -> impl Strategy<Value = Vec<ModelUpdate>> {
        (1usize..7, 1usize..600).prop_flat_map(|(n, dim)| {
            proptest::collection::vec(
                (proptest::collection::vec(-9.0f32..9.0, dim), 1u64..40),
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
        /// The equivalence contract: the cache-blocked batch fold matches
        /// the one-at-a-time `fold` within 1e-5 relative error (it is in fact
        /// bit-identical) and is bit-identical across repeated runs.
        #[test]
        fn sharded_matches_sequential_and_is_deterministic(updates in arbitrary_batch()) {
            let dim = updates[0].model.dim();
            let mut sequential = CumulativeFedAvg::new(dim);
            for u in &updates {
                sequential.fold(u).unwrap();
            }
            let expected = sequential.finalize().unwrap();
            let views = super::tests::identity_views(&updates);
            let run = || {
                let mut batched = CumulativeFedAvg::new(dim);
                batched.fold_encoded_batch(&views).unwrap();
                batched.finalize().unwrap()
            };
            let first = run();
            let second = run();
            prop_assert_eq!(first.samples, expected.samples);
            for ((a, b), c) in first
                .model
                .as_slice()
                .iter()
                .zip(second.model.as_slice())
                .zip(expected.model.as_slice())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "not deterministic: {} vs {}", a, b);
                let tolerance = 1e-5f32 * c.abs().max(1.0);
                prop_assert!((a - c).abs() <= tolerance, "{} vs sequential {}", a, c);
            }
        }

        /// Fused encoded batch folding equals decode-then-fold bit-exactly for
        /// `Identity` and within one quantization step (per unit sample
        /// weight) for the uniform codecs.
        #[test]
        fn fused_encoded_batch_matches_decode_then_fold(
            updates in arbitrary_batch(),
            seed in 0u64..500,
        ) {
            let dim = updates[0].model.dim();
            for kind in [CodecKind::Identity, CodecKind::Uniform8, CodecKind::Uniform4] {
                let mut codec = UpdateCodec::with_seed(kind, seed);
                let encoded: Vec<_> = updates
                    .iter()
                    .map(|u| (codec.encode(&u.model), u.samples))
                    .collect();
                let decoded: Vec<ModelUpdate> = encoded
                    .iter()
                    .map(|(e, s)| ModelUpdate::intermediate(e.decode(), *s))
                    .collect();
                let expected = fedavg(&decoded).unwrap();
                let views: Vec<_> = encoded.iter().map(|(e, s)| (e.view(), *s)).collect();
                let mut batched = CumulativeFedAvg::new(dim);
                batched.fold_encoded_batch(&views).unwrap();
                let got = batched.finalize().unwrap();
                prop_assert_eq!(got.samples, expected.samples);
                let step = encoded.iter().map(|(e, _)| e.scale()).fold(0.0f32, f32::max);
                for (a, b) in got.model.as_slice().iter().zip(expected.model.as_slice()) {
                    if kind.is_lossless() {
                        prop_assert_eq!(a.to_bits(), b.to_bits(),
                            "identity fused fold not bit-exact: {} vs {}", a, b);
                    } else {
                        prop_assert!((a - b).abs() <= step.max(1e-6),
                            "{}: fused {} vs decode-then-fold {} beyond step {}",
                            kind, a, b, step);
                    }
                }
            }
        }
    }
}
