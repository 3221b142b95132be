//! Sharded, cache-blocked parallel FedAvg.
//!
//! [`CumulativeFedAvg`] folds one update at a time, streaming the whole
//! accumulator through the cache hierarchy once per update — at ResNet-152
//! scale that is ~700 MB of memory traffic per fold. [`ShardedFedAvg`]
//! restructures a *batch* fold along two axes:
//!
//! * **Cache blocking** — the parameter vector is walked in L1-sized blocks,
//!   and every update in the batch is folded into a block before moving on.
//!   The accumulator is then read and written once per batch instead of once
//!   per update, cutting memory traffic from `(2N + N)·dim·4` bytes to
//!   `(2 + N)·dim·4` for an N-update batch.
//! * **Sharding** — the vector is split into `shards` contiguous partitions
//!   folded concurrently on `std::thread::scope` workers (no extra
//!   dependencies). Partitions are disjoint, so no synchronisation or merge
//!   is needed.
//!
//! **Determinism:** within every element, updates are folded in batch order —
//! exactly the order sequential [`CumulativeFedAvg`] uses — regardless of
//! shard count or thread scheduling. Results are therefore bit-identical
//! run-to-run *and* bit-identical to the sequential fold (a fixed merge
//! order much stronger than the 1e-5 relative-error contract the tests
//! assert).
//!
//! A batch is a slice of [`EncodedView`]s folded with their fused
//! decode-fold kernels, so aggregators drain their queue without ever
//! materialising a dense intermediate; a dense payload joins as an identity
//! view over its little-endian bytes ([`EncodedView::identity_over`], with
//! [`crate::kernels::le_bytes`] for an `f32` slice). A sparse `TopK` update
//! is not cache-blocked — it touches a few percent of each block — but split
//! once per shard: every view's pairs are strictly ascending by index (the
//! wire contract [`EncodedView::parse`] checks), so two binary searches hand
//! every shard exactly its own pairs.
//!
//! **Break-even:** spawning and joining the shard workers costs more than
//! folding a small batch does in total, so a batch whose payload is below
//! `SPAWN_BREAK_EVEN_BYTES` folds on the calling thread, whatever the shard
//! count.

use crate::aggregate::{CumulativeFedAvg, ModelUpdate};
use crate::codec::EncodedView;
use crate::model::DenseModel;
use lifl_types::{CodecKind, LiflError, Result};

/// Elements per cache block (8 KiB of `f32`: the block of the accumulator
/// and the matching slice of one update together fit comfortably in L1).
const BLOCK_ELEMS: usize = 2048;

/// Batch payload bytes below which the shard workers are not worth spawning.
/// Measured on the 2-vCPU reference box with both worker counts forced: a
/// two-worker `thread::scope` adds 80-200 us to a fold (spawn, wake-up, join),
/// and one thread folds 4 MiB of payload in 250-700 us depending on the codec.
/// Two workers lost to one on every batch up to 2 MiB (`TopK` 0.2 and
/// 0.8 MiB, `Uniform8` 0.5 and 2 MiB, dense 2 MiB), won on every batch from
/// 8 MiB of `Uniform8` or 32 MiB of dense up, and went either way between.
const SPAWN_BREAK_EVEN_BYTES: usize = 4 << 20;

/// A batch-oriented, sharded FedAvg accumulator wrapping the same running
/// state as [`CumulativeFedAvg`] (and interoperable with it: `shards == 1`
/// degenerates to a cache-blocked sequential fold on the calling thread).
#[derive(Debug, Clone)]
pub struct ShardedFedAvg {
    shards: usize,
    acc: CumulativeFedAvg,
}

impl ShardedFedAvg {
    /// Creates an accumulator for models of dimension `dim` split into
    /// `shards` partitions (clamped to at least 1).
    pub fn new(dim: usize, shards: usize) -> Self {
        ShardedFedAvg {
            shards: shards.max(1),
            acc: CumulativeFedAvg::new(dim),
        }
    }

    /// Wraps an existing sequential accumulator (preserving any state already
    /// folded into it) so batches can be folded sharded from here on.
    pub fn around(acc: CumulativeFedAvg, shards: usize) -> Self {
        ShardedFedAvg {
            shards: shards.max(1),
            acc,
        }
    }

    /// Unwraps back into the sequential accumulator, keeping all folded state.
    pub fn into_inner(self) -> CumulativeFedAvg {
        self.acc
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of updates folded so far.
    pub fn updates_folded(&self) -> u64 {
        self.acc.updates_folded()
    }

    /// Total samples represented by the folded updates.
    pub fn total_samples(&self) -> u64 {
        self.acc.total_samples()
    }

    /// Folds a batch of `(view, samples)` pairs across the shard workers
    /// using the fused decode-fold kernels; dense payloads join the same
    /// batch wrapped by [`EncodedView::identity_over`].
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] or
    /// [`LiflError::InvalidAggregationGoal`] (zero-sample update) before any
    /// state is mutated; the batch is all-or-nothing.
    pub fn fold_encoded_batch(&mut self, updates: &[(EncodedView<'_>, u64)]) -> Result<()> {
        if updates.is_empty() {
            return Ok(());
        }
        let dim = self.ensure_dim(updates[0].0.dim())?;
        for (view, samples) in updates {
            if *samples == 0 {
                return Err(LiflError::InvalidAggregationGoal(0));
            }
            if view.dim() != dim {
                return Err(LiflError::DimensionMismatch {
                    expected: dim,
                    actual: view.dim(),
                });
            }
        }
        let payload: usize = updates.iter().map(|(view, _)| view.wire_bytes()).sum();
        self.fold_views_across(updates, self.workers(payload));
        Ok(())
    }

    /// Folds validated views into the accumulator cut into `workers`
    /// chunks. Within every element the adds happen in batch order: a `TopK`
    /// update folds into the whole chunk at once, and each run of other
    /// updates between two of them is cache-blocked across the chunk.
    fn fold_views_across(&mut self, updates: &[(EncodedView<'_>, u64)], workers: usize) {
        let is_topk = |view: &EncodedView<'_>| matches!(view.codec(), CodecKind::TopK { .. });
        self.run_sharded(workers, |start, chunk| {
            let mut next = 0;
            while let Some((view, samples)) = updates.get(next) {
                if is_topk(view) {
                    view.fold_range_into(*samples as f32, start, chunk);
                    next += 1;
                    continue;
                }
                let run = &updates[next..];
                let run = &run[..run.iter().take_while(|(view, _)| !is_topk(view)).count()];
                for block_off in (0..chunk.len()).step_by(BLOCK_ELEMS) {
                    let block_len = BLOCK_ELEMS.min(chunk.len() - block_off);
                    let block = &mut chunk[block_off..block_off + block_len];
                    for (view, samples) in run {
                        view.fold_range_into(*samples as f32, start + block_off, block);
                    }
                }
                next += run.len();
            }
        });
        for (_, samples) in updates {
            self.acc.total_samples += samples;
        }
        self.acc.updates_folded += updates.len() as u64;
    }

    /// Produces the aggregated model as an intermediate update, leaving the
    /// accumulator empty for reuse.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] if nothing has been folded.
    pub fn finalize(&mut self) -> Result<ModelUpdate> {
        self.acc.finalize()
    }

    /// Allocation-free finalize; see [`CumulativeFedAvg::drain_into`].
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] if nothing has been folded.
    pub fn drain_into(&mut self, out: &mut DenseModel) -> Result<u64> {
        self.acc.drain_into(out)
    }

    /// Initialises (or checks) the accumulator dimension and returns it.
    fn ensure_dim(&mut self, dim: usize) -> Result<usize> {
        if self.acc.weighted_sum.is_empty() {
            self.acc.weighted_sum = DenseModel::zeros(dim);
        }
        let have = self.acc.weighted_sum.dim();
        if have != dim {
            return Err(LiflError::DimensionMismatch {
                expected: have,
                actual: dim,
            });
        }
        Ok(dim)
    }

    /// Worker threads a batch of `payload_bytes` folds across: one per shard,
    /// capped by `available_parallelism` — oversubscribing a small machine
    /// only adds scheduler noise — and a single one, the calling thread,
    /// below [`SPAWN_BREAK_EVEN_BYTES`].
    fn workers(&self, payload_bytes: usize) -> usize {
        if payload_bytes < SPAWN_BREAK_EVEN_BYTES {
            return 1;
        }
        self.shards
            .min(std::thread::available_parallelism().map_or(1, usize::from))
    }

    /// Runs `work(chunk_start, chunk)` over the accumulator cut into
    /// `workers` contiguous chunks, each on its own scoped thread (a single
    /// chunk runs on the calling thread).
    ///
    /// The partitioning has no numeric effect (per-element fold order is
    /// batch order regardless), so any worker count produces bit-identical
    /// results.
    fn run_sharded(&mut self, workers: usize, work: impl Fn(usize, &mut [f32]) + Sync) {
        let sum = self.acc.weighted_sum.as_mut_slice();
        let chunk_len = sum.len().div_ceil(workers).max(1);
        if sum.len() <= chunk_len {
            work(0, sum);
            return;
        }
        std::thread::scope(|scope| {
            for (index, chunk) in sum.chunks_mut(chunk_len).enumerate() {
                let work = &work;
                scope.spawn(move || work(index * chunk_len, chunk));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // The public entry points keep a batch this small on one thread, so
        // the chunk counts are forced through the inner fold.
        let views = identity_views(&updates);
        for shards in [1, 2, 3, 8, 64] {
            let mut sharded = ShardedFedAvg::new(10_000, shards);
            sharded.fold_views_across(&views, shards);
            assert_eq!(sharded.updates_folded(), 6);
            let got = sharded.finalize().unwrap();
            assert_eq!(got.samples, expected.samples, "{shards} shards");
            for (a, b) in got.model.as_slice().iter().zip(expected.model.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{shards} shards: {a} vs {b}");
            }
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
        for shards in [1, 4] {
            let mut sharded = ShardedFedAvg::new(3000, shards);
            let views: Vec<_> = encoded.iter().map(|(e, s)| (e.view(), *s)).collect();
            sharded.fold_views_across(&views, shards);
            let got = sharded.finalize().unwrap();
            assert_eq!(got.samples, expected.samples);
            for (a, b) in got.model.as_slice().iter().zip(expected.model.as_slice()) {
                assert!(
                    (a - b).abs() <= step,
                    "{shards} shards: |{a} - {b}| > {step}"
                );
            }
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

    /// The same views folded across `chunks` forced chunks.
    fn folded_across(dim: usize, views: &[(EncodedView<'_>, u64)], chunks: usize) -> Vec<u32> {
        let mut sharded = ShardedFedAvg::new(dim, chunks);
        sharded.fold_views_across(views, chunks);
        assert_eq!(sharded.updates_folded(), views.len() as u64);
        let model = sharded.finalize().unwrap().model;
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
        // Many cache blocks and every chunk count, through the encoder.
        let dim = 20_000;
        let updates = batch(3, dim);
        let mut codec = UpdateCodec::new(CodecKind::TopK { permille: 100 });
        let encoded: Vec<_> = updates
            .iter()
            .map(|u| (codec.encode(&u.model), u.samples))
            .collect();
        let views: Vec<_> = encoded.iter().map(|(e, s)| (e.view(), *s)).collect();
        let expected = folded_sequentially(dim, &views);
        for chunks in [1usize, 2, 3, 8] {
            assert_eq!(
                folded_across(dim, &views, chunks),
                expected,
                "{chunks} chunks"
            );
        }

        // dim 24 cuts at 12 (2 chunks), at 8 and 16 (3) and every 3 (8):
        // kept indices sit on a cut (8, 12), right before one (7, 11) and
        // right after one (9, 13); the first update has no pair at or past
        // 16, so the last of three chunks, and five of eight, get none of it.
        // 167 permille of 24 keeps 4.
        let dim = 24;
        let first = topk_wire(24, 167, &[(7, 1.5), (8, -2.25), (9, 0.75), (12, 3.5)]);
        let second = topk_wire(24, 167, &[(0, -0.5), (11, 1.25), (13, -4.0), (23, 2.0)]);
        let views = [
            (EncodedView::parse(&first).unwrap(), 3),
            (EncodedView::parse(&second).unwrap(), 5),
        ];
        let expected = folded_sequentially(dim, &views);
        for chunks in [1usize, 2, 3, 8] {
            assert_eq!(
                folded_across(dim, &views, chunks),
                expected,
                "{chunks} chunks"
            );
        }
    }

    #[test]
    fn unsorted_and_duplicate_topk_payloads_are_refused_before_the_fold() {
        // Binary search on either payload would hand a chunk the wrong
        // pairs, so neither may become a view; the same pairs in ascending
        // order may.
        let unsorted = topk_wire(24, 167, &[(20, 1.0), (3, -2.0), (12, 0.5), (7, 4.0)]);
        let duplicate = topk_wire(24, 167, &[(2, 1.0), (9, 0.25), (9, 0.125), (17, -3.0)]);
        let sorted = topk_wire(24, 167, &[(3, -2.0), (7, 4.0), (12, 0.5), (20, 1.0)]);
        for wire in [&unsorted, &duplicate] {
            assert!(matches!(EncodedView::parse(wire), Err(LiflError::Codec(_))));
        }
        let views = [(EncodedView::parse(&sorted).unwrap(), 2)];
        let expected = folded_sequentially(24, &views);
        for chunks in [1usize, 2, 3, 8] {
            assert_eq!(
                folded_across(24, &views, chunks),
                expected,
                "{chunks} chunks"
            );
        }
    }

    #[test]
    fn batches_on_either_side_of_the_break_even_fold_the_same_bits() {
        let dim = 150_000;
        let updates = batch(5, dim);
        for (permille, spawns) in [(10u16, false), (1000, true)] {
            let mut codec = UpdateCodec::new(CodecKind::TopK { permille });
            let encoded: Vec<_> = updates
                .iter()
                .map(|u| (codec.encode(&u.model), u.samples))
                .collect();
            let views: Vec<_> = encoded.iter().map(|(e, s)| (e.view(), *s)).collect();
            let payload: usize = views.iter().map(|(view, _)| view.wire_bytes()).sum();
            assert_eq!(payload >= SPAWN_BREAK_EVEN_BYTES, spawns);
            let mut sharded = ShardedFedAvg::new(dim, 2);
            assert_eq!(sharded.workers(payload) > 1, spawns && cores() > 1);
            sharded.fold_encoded_batch(&views).unwrap();
            let model = sharded.finalize().unwrap().model;
            let got: Vec<u32> = model.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, folded_sequentially(dim, &views), "permille {permille}");
        }
    }

    fn cores() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
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
        let mut sharded = ShardedFedAvg::new(512, 2);
        sharded.fold_views_across(&mixed, 2);
        let got = sharded.finalize().unwrap();
        let expected = crate::aggregate::fedavg(&updates).unwrap();
        assert_eq!(got.samples, expected.samples);
        for (a, b) in got.model.as_slice().iter().zip(expected.model.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "identity mixed batch diverged");
        }
    }

    #[test]
    fn bad_batches_are_rejected_atomically() {
        let mut updates = batch(3, 64);
        let mut sharded = ShardedFedAvg::new(64, 2);
        updates[2].samples = 0;
        assert!(sharded
            .fold_encoded_batch(&identity_views(&updates))
            .is_err());
        assert_eq!(sharded.updates_folded(), 0);
        updates[2].samples = 1;
        updates[1].model = DenseModel::zeros(63);
        assert!(sharded
            .fold_encoded_batch(&identity_views(&updates))
            .is_err());
        assert_eq!(sharded.updates_folded(), 0);
        assert!(sharded.finalize().is_err());
        sharded.fold_encoded_batch(&[]).unwrap();
        assert_eq!(sharded.updates_folded(), 0);
    }

    #[test]
    fn eager_single_fold_interoperates_with_batches() {
        let updates = batch(5, 256);
        let mut eager = CumulativeFedAvg::new(256);
        eager.fold(&updates[0]).unwrap();
        let mut sharded = ShardedFedAvg::around(eager, 4);
        sharded
            .fold_encoded_batch(&identity_views(&updates[1..]))
            .unwrap();
        let got = sharded.finalize().unwrap();
        let expected = crate::aggregate::fedavg(&updates).unwrap();
        for (a, b) in got.model.as_slice().iter().zip(expected.model.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn drain_into_reuses_allocations() {
        let updates = batch(4, 128);
        let mut sharded = ShardedFedAvg::new(128, 2);
        let mut out = DenseModel::zeros(128);
        let views = identity_views(&updates);
        for _ in 0..3 {
            sharded.fold_encoded_batch(&views).unwrap();
            let samples = sharded.drain_into(&mut out).unwrap();
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
    use crate::aggregate::fedavg;
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
        /// The tentpole equivalence contract: sharded batch folding at 1, 2
        /// and 8 shards matches the sequential `CumulativeFedAvg` within 1e-5
        /// relative error (it is in fact bit-identical) and is bit-identical
        /// across repeated runs at a fixed shard count.
        #[test]
        fn sharded_matches_sequential_and_is_deterministic(updates in arbitrary_batch()) {
            let dim = updates[0].model.dim();
            let mut sequential = CumulativeFedAvg::new(dim);
            for u in &updates {
                sequential.fold(u).unwrap();
            }
            let expected = sequential.finalize().unwrap();
            let views = super::tests::identity_views(&updates);
            for shards in [1usize, 2, 8] {
                let run = |_: usize| {
                    let mut s = ShardedFedAvg::new(dim, shards);
                    s.fold_views_across(&views, shards);
                    s.finalize().unwrap()
                };
                let first = run(0);
                let second = run(1);
                prop_assert_eq!(first.samples, expected.samples);
                for ((a, b), c) in first
                    .model
                    .as_slice()
                    .iter()
                    .zip(second.model.as_slice())
                    .zip(expected.model.as_slice())
                {
                    prop_assert_eq!(a.to_bits(), b.to_bits(),
                        "shards {} not deterministic: {} vs {}", shards, a, b);
                    let tolerance = 1e-5f32 * c.abs().max(1.0);
                    prop_assert!((a - c).abs() <= tolerance,
                        "shards {}: {} vs sequential {}", shards, a, c);
                }
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
                for shards in [1usize, 4] {
                    let mut sharded = ShardedFedAvg::new(dim, shards);
                    sharded.fold_views_across(&views, shards);
                    let got = sharded.finalize().unwrap();
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
}
