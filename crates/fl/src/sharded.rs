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
//!   consecutive views of one codec folds in one kernel call that loads and
//!   stores every accumulator element once, the views' adds chained in
//!   batch order: dense (`Identity`) views through
//!   [`kernels::fold_dense_le_n`], `Uniform8` views through
//!   [`kernels::fold_u8_n`]. For N such views the block makes `⌈N/8⌉`
//!   load/store passes instead of `N`; a `Uniform4` view still makes a pass
//!   of its own. A run that is one such group — at most eight views, all
//!   `Identity` or all `Uniform8` — is one pass already, so it is not
//!   blocked: it streams over the whole vector.
//!
//! **Check, fold by range, commit.** A batch fold is three steps:
//! [`CumulativeFedAvg::open_batch`] makes every check (the batch is
//! all-or-nothing) and lends the accumulator's buffer out,
//! [`BatchPlan::fold_range`] folds any element range of it, and
//! [`CumulativeFedAvg::commit_batch`] takes the buffer back and counts the
//! batch. Within every element the adds, and a closing batch's multiply,
//! are the same whatever the range cuts, so ranges folded on different
//! threads give the one-range fold's bits. [`CumulativeFedAvg::fold_encoded_batch`]
//! is the one-range case on the calling thread. A station level of one
//! station (a tree's top) cuts its fold into ranges of at least
//! [`SPLIT_RANGE_BYTES`] ([`BatchPlan::ranges`]) and folds them on every
//! thread of the session's worker set; any other level folds each station
//! whole, side by side.
//!
//! **One write per round.** A station's accumulator is written once: a
//! pooled buffer comes back holding whatever an earlier round left in it,
//! and the batch's first pass over each element starts from zeros held in
//! registers ([`kernels::Pass::fresh`]) instead of loading it; the batch that
//! completes the round ([`CumulativeFedAvg::fold_closing_batch`]) multiplies
//! every element by `1 / total` right after its last add — in that pass
//! when the last run is one group ([`kernels::Pass::scale`]), else over each
//! block or range it just folded — so `finalize` does not walk it again. A
//! fold that must read the accumulator — a `TopK` view first in its batch,
//! a view that folds alone first in its block — zero-fills what it reads
//! first, once. Each element is multiplied by the round's factor exactly
//! once, after its last add, so every bit is the zero-filled accumulator's.
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
//! into the whole range at its place in the batch.
//!
//! [`ShardedFedAvg`] forwards to the batch fold; it exists only so the
//! whole-round benchmark's engine adapter compiles unchanged.

use crate::aggregate::{add_samples, CumulativeFedAvg, Held};
use crate::codec::EncodedView;
use crate::kernels::{self, Pass};
use crate::model::DenseModel;
use lifl_types::{CodecKind, LiflError, Result};

/// Elements per cache block of a run that takes more than one accumulator
/// pass (8 KiB of `f32`: the block of the accumulator and the matching slice
/// of one update together fit comfortably in L1).
///
/// A run that is one multi-source group — at most [`MAX_SOURCES`] views of
/// one codec, `Identity` or `Uniform8` — is not blocked at all: it is one
/// accumulator pass either way, and blocks only cut each source stream into
/// pieces. Any other run (one holding a `Uniform4` view, or views of both
/// codecs) makes several passes, and stays blocked so that they reuse an
/// L1-resident block instead of each streaming the whole accumulator. Measured on one vCPU of a KVM Intel Xeon (family 6, model 207,
/// 2 MiB L2), eight cold 256 KiB `Uniform8` views into a zeroed 2¹⁸-element
/// accumulator took ≈ 950–1 020 µs as eight single-source folds, ≈ 460–530 µs
/// as one fused call per 2 048-element block and ≈ 450–515 µs as one fused
/// call over the whole vector (medians of two runs of five; the same bits
/// each time). End to end the unblocked pass read `quant_cluster` `act_ms`
/// 4.69 against 4.79 ms blocked, and `dense_session`, whose leaves fold
/// eight 4 MiB dense views, ≈ 5 % lower than the blocked parent (four
/// alternating pairs each).
const BLOCK_ELEMS: usize = 2048;

/// Most views one multi-source kernel call folds on its vector arm.
const MAX_SOURCES: usize = 8;

/// Elements a range cut of a split fold is a multiple of: one 64-byte cache
/// line of `f32`, so every range but the last spans whole lines' worth of
/// elements. The accumulator's buffer is only `f32`-aligned, so a cut may
/// still fall inside a line: two threads share at most that one line per
/// cut.
const RANGE_ALIGN: usize = 16;

/// Fewest bytes one range of a split fold reads and writes: its share of
/// the accumulator and of every view's payload ([`BatchPlan::ranges`]).
///
/// A split range costs a parked worker's wake-up (the claim set is published
/// on a condvar) and, for the range the worker folds, sources another core
/// wrote. Measured on two vCPUs of a KVM Intel Xeon (family 6, model 207,
/// 2 MiB L2, AVX-512 arm): a one-station level folding four views, right
/// after a 300 µs two-claim level (as a tree's top runs right after its
/// leaves), as one range on the caller against two ranges beside one
/// worker, medians of 200 each — `Uniform8` views, 1 MiB of accumulator
/// and sources: 30.9 against 27.5 µs; 2 MiB: 60.2 against 48.9 µs; 8 MiB:
/// 315 against 155 µs; `Identity` views, 1.25 MiB: 20.9 against 28.2 µs;
/// 2.5 MiB: 46.7 against 33.5 µs; 20 MiB: 663 against 329 µs. The probe
/// folds cache-warm sources; end to end, `quant_cluster`'s cluster top
/// (2 MiB: a 1 MiB accumulator and four 256 KiB `Uniform8` views) split in
/// two read `act_ms` 2.357 against 2.327 ms whole (medians of 6 alternating
/// pairs of 10 s runs, split faster in 2), so a range must carry more than
/// 1 MiB. At 2 MiB that top, `topk_sharded`'s (≈ 1.4 MiB), `stream_burst`'s
/// (272 KiB) and `train_cluster`'s (≈ 64 KiB) stay whole, and
/// `dense_session`'s (20 MiB) splits across every thread.
pub const SPLIT_RANGE_BYTES: usize = 2 << 20;

/// A batch [`CumulativeFedAvg::open_batch`] checked: every weight and
/// dimension passed and nothing is folded yet. Each element range of the
/// lent buffer is folded by one [`BatchPlan::fold_range`] call — on any
/// thread, in any order, the ranges disjoint and together covering the
/// vector — and then [`CumulativeFedAvg::commit_batch`] counts the batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchPlan {
    dim: usize,
    /// The buffer holds nothing yet: the first pass over each element
    /// writes it without reading it.
    fresh: bool,
    /// A closing batch's factor, `1 / total`, multiplied into every element
    /// after its last add.
    scale: Option<f32>,
    total: u64,
    count: u64,
    /// What the whole fold reads and writes: the accumulator once and every
    /// view's payload.
    bytes: usize,
}

impl CumulativeFedAvg {
    /// Folds a batch of `(view, samples)` pairs cache-blocked, with the
    /// fused decode-fold kernels, on the calling thread; dense payloads join
    /// the same batch wrapped by [`EncodedView::identity_over`]. Every bit of
    /// the result is the one [`CumulativeFedAvg::fold_encoded_view`] gives
    /// the same views in batch order. Into a stale pooled buffer
    /// ([`CumulativeFedAvg::warm_from`]) the batch's first pass starts from
    /// zeros held in registers and writes every element without reading it.
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] or
    /// [`LiflError::InvalidAggregationGoal`] (a zero-sample update, one
    /// whose samples would overflow the folded total, or a round a closing
    /// batch already averaged) before any state is mutated; the batch is
    /// all-or-nothing.
    pub fn fold_encoded_batch(&mut self, updates: &[(EncodedView<'_>, u64)]) -> Result<()> {
        self.fold_batch(updates, false)
    }

    /// [`CumulativeFedAvg::fold_encoded_batch`] for the batch that completes
    /// the round: each element is multiplied by `1.0 / total as f32` right
    /// after its last add — the multiply [`CumulativeFedAvg::finalize`]
    /// would make afterwards — inside the last pass when the batch's last
    /// run is one group of at most eight `Identity` or `Uniform8` views,
    /// else over each block (or `TopK`-folded range) once its adds are done.
    /// `finalize` then hands the average out without walking it again, and
    /// the accumulator takes no further fold until it is finalized. The
    /// bits are those of scaling in `finalize`.
    ///
    /// # Errors
    /// Exactly those of [`CumulativeFedAvg::fold_encoded_batch`].
    pub fn fold_closing_batch(&mut self, updates: &[(EncodedView<'_>, u64)]) -> Result<()> {
        self.fold_batch(updates, true)
    }

    /// The batch fold as its one range, on the calling thread; a closing
    /// batch (`closes`) stores the average.
    fn fold_batch(&mut self, updates: &[(EncodedView<'_>, u64)], closes: bool) -> Result<()> {
        let plan = self.check_batch(updates, closes)?;
        plan.fold_range(updates, 0, self.weighted_sum.as_mut_slice());
        self.commit(plan);
        Ok(())
    }

    /// Checks a batch for [`CumulativeFedAvg::fold_encoded_batch`] (or, if
    /// `closes`, [`CumulativeFedAvg::fold_closing_batch`]) without folding
    /// it, and lends the accumulator's buffer out — sized to the batch's
    /// dimension, as the fold would size it — for the batch's ranges to be
    /// folded into ([`BatchPlan::fold_range`]). Hand it back with
    /// [`CumulativeFedAvg::commit_batch`]; until then the accumulator holds
    /// no buffer.
    ///
    /// # Errors
    /// Exactly those of [`CumulativeFedAvg::fold_encoded_batch`], with the
    /// accumulator untouched.
    pub fn open_batch(
        &mut self,
        updates: &[(EncodedView<'_>, u64)],
        closes: bool,
    ) -> Result<(BatchPlan, Vec<f32>)> {
        let plan = self.check_batch(updates, closes)?;
        Ok((plan, std::mem::take(&mut self.weighted_sum).into_vec()))
    }

    /// Takes back the buffer [`CumulativeFedAvg::open_batch`] lent out,
    /// every range of it folded by `plan`, and counts the batch.
    pub fn commit_batch(&mut self, plan: BatchPlan, sum: Vec<f32>) {
        self.weighted_sum = DenseModel::from_vec(sum);
        self.commit(plan);
    }

    /// The batch's plan, once every check passed: the round is open, every
    /// view has the accumulator's dimension (an empty accumulator takes the
    /// batch's) and every weight adds to the total without overflow.
    fn check_batch(
        &mut self,
        updates: &[(EncodedView<'_>, u64)],
        closes: bool,
    ) -> Result<BatchPlan> {
        let Some((first, _)) = updates.first() else {
            let dim = self.weighted_sum.dim();
            let (total, bytes) = (self.total_samples, dim * 4);
            let (fresh, scale, count) = (false, None, 0);
            return Ok(BatchPlan {
                dim,
                fresh,
                scale,
                total,
                count,
                bytes,
            });
        };
        self.check_open()?;
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
        let (mut total, mut bytes) = (self.total_samples, dim * 4);
        for (view, samples) in updates {
            total = add_samples(total, *samples)?;
            if view.dim() != dim {
                return Err(LiflError::DimensionMismatch {
                    expected: dim,
                    actual: view.dim(),
                });
            }
            bytes += view.payload_bytes();
        }
        Ok(BatchPlan {
            dim,
            fresh: self.held == Held::Stale,
            scale: closes.then(|| 1.0 / total as f32),
            total,
            count: updates.len() as u64,
            bytes,
        })
    }

    /// Counts a batch whose every range is folded.
    fn commit(&mut self, plan: BatchPlan) {
        if plan.count == 0 {
            return;
        }
        self.held = if plan.scale.is_some() {
            Held::Average
        } else {
            Held::Sum
        };
        self.total_samples = plan.total;
        self.updates_folded += plan.count;
    }
}

impl BatchPlan {
    /// How many updates the batch folds.
    pub fn updates(&self) -> u64 {
        self.count
    }

    /// Into how many ranges the batch's fold splits when at most `most`
    /// threads can take one: as many as give each range at least `floor`
    /// bytes of what the fold reads and writes ([`SPLIT_RANGE_BYTES`] in
    /// the engine), at least one and at most `most`.
    pub fn ranges(&self, most: usize, floor: usize) -> usize {
        (self.bytes / floor.max(1)).clamp(1, most.max(1))
    }

    /// The cut points of `ranges` even ranges of the batch's elements (what
    /// [`crate::kernels::Lent::lend`] takes), each a multiple of 16
    /// elements (one cache line of `f32`), so that two ranges share at most
    /// the one cache line a cut falls in; the last range takes the ragged
    /// tail.
    pub fn cuts(&self, ranges: usize) -> Vec<usize> {
        let ranges = ranges.max(1);
        (1..ranges)
            .map(|k| self.dim * k / ranges / RANGE_ALIGN * RANGE_ALIGN)
            .collect()
    }

    /// Folds `updates` — the batch this plan checked, in the same order —
    /// into `range`, the accumulator's elements from `at` on, in batch order
    /// within every element: each `TopK` view alone (zero-filling a fresh
    /// range first, since a scatter reads it), and each run of other views
    /// between two of them in one pass if it is one group, else
    /// cache-blocked. A closing batch then multiplies each element by its
    /// factor after the element's last add: inside a one-group last pass,
    /// else over each block, or over the range after a `TopK` last.
    pub fn fold_range(&self, updates: &[(EncodedView<'_>, u64)], at: usize, range: &mut [f32]) {
        let is_topk = |view: &EncodedView<'_>| matches!(view.codec(), CodecKind::TopK { .. });
        let mut fresh = self.fresh;
        let mut next = 0;
        while let Some((view, samples)) = updates.get(next) {
            if is_topk(view) {
                next += 1;
                // A scatter reads the sum: a stale one is zeroed first.
                if fresh {
                    range.fill(0.0);
                    fresh = false;
                }
                view.fold_range_into(*samples as f32, at, range);
                scale_range(range, self.scale.filter(|_| next == updates.len()));
                continue;
            }
            let run = &updates[next..];
            let run = &run[..run.iter().take_while(|(view, _)| !is_topk(view)).count()];
            next += run.len();
            let scale = self.scale.filter(|_| next == updates.len());
            // A run that is one group is one pass: nothing to keep cached,
            // and, ending a closing batch, the last add of every element.
            let codec = run[0].0.codec();
            let one_group = run.len() <= MAX_SOURCES
                && run
                    .iter()
                    .all(|(view, _)| view.codec() == codec && view.source_from(0).is_some());
            if one_group {
                let folded = fold_group(run, at, range, Pass { fresh, scale });
                debug_assert_eq!(folded, run.len(), "a one-group run is one pass");
            } else {
                for (index, block) in range.chunks_mut(BLOCK_ELEMS).enumerate() {
                    fold_block(run, at + index * BLOCK_ELEMS, block, Pass { fresh, scale });
                }
            }
            fresh = false;
        }
    }
}

/// Multiplies every element by a closing batch's factor, if there is one:
/// `DenseModel::scale`'s multiply, element by element.
fn scale_range(range: &mut [f32], factor: Option<f32>) {
    if let Some(factor) = factor {
        for v in range {
            *v *= factor;
        }
    }
}

/// Folds `run` — views of any codec but `TopK` — into `block`, the
/// accumulator's elements from `at` on, in batch order: each group of up to
/// [`MAX_SOURCES`] consecutive views of one multi-source codec in one
/// accumulator pass ([`fold_group`]), every other view in a pass of its own.
/// A `pass.fresh` block holds nothing yet: its first pass starts from zeros
/// in registers, or, if that pass is a single view's, which reads the block,
/// the block is zero-filled first. A `pass.scale` is multiplied into every
/// element once the block's passes are done.
fn fold_block(run: &[(EncodedView<'_>, u64)], at: usize, block: &mut [f32], pass: Pass) {
    let mut fresh = pass.fresh;
    let mut rest = run;
    while let Some((view, samples)) = rest.first() {
        let mut folded = fold_group(rest, at, block, Pass { fresh, scale: None });
        if folded == 0 {
            if fresh {
                block.fill(0.0);
            }
            view.fold_range_into(*samples as f32, at, block);
            folded = 1;
        }
        fresh = false;
        rest = &rest[folded..];
    }
    scale_range(block, pass.scale);
}

/// Folds the longest group at the front of `rest` — up to [`MAX_SOURCES`]
/// consecutive views of its first view's codec, `Identity` through
/// [`kernels::fold_dense_le_n`] or `Uniform8` through [`kernels::fold_u8_n`]
/// — into `block` (the accumulator's elements from `at` on) in one
/// accumulator pass as `pass` says, and returns how many views that was: 0
/// when the first view's codec has no multi-source kernel.
fn fold_group(rest: &[(EncodedView<'_>, u64)], at: usize, block: &mut [f32], pass: Pass) -> usize {
    let Some((first, _)) = rest.first() else {
        return 0;
    };
    let codec = first.codec();
    let mut srcs: [&[u8]; MAX_SOURCES] = [&[]; MAX_SOURCES];
    let mut weights = [0.0f32; MAX_SOURCES];
    let mut grouped = 0;
    for ((view, samples), (src, weight)) in rest.iter().zip(srcs.iter_mut().zip(&mut weights)) {
        let Some((bytes, factor)) = view.source_from(at).filter(|_| view.codec() == codec) else {
            break;
        };
        (*src, *weight) = (bytes, *samples as f32 * factor);
        grouped += 1;
    }
    if grouped == 0 {
        return 0;
    }
    let (srcs, weights) = (&srcs[..grouped], &weights[..grouped]);
    if codec == CodecKind::Uniform8 {
        kernels::fold_u8_n(block, srcs, weights, pass);
    } else {
        kernels::fold_dense_le_n(block, srcs, weights, pass);
    }
    grouped
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
    use crate::codec::{EncodedUpdate, UpdateCodec};
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
    fn uniform8_groups_across_blocks_and_codecs_fold_the_sequential_bits() {
        // A blocked run of 11 `Uniform8` views (groups of 8 and 3) and 2
        // dense ones; a `TopK` view; a blocked run of 9 `Uniform8` views, a
        // `Uniform4` view that ends their group of 1 and 2 more; a `TopK`
        // view; a short blocked run of 3 `Uniform8` and 2 dense views; a
        // `TopK` view; a short run of 2 `Uniform4` views and 1 `Uniform8`
        // one; a `TopK` view; then an unblocked run of 4 `Uniform8` views.
        let kinds: Vec<CodecKind> = [
            (CodecKind::Uniform8, 11),
            (CodecKind::Identity, 2),
            (CodecKind::TopK { permille: 50 }, 1),
            (CodecKind::Uniform8, 9),
            (CodecKind::Uniform4, 1),
            (CodecKind::Uniform8, 2),
            (CodecKind::TopK { permille: 50 }, 1),
            (CodecKind::Uniform8, 3),
            (CodecKind::Identity, 2),
            (CodecKind::TopK { permille: 50 }, 1),
            (CodecKind::Uniform4, 2),
            (CodecKind::Uniform8, 1),
            (CodecKind::TopK { permille: 50 }, 1),
            (CodecKind::Uniform8, 4),
        ]
        .into_iter()
        .flat_map(|(kind, count)| std::iter::repeat_n(kind, count))
        .collect();
        for dim in [70usize, 2047, 2048, 2049, 10_000] {
            let updates = batch(kinds.len(), dim);
            let encoded: Vec<_> = (kinds.iter().zip(&updates))
                .map(|(kind, u)| UpdateCodec::new(*kind).encode(&u.model))
                .collect();
            let views: Vec<_> = (encoded.iter().zip(&updates))
                .map(|(e, u)| (e.view(), u.samples))
                .collect();
            assert_eq!(
                folded_as_batch(dim, &views),
                folded_sequentially(dim, &views),
                "dim {dim}"
            );
        }
    }

    /// A pool whose one idle `f32` buffer holds NaN garbage past `dim`
    /// elements, as an earlier round's accumulator comes home to it.
    pub(super) fn dirty_pool(dim: usize, seed: u32) -> lifl_shmem::BufferPool {
        let pool = lifl_shmem::BufferPool::new();
        let mut dirty = pool.checkout_f32(dim + 5);
        for (i, v) in dirty.iter_mut().enumerate() {
            let payload = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed);
            *v = f32::from_bits(0x7F80_0001 | (payload & 0x803F_FFFF));
        }
        pool.checkin_f32(dirty);
        pool
    }

    /// A station's round over `views` cut into batches at `cuts`: an
    /// accumulator warmed from `pool`, the first `eager` views folded one
    /// at a time (as `AggregatorRuntime::poll` folds), the rest batch by
    /// batch with the last as the closing batch (as `drain_batch` folds up
    /// to the goal), then `finalize`. Returns the bits and what the buffer
    /// held before `finalize`.
    pub(super) fn station_bits(
        dim: usize,
        views: &[(EncodedView<'_>, u64)],
        eager: usize,
        cuts: &[usize],
        pool: &lifl_shmem::BufferPool,
    ) -> (Vec<u32>, Held) {
        let mut acc = CumulativeFedAvg::default();
        acc.warm_from(pool, dim);
        for (view, samples) in &views[..eager] {
            acc.fold_encoded_view(view, *samples).unwrap();
        }
        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|c| (*c).clamp(eager, views.len()))
            .collect();
        bounds.extend([eager, views.len()]);
        bounds.sort_unstable();
        bounds.dedup();
        for (i, pair) in bounds.windows(2).enumerate() {
            let batch = &views[pair[0]..pair[1]];
            if i + 2 == bounds.len() {
                acc.fold_closing_batch(batch).unwrap();
            } else {
                acc.fold_encoded_batch(batch).unwrap();
            }
        }
        assert_eq!(acc.updates_folded(), views.len() as u64);
        let held = acc.held;
        let model = acc.finalize().unwrap().model;
        (model.as_slice().iter().map(|v| v.to_bits()).collect(), held)
    }

    /// A station's round whose views after the first `eager` (folded one at
    /// a time) fold as one closing batch cut into ranges at `cuts`, each
    /// range folded on its own, last range first, into an accumulator
    /// warmed from `pool`; returns the finalized bits.
    pub(super) fn split_station_bits(
        dim: usize,
        views: &[(EncodedView<'_>, u64)],
        eager: usize,
        cuts: &[usize],
        pool: &lifl_shmem::BufferPool,
    ) -> Vec<u32> {
        let mut acc = CumulativeFedAvg::default();
        acc.warm_from(pool, dim);
        for (view, samples) in &views[..eager] {
            acc.fold_encoded_view(view, *samples).unwrap();
        }
        let batch = &views[eager..];
        let (plan, sum) = acc.open_batch(batch, true).unwrap();
        let (lent, leases) = kernels::Lent::lend(sum, cuts);
        for mut lease in leases.into_iter().rev() {
            plan.fold_range(batch, lease.start(), lease.as_mut_slice());
        }
        acc.commit_batch(plan, lent.reclaim().unwrap());
        assert_eq!(acc.updates_folded(), views.len() as u64);
        let model = acc.finalize().unwrap().model;
        model.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `updates` encoded under `kinds`, one kind per update in turn.
    fn encoded(kinds: &[CodecKind], updates: &[ModelUpdate]) -> Vec<EncodedUpdate> {
        (kinds.iter().cycle().zip(updates))
            .map(|(kind, u)| UpdateCodec::new(*kind).encode(&u.model))
            .collect()
    }

    #[test]
    fn a_station_folds_a_dirty_pooled_accumulator_to_the_zero_filled_bits() {
        let topk = CodecKind::TopK { permille: 50 };
        let (id, u8, u4) = (
            CodecKind::Identity,
            CodecKind::Uniform8,
            CodecKind::Uniform4,
        );
        // Each batch shape: one group, a blocked run, `TopK` first and
        // last, `Uniform4` alone and mixed.
        let shapes: [(&[CodecKind], usize); 9] = [
            (&[id], 8),
            (&[u8], 5),
            (&[id], 11),
            (&[u8, u8, u8, id, id], 5),
            (&[topk, id, id, id, id], 5),
            (&[id, id, id, id, topk], 5),
            (&[u4], 3),
            (&[u4, u8, u8], 3),
            (&[u8, topk, u4, id, u8, u8, topk, u8, u8, u8], 10),
        ];
        for dim in [1usize, 70, 2047, 2048, 2049, 10_000] {
            for (kinds, count) in shapes {
                let updates = batch(count, dim);
                let encoded = encoded(&kinds[..count.min(kinds.len())], &updates);
                let views: Vec<_> = (encoded.iter().zip(&updates))
                    .map(|(e, u)| (e.view(), u.samples))
                    .collect();
                let expected = folded_sequentially(dim, &views);
                let case = format!("dim {dim}, {kinds:?} x {count}");
                // One batch, closing.
                let pool = dirty_pool(dim, dim as u32);
                let (bits, held) = station_bits(dim, &views, 0, &[], &pool);
                assert_eq!(pool.stats().hits, 1, "{case}: the dirty buffer was reused");
                assert_eq!(bits, expected, "{case}: one batch");
                assert_eq!(held, Held::Average, "{case}: the closing batch averaged");
                // The same closing batch folded as ranges, one element, odd
                // and block-crossing cuts included.
                for cuts in [
                    &[][..],
                    &[1][..],
                    &[dim / 2][..],
                    &[1, 3, 2049, dim - 1][..],
                ] {
                    let pool = dirty_pool(dim, 3);
                    let bits = split_station_bits(dim, &views, 0, cuts, &pool);
                    assert_eq!(bits, expected, "{case}: ranges cut at {cuts:?}");
                }
                // Several batches, the first eager views polled one at a
                // time, and every view polled.
                for (eager, cuts) in [
                    (0, &[1, 3][..]),
                    (0, &[count / 2][..]),
                    (1, &[2][..]),
                    (2, &[][..]),
                ] {
                    let pool = dirty_pool(dim, eager as u32);
                    let (bits, _) = station_bits(dim, &views, eager.min(count), cuts, &pool);
                    assert_eq!(bits, expected, "{case}: {eager} eager, cut at {cuts:?}");
                }
                let pool = dirty_pool(dim, 7);
                let (bits, held) = station_bits(dim, &views, count, &[], &pool);
                assert_eq!(
                    (bits, held),
                    (expected, Held::Sum),
                    "{case}: every view polled"
                );
            }
        }
    }

    #[test]
    fn a_round_that_fails_mid_fold_leaves_its_buffer_to_fold_the_next_round_exactly() {
        let dim = 3000;
        let updates = batch(6, dim);
        let views = identity_views(&updates);
        let expected = folded_sequentially(dim, &views);
        let pool = dirty_pool(dim, 1);
        let mut failed = CumulativeFedAvg::default();
        failed.warm_from(&pool, dim);
        failed.fold_encoded_batch(&views[..3]).unwrap();
        let short = batch(1, dim - 1);
        let bad = [views[3], (identity_views(&short)[0].0, 1)];
        assert!(matches!(
            failed.fold_closing_batch(&bad),
            Err(LiflError::DimensionMismatch { .. })
        ));
        failed.release_to(&pool);
        assert_eq!(
            pool.stats().idle_buffers,
            1,
            "the half-folded sum went home"
        );
        let (bits, held) = station_bits(dim, &views, 0, &[], &pool);
        assert_eq!(pool.stats().hits, 2, "and came back out for the next round");
        assert_eq!((bits, held), (expected, Held::Average));
    }

    #[test]
    fn an_averaged_accumulator_takes_no_further_fold() {
        let updates = batch(3, 64);
        let views = identity_views(&updates);
        let mut acc = CumulativeFedAvg::new(64);
        acc.fold_closing_batch(&views[..2]).unwrap();
        assert_eq!(acc.held, Held::Average);
        let closed = Err(LiflError::InvalidAggregationGoal(2));
        assert_eq!(acc.fold_encoded_batch(&views[2..]), closed);
        assert_eq!(acc.fold_encoded_view(&views[2].0, 1), closed);
        assert_eq!(acc.fold(&updates[2]), closed);
        assert_eq!(acc.updates_folded(), 2);
        let expected = folded_sequentially(64, &views[..2]);
        let model = acc.finalize().unwrap().model;
        let bits: Vec<u32> = model.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expected);
        // A finalized accumulator opens the next round.
        acc.fold_closing_batch(&views[2..]).unwrap();
        assert_eq!(acc.finalize().unwrap().samples, updates[2].samples);
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

        /// A station's round into a dirty pooled accumulator — any mix of
        /// codecs, any number of views folded one at a time first, the rest
        /// in batches cut anywhere, the last folded as the closing batch, or
        /// as one closing batch split into element ranges cut anywhere —
        /// finalizes to exactly the bits of a zero-filled accumulator
        /// folding the same views one at a time and scaling in `finalize`.
        #[test]
        fn a_dirty_station_round_folds_the_zero_filled_bits(
            updates in arbitrary_batch(),
            kinds in proptest::collection::vec(0u8..4, 1..=12),
            extra in 0usize..10,
            eager in 0usize..4,
            cuts in proptest::collection::vec(0usize..20, 0..4),
            ranges in proptest::collection::vec(0usize..610, 0..5),
            garbage in any::<u32>(),
        ) {
            let dim = updates[0].model.dim();
            let mut updates = updates;
            for i in 0..extra {
                let mut more = updates[i % updates.len()].clone();
                more.samples = i as u64 + 1;
                updates.push(more);
            }
            let encoded: Vec<_> = (kinds.iter().cycle().zip(&updates))
                .map(|(kind, u)| {
                    let kind = match kind {
                        0 => CodecKind::Identity,
                        1 => CodecKind::Uniform8,
                        2 => CodecKind::Uniform4,
                        _ => CodecKind::TopK { permille: 100 },
                    };
                    UpdateCodec::new(kind).encode(&u.model)
                })
                .collect();
            let views: Vec<_> = (encoded.iter().zip(&updates)).map(|(e, u)| (e.view(), u.samples)).collect();
            let mut reference = CumulativeFedAvg::new(dim);
            for (view, samples) in &views {
                reference.fold_encoded_view(view, *samples).unwrap();
            }
            let expected: Vec<u32> = reference.finalize().unwrap().model.as_slice().iter().map(|v| v.to_bits()).collect();
            let pool = super::tests::dirty_pool(dim, garbage);
            let (bits, _) = super::tests::station_bits(dim, &views, eager.min(views.len()), &cuts, &pool);
            prop_assert_eq!(&bits, &expected);
            // The closing batch folded as ranges cut anywhere (unsorted and
            // past-the-end cuts are read as the tiling they can mean).
            let pool = super::tests::dirty_pool(dim, !garbage);
            let split = super::tests::split_station_bits(dim, &views, eager.min(views.len()), &ranges, &pool);
            prop_assert_eq!(split, expected);
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
