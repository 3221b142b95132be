//! Local SGD training of the softmax-regression workload (§6.2: SGD,
//! batch size 32, learning rate 0.01).
//!
//! # Class lanes
//!
//! A model is `[W (classes × features) | b (classes)]`, flattened row-major
//! into a [`DenseModel`]. Logit `c` of a sample `x` is `b[c] + Σ_j W[c][j]·x[j]`,
//! its products summed in feature order starting from `-0.0` (the identity
//! `Sum for f32` starts from) and the bias added last; the gradient of a
//! mini-batch is `Σ_s err_s ⊗ x_s`, each element summed in sample order from
//! `+0.0`, with `err_s = p_s − onehot(label_s)`. Each of those sums is one
//! chain of dependent f32 adds that the compiler may not reassociate.
//!
//! A mini-batch therefore runs as four [`kernels`] table entries, each in
//! registers. [`LocalTrainer::train_ordered`] transposes `W` into class
//! lanes, `wt[j·kp + c]` with `kp` the class count rounded up to
//! `kernels::CLASS_LANES`, once per batch (the model changes only at a
//! batch's end), 8 × 8 blocks at a time (`kernels::class_lanes`). Then, per
//! sample, `kernels::logits` keeps a tile of class lanes in registers for
//! the whole feature loop, so the class chains advance side by side, and
//! the bias is added, into the sample's row of the batch. One
//! `kernels::softmax_rows` call turns every row into probabilities — the
//! row's max, `kernels::expf` of each `l − max` (glibc's `expf` bits, in
//! f64 vector lanes), the sum in class order, the divide — and a loop takes
//! each sample's loss term and writes its error row. Once per batch,
//! `kernels::outer_accumulate` keeps each class's 64-feature tile of the
//! gradient in registers across the batch's samples, and sums the bias row
//! over the error rows alone. Every element is summed in the order the
//! row-major trainer sums it — one dot product per class, one
//! `grad += err ⊗ x` per sample — every arm multiplies then adds where the
//! reference does, and `expf` gives the same bits on every arm (the vector
//! one fuses its f64 steps, the scalar one forms the fused rounding
//! exactly), so every logit, probability, gradient, loss, model and
//! accuracy is bit-identical to the row-major trainer's, on every arm and
//! every host. An evaluation
//! ([`accuracy_percent`](crate::metrics::accuracy_percent)) runs the same
//! logits pass over one transpose per call. The lanes, the logit and error
//! rows and the gradient are allocated once per `train` or evaluation call.
//!
//! # Drawing apart from training
//!
//! The per-epoch shuffle is the only randomness in local training.
//! [`LocalTrainer::shuffles`] draws it and [`LocalTrainer::train_ordered`]
//! trains on it without touching a generator; [`LocalTrainer::train`] is the
//! two in a row. So a driver can draw every client's orders on one thread, in
//! a fixed order, and train the clients on any threads with the same bits.
//!
//! # Proximal term
//!
//! FedProx (Li et al., "Federated Optimization in Heterogeneous Networks",
//! MLSys 2020) adds `μ/2·‖w − w_global‖²` to each client's local objective,
//! which keeps local models near the global one under the statistical
//! heterogeneity LIFL's hibernating clients bring (§6.2). It is not a second
//! trainer: [`TrainerConfig::mu`] is μ, and every mini-batch step applies the
//! objective's gradient in the loop that applies the data gradient,
//! `w −= lr·ḡ + lr·μ·(w − w_global)`, both terms taken at the step's starting
//! `w`. The aggregation side is unchanged, so FedProx updates flow through
//! the same hierarchy and the same FedAvg fold. At μ = 0 the term is skipped,
//! not multiplied by zero, so the step is plain SGD's bit for bit, signed
//! zeros included.
//!
//! A NaN anywhere in the model propagates into the loss: the clamps below
//! floor only numbers, never a NaN, so a diverged client reports a NaN loss
//! instead of a finite one.

use crate::dataset::Sample;
use crate::kernels;
use crate::model::DenseModel;
use lifl_simcore::SimRng;
use lifl_types::{LiflError, Result};

/// Local-training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Mini-batch size (paper: 32).
    pub batch_size: usize,
    /// Learning rate (paper: 0.01).
    pub learning_rate: f32,
    /// Local epochs per round (paper: 1).
    pub local_epochs: usize,
    /// FedProx's proximal coefficient μ ≥ 0 (see the [module docs](self));
    /// the default `0.0` is plain FedAvg local SGD.
    pub mu: f32,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            batch_size: 32,
            learning_rate: 0.01,
            local_epochs: 1,
            mu: 0.0,
        }
    }
}

impl TrainerConfig {
    /// Validates the hyper-parameters.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when μ is negative or not finite,
    /// or the learning rate is not positive (NaN included).
    pub fn validate(&self) -> Result<()> {
        if !self.mu.is_finite() || self.mu < 0.0 {
            return Err(LiflError::InvalidConfig(format!(
                "proximal mu must be finite and non-negative, got {}",
                self.mu
            )));
        }
        if self.learning_rate.is_nan() || self.learning_rate <= 0.0 {
            return Err(LiflError::InvalidConfig(format!(
                "learning rate must be positive, got {}",
                self.learning_rate
            )));
        }
        Ok(())
    }
}

/// A local trainer for the softmax-regression model.
///
/// The model layout is `[W (classes x features) | b (classes)]`, flattened
/// row-major into a [`DenseModel`]. Logits are computed in class lanes over
/// a transposed copy of `W`, taken once per mini-batch, and the gradient in
/// one pass per mini-batch, every element summed in the row-major order
/// (see the [module docs](self)), so the results are bit-identical to one
/// row-major dot product per class and one gradient update per sample.
#[derive(Debug, Clone)]
pub struct LocalTrainer {
    num_features: usize,
    num_classes: usize,
    config: TrainerConfig,
}

impl LocalTrainer {
    /// Creates a trainer for the given problem shape.
    pub fn new(num_features: usize, num_classes: usize, config: TrainerConfig) -> Self {
        LocalTrainer {
            num_features,
            num_classes,
            config,
        }
    }

    /// Model dimension expected by this trainer.
    #[cfg(test)]
    pub(crate) fn model_dim(&self) -> usize {
        self.num_classes * self.num_features + self.num_classes
    }

    /// Runs local SGD starting from `global`, returning the locally trained
    /// model and the average training loss of the final epoch: the epoch
    /// orders [`LocalTrainer::shuffles`] draws, trained by
    /// [`LocalTrainer::train_ordered`].
    pub fn train(
        &self,
        global: &DenseModel,
        shard: &[Sample],
        rng: &mut SimRng,
    ) -> (DenseModel, f64) {
        let orders = self.shuffles(shard.len(), rng);
        self.train_ordered(global, shard, &orders)
    }

    /// The sample order of every local epoch over a shard of `len` samples —
    /// the only randomness in local training. Each epoch reshuffles the
    /// previous epoch's order; an empty shard draws nothing.
    pub fn shuffles(&self, len: usize, rng: &mut SimRng) -> Vec<Vec<usize>> {
        if len == 0 {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..len).collect();
        (0..self.config.local_epochs.max(1))
            .map(|_| {
                rng.shuffle(&mut order);
                order.clone()
            })
            .collect()
    }

    /// Runs local SGD starting from `global`, one epoch per order in
    /// `orders` (from [`LocalTrainer::shuffles`]), returning the locally
    /// trained model and the average training loss of the final epoch. It
    /// draws nothing, so it can run on any thread. `global` is also the
    /// proximal term's anchor.
    pub fn train_ordered(
        &self,
        global: &DenseModel,
        shard: &[Sample],
        orders: &[Vec<usize>],
    ) -> (DenseModel, f64) {
        let mut model = global.clone();
        if shard.is_empty() {
            return (model, 0.0);
        }
        let batch_size = self.config.batch_size.max(1);
        let mut step = Step::new(self, model.dim(), batch_size.min(shard.len()));
        let mut last_loss = 0.0;
        for order in orders {
            let mut epoch_loss = 0.0f64;
            let mut batches = 0.0f64;
            for batch in order.chunks(batch_size) {
                epoch_loss += self.sgd_step(&mut step, &mut model, global, shard, batch);
                batches += 1.0;
            }
            last_loss = epoch_loss / batches.max(1.0);
        }
        (model, last_loss)
    }

    /// Computes class probabilities for one sample under `model`.
    #[cfg(test)]
    pub(crate) fn predict(&self, model: &DenseModel, features: &[f32]) -> Vec<f32> {
        self.lanes(model).probabilities(features).to_vec()
    }

    /// The class-lane logits path over `model`, its weight block transposed.
    pub(crate) fn lanes(&self, model: &DenseModel) -> ClassLanes {
        let mut lanes = ClassLanes::new(self.num_features, self.num_classes);
        lanes.load(model);
        lanes
    }

    /// One mini-batch: re-transposes `model` (the previous batch changed
    /// it), writes each sample's logits, turns them into probabilities in
    /// one [`kernels::softmax_rows`] call and those into loss terms and
    /// error rows, accumulates the batch's gradient in one
    /// [`kernels::outer_accumulate`] call and applies it, with the proximal
    /// term toward `global` unless μ = 0.
    fn sgd_step<'a>(
        &self,
        step: &mut Step<'a>,
        model: &mut DenseModel,
        global: &DenseModel,
        shard: &'a [Sample],
        batch: &[usize],
    ) -> f64 {
        let lr = self.config.learning_rate;
        let scale = lr / batch.len() as f32;
        let mut loss = 0.0f64;
        let Step {
            lanes,
            err,
            xs,
            grad,
        } = step;
        let (k, kp) = (self.num_classes, lanes.padded);
        lanes.load(model);
        xs.clear();
        let rows = &mut err[..batch.len() * kp];
        for (&idx, row) in batch.iter().zip(rows.chunks_exact_mut(kp)) {
            let sample = &shard[idx];
            class_logits(&lanes.wt, &lanes.bias, &sample.features, row);
            xs.push(&sample.features);
        }
        kernels::softmax_rows(rows, k, kp);
        for (&idx, row) in batch.iter().zip(rows.chunks_exact_mut(kp)) {
            // `p − onehot`: only the label's lane changes (`p − 0.0` is `p`).
            let p = &mut row[shard[idx].label];
            loss -= (at_least(*p, 1e-7) as f64).ln();
            *p -= 1.0;
        }
        let (weights, bias) = grad.split_at_mut(k * self.num_features);
        kernels::outer_accumulate(weights, bias, err, kp, xs);
        let params = model.as_mut_slice();
        let mu = self.config.mu;
        if mu == 0.0 {
            for (p, g) in params.iter_mut().zip(grad.iter()) {
                *p -= scale * g;
            }
        } else {
            let lr_mu = lr * mu;
            for ((p, g), anchor) in params.iter_mut().zip(grad.iter()).zip(global.as_slice()) {
                *p -= scale * g + lr_mu * (*p - anchor);
            }
        }
        loss / batch.len() as f64
    }
}

/// What one [`LocalTrainer::train_ordered`] call reuses across its
/// mini-batches: the class lanes, one row of `padded` lanes per sample of a
/// batch (its logits, then its probabilities, then its error `p − onehot`),
/// the batch's feature vectors and the gradient.
struct Step<'a> {
    lanes: ClassLanes,
    err: Vec<f32>,
    xs: Vec<&'a [f32]>,
    grad: Vec<f32>,
}

impl Step<'_> {
    fn new(trainer: &LocalTrainer, dim: usize, batch: usize) -> Self {
        let lanes = ClassLanes::new(trainer.num_features, trainer.num_classes);
        Step {
            err: vec![0.0; batch * lanes.padded],
            lanes,
            xs: Vec::with_capacity(batch),
            grad: vec![0.0; dim],
        }
    }
}

/// One model's logits path in class lanes: `W` transposed into
/// `wt[j * padded + c]` (`padded` is the class count rounded up to
/// [`kernels::CLASS_LANES`], the padding lanes zero), the bias, and the row
/// an evaluation turns each sample's logits into probabilities in.
#[derive(Debug)]
pub(crate) struct ClassLanes {
    features: usize,
    classes: usize,
    padded: usize,
    wt: Vec<f32>,
    bias: Vec<f32>,
    probs: Vec<f32>,
}

impl ClassLanes {
    fn new(features: usize, classes: usize) -> Self {
        let padded = classes.next_multiple_of(kernels::CLASS_LANES);
        ClassLanes {
            features,
            classes,
            padded,
            wt: vec![0.0; padded * features],
            bias: vec![0.0; classes],
            probs: vec![0.0; padded],
        }
    }

    /// Transposes `model`'s weight block into the lanes
    /// ([`kernels::class_lanes`]) and copies its bias.
    fn load(&mut self, model: &DenseModel) {
        let (f, k) = (self.features, self.classes);
        let params = model.as_slice();
        kernels::class_lanes(&params[..k * f], f, &mut self.wt);
        self.bias.copy_from_slice(&params[k * f..k * f + k]);
    }

    /// Class probabilities of one sample under the loaded model.
    #[cfg(test)]
    pub(crate) fn probabilities(&mut self, features: &[f32]) -> &[f32] {
        let logits = class_logits(&self.wt, &self.bias, features, &mut self.probs);
        softmax(logits);
        logits
    }

    /// The class one sample is predicted as under the loaded model: the
    /// argmax of its softmax probabilities, bit for bit, read off the
    /// logits wherever [`predicted_class`] shows that exact.
    pub(crate) fn predicted(&mut self, features: &[f32]) -> usize {
        predicted_class(class_logits(
            &self.wt,
            &self.bias,
            features,
            &mut self.probs,
        ))
    }
}

/// The class logits of one sample plus their bias, in the first
/// `bias.len()` lanes of `row`: [`kernels::logits`] over the transposed
/// block `wt` — every class summing `W[c][j]·x[j]` in feature order from
/// `-0.0` — then the bias added, exactly as the row-major `bias + row·x`
/// does (an f32 add commutes).
fn class_logits<'r>(
    wt: &[f32],
    bias: &[f32],
    features: &[f32],
    row: &'r mut [f32],
) -> &'r mut [f32] {
    kernels::logits(wt, features, row);
    let logits = &mut row[..bias.len()];
    for (logit, b) in logits.iter_mut().zip(bias) {
        *logit += b;
    }
    logits
}

/// The largest gap below the top logit that the softmax may round to a
/// tie: 2⁻²¹ (see [`predicted_class`]).
const NEAR_TIE: f32 = 1.0 / 2_097_152.0;

/// The argmax of the softmax of `logits` — the last class of the largest
/// probability, which `max_by` keeps of a tie — read off the logits
/// wherever that is exact, and through the softmax (in place) wherever it
/// is not.
///
/// Let `m` be the largest logit and `a` the last class that has it. If no
/// logit is NaN, `m` is finite and every class after `a` has a logit below
/// `m − 2⁻²¹` (compared in f32: a logit below the rounded bound is below
/// the exact one), the argmax is `a`:
/// - the softmax subtracts `m`: `a`'s exponential is `expf(0) = 1`, and
///   every other class's is `expf(x)` of some `x ≤ 0`, so at most 1
///   ([`kernels::expf`] is monotone and at most 1 on `x ≤ 0`); the sum is
///   then finite and at least 1;
/// - a class after `a` has `l − m < −2⁻²¹`, and rounding is monotone, so
///   its f32 `x` is at most `−2⁻²¹`: `e^{−2⁻²¹}` lies about 8 ulps below
///   1.0 (an ulp below 1.0 is 2⁻²⁴), and [`kernels::expf`] leaves it at
///   least 4 ulps below (`kernels::tests::expf_matches_libm_on_every_input`
///   checks all three premises over every input);
/// - every probability is its exponential divided by the same sum, and a
///   rounded division by one positive number is monotone: no class can
///   pass `a`, one before `a` can at most tie it (`max_by` keeps `a`), and
///   one after `a` sits a relative 2⁻²² — at least two ulps of any normal
///   f32 — below it before rounding, so it cannot round to a tie.
///
/// Anything else — a NaN, an infinite top logit, a later class within
/// 2⁻²¹ of the top — takes the softmax and `max_by`, as every evaluation
/// did before.
pub(crate) fn predicted_class(logits: &mut [f32]) -> usize {
    let (mut top, mut last_top) = (f32::NEG_INFINITY, 0);
    let (mut after_top, mut nan) = (f32::NEG_INFINITY, false);
    for (class, &logit) in logits.iter().enumerate() {
        if logit >= top {
            (top, last_top, after_top) = (logit, class, f32::NEG_INFINITY);
        } else {
            after_top = after_top.max(logit);
            nan |= logit.is_nan();
        }
    }
    if !nan && top.is_finite() && after_top < top - NEAR_TIE {
        return last_top;
    }
    softmax(logits);
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(class, _)| class)
}

/// `value` floored at `floor`, a NaN kept NaN (`f32::max` would return
/// `floor` and so turn a diverged model's loss finite).
pub(crate) fn at_least(value: f32, floor: f32) -> f32 {
    if value < floor {
        floor
    } else {
        value
    }
}

/// The softmax of one row of logits in place ([`kernels::softmax_rows`]).
fn softmax(logits: &mut [f32]) {
    kernels::softmax_rows(logits, logits.len(), logits.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetConfig, FederatedDataset};
    use crate::metrics::accuracy_percent;
    use lifl_types::ClientId;
    use proptest::prelude::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut probs = [1.0, 2.0, 3.0];
        softmax(&mut probs);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(probs[2] > probs[0]);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = SimRng::from_seed(11);
        let ds = FederatedDataset::generate(
            DatasetConfig {
                num_clients: 4,
                num_features: 8,
                num_classes: 4,
                mean_samples_per_client: 80,
                dirichlet_alpha: 5.0,
                test_samples: 50,
                noise_std: 0.2,
            },
            &mut rng,
        );
        let trainer = LocalTrainer::new(
            8,
            4,
            TrainerConfig {
                local_epochs: 5,
                learning_rate: 0.1,
                batch_size: 16,
                mu: 0.0,
            },
        );
        let global = ds.initial_model();
        let shard = ds.shard(ClientId::new(0));
        let (_, loss_first) = trainer.train(&global, &shard[..shard.len().min(64)], &mut rng);
        let (trained, _) = trainer.train(&global, shard, &mut rng);
        let (_, loss_after) = trainer.train(&trained, shard, &mut rng);
        assert!(loss_after < loss_first, "{loss_after} < {loss_first}");
        assert_eq!(trainer.model_dim(), ds.model_dim());
    }

    #[test]
    fn empty_shard_returns_global() {
        let trainer = LocalTrainer::new(4, 3, TrainerConfig::default());
        let global = DenseModel::zeros(trainer.model_dim());
        let mut rng = SimRng::from_seed(1);
        let (model, loss) = trainer.train(&global, &[], &mut rng);
        assert_eq!(model, global);
        assert_eq!(loss, 0.0);
    }

    /// Strongly label-skewed clients (Dirichlet α = 0.2) over several local
    /// epochs.
    fn non_iid(seed: u64) -> FederatedDataset {
        FederatedDataset::generate(
            DatasetConfig {
                num_clients: 6,
                num_features: 10,
                num_classes: 4,
                mean_samples_per_client: 60,
                dirichlet_alpha: 0.2,
                test_samples: 50,
                noise_std: 0.3,
            },
            &mut SimRng::from_seed(seed),
        )
    }

    /// The proximal term does what FedProx adds it for: on non-IID shards
    /// the mean client drift ‖w_local − w_global‖² is lower at μ > 0 than at
    /// μ = 0, for the same shuffles.
    #[test]
    fn the_proximal_term_lowers_mean_client_drift_on_non_iid_shards() {
        let ds = non_iid(11);
        let global = ds.initial_model();
        let mean_drift = |mu: f32| {
            let config = TrainerConfig {
                batch_size: 8,
                learning_rate: 0.1,
                local_epochs: 4,
                mu,
            };
            let trainer = LocalTrainer::new(10, 4, config);
            let mut rng = SimRng::from_seed(5);
            let clients = 0..ds.num_clients() as u64;
            let drift: f64 = (clients.clone())
                .map(|c| {
                    let (local, _) = trainer.train(&global, ds.shard(ClientId::new(c)), &mut rng);
                    (local.as_slice().iter().zip(global.as_slice()))
                        .map(|(l, g)| f64::from(l - g).powi(2))
                        .sum::<f64>()
                })
                .sum();
            drift / clients.count() as f64
        };
        let loose = mean_drift(0.0);
        let tight = mean_drift(1.0);
        assert!(loose > 0.0);
        assert!(
            tight < loose,
            "mu=1 mean drift {tight} should be below mu=0 mean drift {loose}"
        );
    }

    #[test]
    fn training_still_learns_with_moderate_mu() {
        let ds = non_iid(21);
        let trainer = LocalTrainer::new(
            10,
            4,
            TrainerConfig {
                mu: 0.1,
                learning_rate: 0.1,
                local_epochs: 5,
                batch_size: 16,
            },
        );
        let mut rng = SimRng::from_seed(3);
        let global = ds.initial_model();
        let shard = ds.shard(ClientId::new(2));
        let (trained, _) = trainer.train(&global, shard, &mut rng);
        let (_, loss_before) = trainer.train(&global, shard, &mut rng.clone());
        let (_, loss_after) = trainer.train(&trained, shard, &mut rng);
        assert!(loss_after < loss_before, "{loss_after} < {loss_before}");
    }

    /// A diverged model must say so: one NaN weight reaches the training
    /// loss, the trained model and the prediction as NaN. (`f32::max`
    /// used to floor the NaN softmax normaliser at 1e-12 and the NaN
    /// label probability at 1e-7, reporting a finite — even negative — loss.)
    #[test]
    fn a_nan_weight_reports_a_nan_loss() {
        let (f, k) = (3, 4);
        let trainer = LocalTrainer::new(f, k, TrainerConfig::default());
        let mut global = DenseModel::zeros(trainer.model_dim());
        global.as_mut_slice()[f + 1] = f32::NAN;
        let shard: Vec<Sample> = (0..8)
            .map(|i| Sample {
                features: vec![1.0, -0.5 * i as f32, 0.25],
                label: i % k,
            })
            .collect();
        let (model, loss) = trainer.train(&global, &shard, &mut SimRng::from_seed(3));
        assert!(loss.is_nan(), "training loss {loss}");
        assert!(model.as_slice().iter().all(|w| w.is_nan()));
        assert!(trainer.predict(&global, &shard[0].features)[0].is_nan());
    }

    // ---------------------------------------------------------------------
    // The row-major reference: the trainer as it was before class lanes,
    // one serial dot product per class and one `predict` per sample.
    // ---------------------------------------------------------------------

    fn reference_softmax(logits: &[f32]) -> Vec<f32> {
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|l| kernels::expf(l - max)).collect();
        let sum: f32 = exps.iter().sum::<f32>().max(1e-12);
        exps.iter().map(|e| e / sum).collect()
    }

    fn reference_predict(t: &LocalTrainer, model: &DenseModel, features: &[f32]) -> Vec<f32> {
        let params = model.as_slice();
        let f = t.num_features;
        let mut logits = vec![0.0f32; t.num_classes];
        for (c, logit) in logits.iter_mut().enumerate() {
            let row = &params[c * f..(c + 1) * f];
            let bias = params[t.num_classes * f + c];
            *logit = bias + row.iter().zip(features).map(|(w, x)| w * x).sum::<f32>();
        }
        reference_softmax(&logits)
    }

    /// One mini-batch step of the row-major trainer. With μ ≠ 0 it is
    /// FedProx's textbook local step (Li et al., 2020): the gradient of
    /// `F(w) + μ/2·‖w − w_global‖²`, `ḡ + μ·(w − w_global)`, both terms taken
    /// at the step's starting `w`, scaled by the learning rate.
    fn reference_sgd_step(
        t: &LocalTrainer,
        model: &mut DenseModel,
        global: &DenseModel,
        shard: &[Sample],
        batch: &[usize],
    ) -> f64 {
        let f = t.num_features;
        let k = t.num_classes;
        let scale = t.config.learning_rate / batch.len() as f32;
        let mut loss = 0.0f64;
        let mut grad = vec![0.0f32; model.dim()];
        for &idx in batch {
            let sample = &shard[idx];
            let probs = reference_predict(t, model, &sample.features);
            loss -= (probs[sample.label].max(1e-7) as f64).ln();
            for c in 0..k {
                let err = probs[c] - if c == sample.label { 1.0 } else { 0.0 };
                let row = &mut grad[c * f..(c + 1) * f];
                for (g, x) in row.iter_mut().zip(&sample.features) {
                    *g += err * x;
                }
                grad[k * f + c] += err;
            }
        }
        let (lr, mu) = (t.config.learning_rate, t.config.mu);
        let anchor = global.as_slice();
        for (i, p) in model.as_mut_slice().iter_mut().enumerate() {
            let data = scale * grad[i];
            *p -= if mu == 0.0 {
                data
            } else {
                data + lr * mu * (*p - anchor[i])
            };
        }
        loss / batch.len() as f64
    }

    fn reference_train(
        t: &LocalTrainer,
        global: &DenseModel,
        shard: &[Sample],
        rng: &mut SimRng,
    ) -> (DenseModel, f64) {
        if shard.is_empty() {
            return (global.clone(), 0.0);
        }
        let mut order: Vec<usize> = (0..shard.len()).collect();
        let orders: Vec<Vec<usize>> = (0..t.config.local_epochs.max(1))
            .map(|_| {
                rng.shuffle(&mut order);
                order.clone()
            })
            .collect();
        reference_train_ordered(t, global, shard, &orders)
    }

    fn reference_train_ordered(
        t: &LocalTrainer,
        global: &DenseModel,
        shard: &[Sample],
        orders: &[Vec<usize>],
    ) -> (DenseModel, f64) {
        let mut model = global.clone();
        if shard.is_empty() {
            return (model, 0.0);
        }
        let mut last_loss = 0.0;
        for order in orders {
            let mut epoch_loss = 0.0f64;
            let mut batches = 0.0f64;
            for batch in order.chunks(t.config.batch_size.max(1)) {
                epoch_loss += reference_sgd_step(t, &mut model, global, shard, batch);
                batches += 1.0;
            }
            last_loss = epoch_loss / batches.max(1.0);
        }
        (model, last_loss)
    }

    fn reference_accuracy(t: &LocalTrainer, model: &DenseModel, samples: &[Sample]) -> f64 {
        let correct = samples
            .iter()
            .filter(|s| {
                let probs = reference_predict(t, model, &s.features);
                let predicted = probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                predicted == s.label
            })
            .count();
        100.0 * correct as f64 / samples.len() as f64
    }

    fn samples(rng: &mut SimRng, n: usize, f: usize, k: usize) -> Vec<Sample> {
        (0..n)
            .map(|_| Sample {
                features: (0..f).map(|_| rng.normal(0.0, 1.0) as f32).collect(),
                label: rng.index(k),
            })
            .collect()
    }

    fn assert_same_bits(a: &[f32], b: &[f32]) -> std::result::Result<(), String> {
        prop_assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "element {}: {} vs {}", i, x, y);
        }
        Ok(())
    }

    proptest! {
        /// Class lanes are the row-major trainer, bit for bit, whether `train`
        /// draws its shuffles itself or they are drawn first and trained by
        /// `train_ordered`: the trained model, the reported loss, the
        /// generator's position, every probability, the accuracy and the
        /// evaluation loss — over feature counts that are and are not
        /// multiples of the vector width, batch sizes from 1 to beyond the
        /// shard, several epochs, zero or random starting models, and no or a
        /// positive proximal μ. A transpose taken once per `train`
        /// instead of once per batch trains on a stale model and fails here.
        #[test]
        fn class_lanes_are_the_row_major_trainer_bit_for_bit(
            (f, k, n) in (1usize..=130, 1usize..=70, 1usize..=48),
            (batch, epochs, zero_model) in (0usize..4, 1usize..=3, any::<bool>()),
            lr in 0.01f32..1.0,
            (proximal, positive_mu) in (any::<bool>(), 0.01f32..2.0),
            seed in any::<u64>(),
        ) {
            let mut rng = SimRng::from_seed(seed);
            let shard = samples(&mut rng, n, f, k);
            let tests = samples(&mut rng, 16, f, k);
            let batch_size = [1, 7, 32, n + 1][batch];
            let trainer = LocalTrainer::new(
                f,
                k,
                TrainerConfig {
                    batch_size,
                    learning_rate: lr,
                    local_epochs: epochs,
                    mu: if proximal { positive_mu } else { 0.0 },
                },
            );
            let global = if zero_model {
                DenseModel::zeros(trainer.model_dim())
            } else {
                DenseModel::from_vec(
                    (0..trainer.model_dim()).map(|_| rng.normal(0.0, 0.5) as f32).collect(),
                )
            };
            let mut lane_rng = rng.clone();
            let mut split_rng = rng.clone();
            let (model, loss) = trainer.train(&global, &shard, &mut lane_rng);
            let (expected, expected_loss) = reference_train(&trainer, &global, &shard, &mut rng);
            assert_same_bits(model.as_slice(), expected.as_slice())?;
            prop_assert_eq!(loss.to_bits(), expected_loss.to_bits(), "{} vs {}", loss, expected_loss);
            // Drawn on one thread and trained on another: `train` is the
            // composition of its two halves, and an empty shard draws nothing.
            prop_assert!(trainer.shuffles(0, &mut split_rng).is_empty());
            let orders = trainer.shuffles(shard.len(), &mut split_rng);
            let (split, split_loss) = trainer.train_ordered(&global, &shard, &orders);
            assert_same_bits(split.as_slice(), expected.as_slice())?;
            prop_assert_eq!(split_loss.to_bits(), expected_loss.to_bits());
            let next = rng.index(1 << 30);
            prop_assert_eq!(lane_rng.index(1 << 30), next);
            prop_assert_eq!(split_rng.index(1 << 30), next);
            for s in &tests {
                assert_same_bits(
                    &trainer.predict(&model, &s.features),
                    &reference_predict(&trainer, &model, &s.features),
                )?;
            }
            let accuracy = accuracy_percent(&trainer, &model, &tests);
            let expected_accuracy = reference_accuracy(&trainer, &model, &tests);
            prop_assert_eq!(accuracy.to_bits(), expected_accuracy.to_bits());
        }

        /// The batched step — one `logits` call per sample, one
        /// `outer_accumulate` call per mini-batch — is the row-major oracle's
        /// per-sample gradient loop, bit for bit: every model bit and the
        /// loss, at μ = 0 and at μ > 0, over class and feature counts around
        /// the lane width and the 64-lane tile, shards whose last batch is
        /// partial (a remainder of 1 to `batch - 1` samples), whole, or the
        /// whole shard, and an empty shard, trained from given orders.
        #[test]
        fn batched_steps_are_the_row_major_oracle_bit_for_bit(
            (ki, fi) in (0usize..8, 0usize..7),
            (batch_size, batches, rest) in (1usize..=33, 0usize..3, 0usize..33),
            (epochs, lr, mu) in (1usize..=2, 0.01f32..1.0, 0.01f32..2.0),
            seed in any::<u64>(),
        ) {
            let (k, f) = ([1, 7, 8, 9, 62, 64, 65, 130][ki], [1, 3, 63, 64, 65, 128, 129][fi]);
            let n = batches * batch_size + rest % batch_size;
            let mut rng = SimRng::from_seed(seed);
            let shard = samples(&mut rng, n, f, k);
            for mu in [0.0, mu] {
                let trainer = LocalTrainer::new(
                    f,
                    k,
                    TrainerConfig { batch_size, learning_rate: lr, local_epochs: epochs, mu },
                );
                let global = DenseModel::from_vec(
                    (0..trainer.model_dim()).map(|_| rng.normal(0.0, 0.5) as f32).collect(),
                );
                let orders = trainer.shuffles(n, &mut rng);
                prop_assert_eq!(orders.is_empty(), n == 0);
                let (model, loss) = trainer.train_ordered(&global, &shard, &orders);
                let (expected, expected_loss) =
                    reference_train_ordered(&trainer, &global, &shard, &orders);
                assert_same_bits(model.as_slice(), expected.as_slice())?;
                prop_assert_eq!(loss.to_bits(), expected_loss.to_bits(), "{} vs {}", loss, expected_loss);
            }
        }
    }
}
