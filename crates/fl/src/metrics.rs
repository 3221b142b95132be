//! Model-quality metrics, on the trainer's class-lane logits path: the
//! model's weight block is transposed once per call, not once per sample,
//! every test sample's logits are one `kernels::logits` call, and its class
//! is read off them (`ClassLanes::predicted`) — the softmax is taken only
//! where two classes could round to one probability.
//!
//! `kernels::logits`: crate::kernels

use crate::dataset::Sample;
use crate::model::DenseModel;
use crate::trainer::LocalTrainer;

/// Top-1 accuracy (in percent) of `model` on `samples`.
pub fn accuracy_percent(trainer: &LocalTrainer, model: &DenseModel, samples: &[Sample]) -> f64 {
    accuracy_of_count(correct_predictions(trainer, model, samples), samples.len())
}

/// How many of `samples` `model` classifies correctly (top-1). A count, so
/// the counts of any split of `samples` sum to the count of the whole.
pub fn correct_predictions(
    trainer: &LocalTrainer,
    model: &DenseModel,
    samples: &[Sample],
) -> usize {
    if samples.is_empty() {
        return 0;
    }
    let mut lanes = trainer.lanes(model);
    samples
        .iter()
        .filter(|s| lanes.predicted(&s.features) == s.label)
        .count()
}

/// `correct` of `total` samples, in percent (0 of none).
pub fn accuracy_of_count(correct: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    100.0 * correct as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::kernels::proptests::logits_on_every_arm;
    use crate::kernels::CLASS_LANES;
    use crate::trainer::{predicted_class, TrainerConfig};
    use lifl_simcore::SimRng;
    use proptest::prelude::*;

    /// The class every evaluation counted before the logit argmax: the
    /// softmax, then the last class of the largest probability.
    fn softmax_argmax(logits: &[f32]) -> usize {
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|l| kernels::expf(l - max)).collect();
        let sum: f32 = exps.iter().sum();
        let probs: Vec<f32> = exps.iter().map(|e| e / sum).collect();
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(class, _)| class)
    }

    /// `steps` ulps below `value` (toward −∞).
    fn ulps_below(value: f32, steps: u32) -> f32 {
        if value > 0.0 {
            f32::from_bits(value.to_bits() - steps)
        } else {
            f32::from_bits(value.to_bits() + steps)
        }
    }

    /// `k` logits around a top `top` at class `at`: the rest drawn below it,
    /// then edited by `case` — 0: a later class 1–8 ulps below the top
    /// (`ulps`), 1: several later classes so, 2: a NaN, 3: a +∞, 4: some
    /// −∞, 5: all −∞, 6 and 7: as drawn — and, if `dup`, the top copied to
    /// another class.
    fn crafted(k: usize, top: f32, (case, ulps, dup): (u8, u32, bool), seed: u64) -> Vec<f32> {
        let mut rng = SimRng::from_seed(seed);
        let at = rng.index(k);
        let spread = top.abs().max(1e-3);
        let mut logits: Vec<f32> = (0..k)
            .map(|_| top - spread * (rng.uniform(0.0, 1.0) as f32 + 1e-3))
            .collect();
        logits[at] = top;
        let later = |rng: &mut SimRng| at + 1 + rng.index(k - at - 1);
        match case {
            0 | 1 if at + 1 < k => {
                for _ in 0..if case == 0 { 1 } else { 3 } {
                    logits[later(&mut rng)] = ulps_below(top, 1 + rng.index(ulps as usize) as u32);
                }
            }
            2 => logits[rng.index(k)] = f32::NAN,
            3 => logits[rng.index(k)] = f32::INFINITY,
            4 => {
                for _ in 0..k.div_ceil(2) {
                    logits[rng.index(k)] = f32::NEG_INFINITY;
                }
            }
            5 => logits.fill(f32::NEG_INFINITY),
            _ => {}
        }
        if dup {
            let class = rng.index(k);
            logits[class] = top;
        }
        logits
    }

    proptest! {
        /// The logit argmax is the softmax argmax, on every kernel table the
        /// host runs: for logits a table computes from a random model, and
        /// for crafted ones it passes through unchanged (one feature of
        /// 1.0) — a top at magnitudes from 2⁻²⁰ to 2¹¹, duplicated maxima,
        /// later classes 1–8 ulps below the top, NaN, ±∞ and all −∞. On the
        /// active table, [`ClassLanes::predicted`] is the argmax of
        /// `probabilities` for the same samples. A logit argmax without the
        /// near-tie fallback fails here.
        #[test]
        fn the_logit_argmax_is_the_softmax_argmax_on_every_arm(
            (k, f) in (1usize..=70, 1usize..=20),
            (exponent, negative) in (-20i32..12, any::<bool>()),
            edit in (0u8..8, 1u32..=8, any::<bool>()),
            seed in any::<u64>(),
        ) {
            let mut rng = SimRng::from_seed(seed);
            let kp = k.next_multiple_of(CLASS_LANES);
            let trainer = LocalTrainer::new(f, k, TrainerConfig::default());
            let model = DenseModel::from_vec(
                (0..trainer.model_dim()).map(|_| rng.normal(0.0, 1.0) as f32).collect(),
            );
            let mut lanes = trainer.lanes(&model);
            let features: Vec<f32> = (0..f).map(|_| rng.normal(0.0, 1.0) as f32).collect();
            let expected = softmax_argmax(lanes.probabilities(&features));
            prop_assert_eq!(lanes.predicted(&features), expected);
            let params = model.as_slice();
            let mut wt = vec![0.0; f * kp];
            for c in 0..k {
                for j in 0..f {
                    wt[j * kp + c] = params[c * f + j];
                }
            }
            let bias = &params[k * f..];
            let magnitude = 2f32.powi(exponent) * (1.0 + rng.uniform(0.0, 1.0) as f32);
            let top = if negative { -magnitude } else { magnitude };
            let mut crafted_row = crafted(k, top, edit, seed);
            crafted_row.resize(kp, 0.0);
            let inputs = [(&wt, &features[..], bias), (&crafted_row, &[1.0][..], &[][..])];
            for (wt, x, bias) in inputs {
                for (arm, mut row) in logits_on_every_arm(wt, x, kp) {
                    row.truncate(k);
                    for (logit, b) in row.iter_mut().zip(bias) {
                        *logit += b;
                    }
                    let expected = softmax_argmax(&row);
                    prop_assert_eq!(predicted_class(&mut row), expected, "arm {}", arm);
                }
            }
        }
    }

    #[test]
    fn accuracy_of_empty_set_is_zero() {
        let trainer = LocalTrainer::new(2, 2, TrainerConfig::default());
        let model = DenseModel::zeros(trainer.model_dim());
        assert_eq!(accuracy_percent(&trainer, &model, &[]), 0.0);
    }

    #[test]
    fn perfect_model_scores_100() {
        // Build a model that trivially separates two one-hot classes.
        let trainer = LocalTrainer::new(2, 2, TrainerConfig::default());
        // W = [[10,0],[0,10]], b = [0,0]
        let model = DenseModel::from_vec(vec![10.0, 0.0, 0.0, 10.0, 0.0, 0.0]);
        let samples = vec![
            Sample {
                features: vec![1.0, 0.0],
                label: 0,
            },
            Sample {
                features: vec![0.0, 1.0],
                label: 1,
            },
        ];
        assert_eq!(accuracy_percent(&trainer, &model, &samples), 100.0);
    }
}
