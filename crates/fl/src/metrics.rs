//! Model-quality metrics, on the trainer's class-lane logits path: the
//! model's weight block is transposed once per call, not once per sample,
//! and every test sample's logits are one `kernels::logits` call.
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
        .filter(|s| {
            let probs = lanes.probabilities(&s.features);
            let predicted = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            predicted == s.label
        })
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
    use crate::trainer::TrainerConfig;

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
