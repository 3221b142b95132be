//! Synthetic non-IID federated dataset.
//!
//! The paper trains on FEMNIST with FedScale's real client-data mapping
//! (§6.2), giving each client a skewed label distribution and a skewed number
//! of samples. We reproduce both forms of heterogeneity synthetically:
//! features are drawn from per-class Gaussians and each client's label
//! distribution is a Dirichlet draw, while per-client sample counts follow a
//! heavy-tailed distribution.

use crate::model::DenseModel;
use lifl_simcore::SimRng;
use lifl_types::ClientId;

/// One labelled example.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Feature vector.
    pub features: Vec<f32>,
    /// Class label in `[0, num_classes)`.
    pub label: usize,
}

/// A federated dataset: per-client shards plus a held-out global test set.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    /// Number of feature dimensions.
    pub num_features: usize,
    /// Number of classes.
    pub num_classes: usize,
    shards: Vec<Vec<Sample>>,
    test_set: Vec<Sample>,
}

/// Configuration of the synthetic dataset generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Number of clients to generate shards for.
    pub num_clients: usize,
    /// Feature dimensionality.
    pub num_features: usize,
    /// Number of classes (62 for the FEMNIST-like default).
    pub num_classes: usize,
    /// Mean samples per client.
    pub mean_samples_per_client: usize,
    /// Dirichlet concentration controlling label skew (smaller = more non-IID).
    pub dirichlet_alpha: f64,
    /// Number of held-out test samples.
    pub test_samples: usize,
    /// Feature noise standard deviation.
    pub noise_std: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            num_clients: 100,
            num_features: 32,
            num_classes: 62,
            mean_samples_per_client: 60,
            dirichlet_alpha: 0.3,
            test_samples: 2000,
            noise_std: 0.6,
        }
    }
}

impl FederatedDataset {
    /// Generates a dataset according to `config` using the deterministic `rng`.
    pub fn generate(config: DatasetConfig, rng: &mut SimRng) -> Self {
        let class_centers: Vec<Vec<f32>> = (0..config.num_classes)
            .map(|_| {
                (0..config.num_features)
                    .map(|_| rng.normal(0.0, 1.0) as f32)
                    .collect()
            })
            .collect();

        let sample_for_class = |class: usize, rng: &mut SimRng| -> Sample {
            let features = class_centers[class]
                .iter()
                .map(|c| c + rng.normal(0.0, config.noise_std) as f32)
                .collect();
            Sample {
                features,
                label: class,
            }
        };

        let mut shards = Vec::with_capacity(config.num_clients);
        for _ in 0..config.num_clients {
            let label_dist = rng.dirichlet(config.num_classes, config.dirichlet_alpha);
            // Heavy-tailed per-client sample count (FedScale-like quantity skew).
            let count = ((config.mean_samples_per_client as f64) * (0.3 + rng.exponential(0.7)))
                .round()
                .max(4.0) as usize;
            let mut shard = Vec::with_capacity(count);
            for _ in 0..count {
                let class = sample_class(&label_dist, rng);
                shard.push(sample_for_class(class, rng));
            }
            shards.push(shard);
        }

        let test_set = (0..config.test_samples)
            .map(|i| sample_for_class(i % config.num_classes, rng))
            .collect();

        FederatedDataset {
            num_features: config.num_features,
            num_classes: config.num_classes,
            shards,
            test_set,
        }
    }

    /// Number of clients with shards.
    pub fn num_clients(&self) -> usize {
        self.shards.len()
    }

    /// The shard of `client`, empty if the client index is out of range.
    pub fn shard(&self, client: ClientId) -> &[Sample] {
        self.shards
            .get(client.index() as usize)
            .map(|s| s.as_slice())
            .unwrap_or(&[])
    }

    /// The held-out test set.
    pub fn test_set(&self) -> &[Sample] {
        &self.test_set
    }

    /// Dimensionality of the flattened model for this dataset
    /// (weights `classes x features` plus one bias per class).
    pub fn model_dim(&self) -> usize {
        self.num_classes * self.num_features + self.num_classes
    }

    /// A zero-initialised model of the right dimension.
    pub fn initial_model(&self) -> DenseModel {
        DenseModel::zeros(self.model_dim())
    }
}

fn sample_class(dist: &[f64], rng: &mut SimRng) -> usize {
    let r = rng.uniform(0.0, 1.0);
    let mut cumulative = 0.0;
    for (idx, p) in dist.iter().enumerate() {
        cumulative += p;
        if r < cumulative {
            return idx;
        }
    }
    dist.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DatasetConfig {
        DatasetConfig {
            num_clients: 10,
            num_features: 8,
            num_classes: 5,
            mean_samples_per_client: 20,
            dirichlet_alpha: 0.3,
            test_samples: 100,
            noise_std: 0.3,
        }
    }

    #[test]
    fn shards_and_test_set_have_expected_shape() {
        let mut rng = SimRng::from_seed(1);
        let ds = FederatedDataset::generate(small_config(), &mut rng);
        assert_eq!(ds.num_clients(), 10);
        assert_eq!(ds.test_set().len(), 100);
        assert_eq!(ds.model_dim(), 5 * 8 + 5);
        for c in 0..10 {
            let shard = ds.shard(ClientId::new(c));
            assert!(!shard.is_empty());
            for s in shard {
                assert_eq!(s.features.len(), 8);
                assert!(s.label < 5);
            }
        }
        assert!(ds.shard(ClientId::new(999)).is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let mut r1 = SimRng::from_seed(7);
        let mut r2 = SimRng::from_seed(7);
        let a = FederatedDataset::generate(small_config(), &mut r1);
        let b = FederatedDataset::generate(small_config(), &mut r2);
        assert_eq!(a.shard(ClientId::new(0)), b.shard(ClientId::new(0)));
    }

    #[test]
    fn clients_are_non_iid() {
        let mut rng = SimRng::from_seed(3);
        let ds = FederatedDataset::generate(small_config(), &mut rng);
        // Label histograms of two clients should differ with high probability.
        let hist = |c: u64| {
            let mut h = vec![0usize; 5];
            for s in ds.shard(ClientId::new(c)) {
                h[s.label] += 1;
            }
            h
        };
        assert_ne!(hist(0), hist(1));
    }
}
