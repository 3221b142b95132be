//! Client selection strategies for the coordinator/selector component (§2.2).
//!
//! The selector's first role is to "ensure that a diverse set of clients
//! participate in the FL process". Besides the uniform-random selection used
//! by the main experiments, this module provides two standard alternatives the
//! related-work section discusses: selection biased toward clients with more
//! data (an Oort-style statistical-utility proxy) and selection biased toward
//! faster clients (a deadline/straggler-avoidance proxy), so downstream users
//! can study the interaction between selection policy and LIFL's autoscaling.

use crate::client::Client;
use lifl_simcore::SimRng;
use lifl_types::ModelKind;

/// A client-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Uniform random without replacement (the paper's default).
    UniformRandom,
    /// Weighted by local sample count (statistical-utility proxy).
    DataSizeWeighted,
    /// Prefer the fastest clients for the target model (straggler avoidance).
    FastestFirst,
}

/// Selects `count` clients from `pool` according to `strategy`.
///
/// Returns fewer clients when the pool is smaller than `count`; the result
/// never contains duplicates.
pub fn select_clients(
    strategy: SelectionStrategy,
    pool: &[Client],
    count: usize,
    model: ModelKind,
    rng: &mut SimRng,
) -> Vec<Client> {
    let count = count.min(pool.len());
    match strategy {
        SelectionStrategy::UniformRandom => uniform_sample(pool, count, rng),
        SelectionStrategy::DataSizeWeighted => {
            // Weighted sampling without replacement via the exponential-sort trick:
            // key = u^(1/w); take the largest keys.
            let mut keyed: Vec<(f64, usize)> = pool
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let w = c.local_samples.max(1) as f64;
                    let u = rng.uniform(1e-12, 1.0);
                    (u.powf(1.0 / w), i)
                })
                .collect();
            keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            keyed
                .into_iter()
                .take(count)
                .map(|(_, i)| pool[i].clone())
                .collect()
        }
        SelectionStrategy::FastestFirst => {
            let mut indexed: Vec<usize> = (0..pool.len()).collect();
            indexed.sort_by(|&a, &b| {
                pool[a]
                    .training_time(model)
                    .cmp(&pool[b].training_time(model))
            });
            indexed
                .into_iter()
                .take(count)
                .map(|i| pool[i].clone())
                .collect()
        }
    }
}

/// Up to `count` clients of `pool`, uniformly at random without
/// replacement: one shuffle of every index, then its first `count`. The one
/// uniform draw behind [`select_clients`] and
/// [`Population::select_round`](crate::population::Population::select_round).
pub(crate) fn uniform_sample(pool: &[Client], count: usize, rng: &mut SimRng) -> Vec<Client> {
    let mut indices: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut indices);
    indices
        .into_iter()
        .take(count.min(pool.len()))
        .map(|i| pool[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientAvailability;
    use lifl_types::ClientId;

    fn pool(n: usize) -> Vec<Client> {
        (0..n)
            .map(|i| Client {
                id: ClientId::new(i as u64),
                compute_speed: 0.5 + (i % 7) as f64 * 0.25,
                local_samples: 10 + (i as u64 % 11) * 20,
                availability: ClientAvailability::AlwaysOn,
            })
            .collect()
    }

    #[test]
    fn all_strategies_return_unique_clients() {
        let pool = pool(50);
        let mut rng = SimRng::from_seed(1);
        for strategy in [
            SelectionStrategy::UniformRandom,
            SelectionStrategy::DataSizeWeighted,
            SelectionStrategy::FastestFirst,
        ] {
            let selected = select_clients(strategy, &pool, 20, ModelKind::ResNet18, &mut rng);
            assert_eq!(selected.len(), 20, "{strategy:?}");
            let mut ids: Vec<u64> = selected.iter().map(|c| c.id.index()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 20, "{strategy:?} returned duplicates");
        }
    }

    #[test]
    fn fastest_first_picks_fastest() {
        let pool = pool(30);
        let mut rng = SimRng::from_seed(2);
        let selected = select_clients(
            SelectionStrategy::FastestFirst,
            &pool,
            5,
            ModelKind::ResNet18,
            &mut rng,
        );
        let max_selected = selected
            .iter()
            .map(|c| c.training_time(ModelKind::ResNet18))
            .max()
            .unwrap();
        let faster_than_cutoff = pool
            .iter()
            .filter(|c| c.training_time(ModelKind::ResNet18) < max_selected)
            .count();
        assert!(faster_than_cutoff <= 5);
    }

    #[test]
    fn data_weighted_prefers_large_clients_on_average() {
        let pool = pool(200);
        let mut rng = SimRng::from_seed(3);
        let mean = |clients: &[Client]| {
            clients.iter().map(|c| c.local_samples as f64).sum::<f64>() / clients.len() as f64
        };
        let mut weighted_total = 0.0;
        for _ in 0..20 {
            let sel = select_clients(
                SelectionStrategy::DataSizeWeighted,
                &pool,
                30,
                ModelKind::ResNet18,
                &mut rng,
            );
            weighted_total += mean(&sel);
        }
        assert!(
            weighted_total / 20.0 > mean(&pool),
            "weighted selection should skew large"
        );
    }

    #[test]
    fn selection_capped_by_pool_size() {
        let pool = pool(3);
        let mut rng = SimRng::from_seed(4);
        let selected = select_clients(
            SelectionStrategy::UniformRandom,
            &pool,
            10,
            ModelKind::ResNet18,
            &mut rng,
        );
        assert_eq!(selected.len(), 3);
    }
}
