//! Client populations: the 2,800-client FedScale-like population with a fixed
//! number of simultaneously active clients per round (§6.2).

use crate::client::{Client, ClientAvailability};
use crate::selector::uniform_sample;
use lifl_simcore::SimRng;
use lifl_types::ClientId;

/// Configuration of a client population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationConfig {
    /// Total clients in the population (paper: 2,800).
    pub total_clients: usize,
    /// Simultaneously active clients per round (paper: 120 for ResNet-18, 15 for ResNet-152).
    pub active_per_round: usize,
    /// Availability behaviour of every client.
    pub availability: ClientAvailability,
    /// Mean local samples per client.
    pub mean_samples: u64,
    /// Heterogeneity of compute speed: speeds are drawn from
    /// `[1 - spread, 1 + spread]`.
    pub speed_spread: f64,
}

impl PopulationConfig {
    /// The ResNet-18 mobile-device setup of §6.2.
    pub fn resnet18_paper() -> Self {
        PopulationConfig {
            total_clients: 2800,
            active_per_round: 120,
            availability: ClientAvailability::Hibernating { max_secs: 60.0 },
            mean_samples: 120,
            speed_spread: 0.6,
        }
    }

    /// The ResNet-152 server-client setup of §6.2.
    pub fn resnet152_paper() -> Self {
        PopulationConfig {
            total_clients: 2800,
            active_per_round: 15,
            availability: ClientAvailability::AlwaysOn,
            mean_samples: 120,
            speed_spread: 0.2,
        }
    }
}

/// A population of FL clients and the round-level selection logic the
/// coordinator/selector applies (§2.2).
#[derive(Debug, Clone)]
pub struct Population {
    clients: Vec<Client>,
    active_per_round: usize,
}

impl Population {
    /// Builds a population according to `config`.
    pub fn generate(config: PopulationConfig, rng: &mut SimRng) -> Self {
        let clients = (0..config.total_clients)
            .map(|i| {
                let speed = 1.0 + rng.uniform(-config.speed_spread, config.speed_spread);
                let samples = ((config.mean_samples as f64) * (0.3 + rng.exponential(0.7)))
                    .round()
                    .max(4.0) as u64;
                Client {
                    id: ClientId::new(i as u64),
                    compute_speed: speed.max(0.05),
                    local_samples: samples,
                    availability: config.availability,
                }
            })
            .collect();
        Population {
            clients,
            active_per_round: config.active_per_round.max(1),
        }
    }

    /// Number of clients in the population.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Number of clients selected each round (the aggregation goal n).
    pub fn active_per_round(&self) -> usize {
        self.active_per_round
    }

    /// All clients.
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// Selects the clients participating in one round, uniformly at random
    /// without replacement (the selector's diversity role, §2.2).
    pub fn select_round(&self, rng: &mut SimRng) -> Vec<Client> {
        uniform_sample(&self.clients, self.active_per_round, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setups_have_expected_sizes() {
        let mut rng = SimRng::from_seed(1);
        let p18 = Population::generate(PopulationConfig::resnet18_paper(), &mut rng);
        assert_eq!(p18.len(), 2800);
        assert_eq!(p18.active_per_round(), 120);
        let p152 = Population::generate(PopulationConfig::resnet152_paper(), &mut rng);
        assert_eq!(p152.active_per_round(), 15);
        assert!(!p152.is_empty());
    }

    #[test]
    fn selection_is_without_replacement() {
        let mut rng = SimRng::from_seed(2);
        let pop = Population::generate(
            PopulationConfig {
                total_clients: 50,
                active_per_round: 20,
                availability: ClientAvailability::AlwaysOn,
                mean_samples: 10,
                speed_spread: 0.1,
            },
            &mut rng,
        );
        let selected = pop.select_round(&mut rng);
        assert_eq!(selected.len(), 20);
        let mut ids: Vec<u64> = selected.iter().map(|c| c.id.index()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
    }

    #[test]
    fn selection_capped_by_population() {
        let mut rng = SimRng::from_seed(3);
        let pop = Population::generate(
            PopulationConfig {
                total_clients: 5,
                active_per_round: 20,
                availability: ClientAvailability::AlwaysOn,
                mean_samples: 10,
                speed_spread: 0.1,
            },
            &mut rng,
        );
        assert_eq!(pop.select_round(&mut rng).len(), 5);
    }

    #[test]
    fn clients_are_heterogeneous() {
        let mut rng = SimRng::from_seed(4);
        let pop = Population::generate(PopulationConfig::resnet18_paper(), &mut rng);
        let speeds: Vec<f64> = pop
            .clients()
            .iter()
            .take(100)
            .map(|c| c.compute_speed)
            .collect();
        let min = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = speeds.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.2, "speeds should vary: {min}..{max}");
    }
}
