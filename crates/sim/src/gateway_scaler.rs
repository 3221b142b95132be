//! Vertical scaling of the per-node gateway (§4.2).
//!
//! The gateway performs the one-time payload processing (protocol handling,
//! deserialisation, the tensor→array conversion of Appendix C) for every model
//! update arriving at the node. With a fixed core assignment it would become
//! the data-plane bottleneck at high arrival rates, so LIFL "applies vertical
//! scaling of the gateway by dynamically adjusting the number of assigned CPU
//! cores based on the load level". This module implements that controller:
//! given the observed arrival rate and the per-core processing capacity for
//! the current model size, it picks a core count with head-room and
//! hysteresis so that the gateway never saturates but also does not flap.

use lifl_types::{LiflError, ModelKind, Result, SimTime};
use serde::{Deserialize, Serialize};

/// Configuration of the gateway's vertical scaler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatewayScalerConfig {
    /// Cores the gateway always keeps.
    pub min_cores: u32,
    /// Cores the gateway may grow to (bounded by the node's core count).
    pub max_cores: u32,
    /// Target utilisation of the assigned cores (head-room below 1.0).
    pub target_utilisation: f64,
    /// Utilisation below which the gateway releases cores.
    pub scale_down_threshold: f64,
    /// Payload bytes one core can process per second (calibrated to the
    /// gateway's single-pass processing of a ResNet-152 update in well under a
    /// second, §4.2 / Appendix C).
    pub bytes_per_core_per_sec: f64,
}

impl Default for GatewayScalerConfig {
    fn default() -> Self {
        GatewayScalerConfig {
            min_cores: 1,
            max_cores: 8,
            target_utilisation: 0.7,
            scale_down_threshold: 0.3,
            bytes_per_core_per_sec: 400.0 * 1024.0 * 1024.0,
        }
    }
}

impl GatewayScalerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when the bounds or thresholds are inconsistent.
    pub fn validate(&self) -> Result<()> {
        if self.min_cores == 0 || self.max_cores < self.min_cores {
            return Err(LiflError::InvalidConfig(format!(
                "core bounds invalid: min {} max {}",
                self.min_cores, self.max_cores
            )));
        }
        if !(0.0..=1.0).contains(&self.target_utilisation)
            || !(0.0..=1.0).contains(&self.scale_down_threshold)
            || self.scale_down_threshold >= self.target_utilisation
        {
            return Err(LiflError::InvalidConfig(format!(
                "utilisation thresholds invalid: target {} scale-down {}",
                self.target_utilisation, self.scale_down_threshold
            )));
        }
        if self.bytes_per_core_per_sec <= 0.0 {
            return Err(LiflError::InvalidConfig(
                "per-core processing rate must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// One scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatewayScaleDecision {
    /// Cores assigned after the decision.
    pub cores: u32,
    /// Utilisation of the assigned cores at the observed load.
    pub utilisation: f64,
    /// Whether the assignment changed.
    pub changed: bool,
    /// Whether the load exceeds even the maximum core assignment
    /// (the gateway would bottleneck the data plane).
    pub saturated: bool,
}

/// The vertical scaler for one node's gateway.
#[derive(Debug, Clone)]
pub struct GatewayScaler {
    config: GatewayScalerConfig,
    cores: u32,
    scale_ups: u64,
    scale_downs: u64,
    last_decision_at: Option<SimTime>,
}

impl GatewayScaler {
    /// Creates a scaler starting at the minimum core assignment.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when the configuration is invalid.
    pub fn new(config: GatewayScalerConfig) -> Result<Self> {
        config.validate()?;
        Ok(GatewayScaler {
            cores: config.min_cores,
            config,
            scale_ups: 0,
            scale_downs: 0,
            last_decision_at: None,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &GatewayScalerConfig {
        &self.config
    }

    /// Cores currently assigned to the gateway.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Number of scale-up decisions taken.
    pub fn scale_ups(&self) -> u64 {
        self.scale_ups
    }

    /// Number of scale-down decisions taken.
    pub fn scale_downs(&self) -> u64 {
        self.scale_downs
    }

    /// The offered load in bytes per second for `arrival_rate_per_min` updates
    /// of `model` arriving each minute.
    pub fn offered_bytes_per_sec(model: ModelKind, arrival_rate_per_min: f64) -> f64 {
        model.update_bytes() as f64 * arrival_rate_per_min.max(0.0) / 60.0
    }

    /// Evaluates the controller at `now` for the observed arrival rate
    /// (updates per minute) of `model`-sized updates, adjusting the core
    /// assignment if needed.
    pub fn evaluate(
        &mut self,
        now: SimTime,
        model: ModelKind,
        arrival_rate_per_min: f64,
    ) -> GatewayScaleDecision {
        let offered = Self::offered_bytes_per_sec(model, arrival_rate_per_min);
        let per_core = self.config.bytes_per_core_per_sec;
        // Cores needed to keep utilisation at the target.
        let needed = (offered / (per_core * self.config.target_utilisation)).ceil() as u32;
        let needed = needed.clamp(self.config.min_cores, self.config.max_cores);

        let current_util = offered / (per_core * self.cores as f64);
        let previous = self.cores;
        if needed > self.cores {
            self.cores = needed;
            self.scale_ups += 1;
        } else if needed < self.cores && current_util < self.config.scale_down_threshold {
            self.cores = needed;
            self.scale_downs += 1;
        }
        self.last_decision_at = Some(now);

        let utilisation = offered / (per_core * self.cores as f64);
        let saturated = offered > per_core * self.config.max_cores as f64;
        GatewayScaleDecision {
            cores: self.cores,
            utilisation,
            changed: self.cores != previous,
            saturated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler() -> GatewayScaler {
        GatewayScaler::new(GatewayScalerConfig::default()).unwrap()
    }

    #[test]
    fn light_load_stays_at_minimum_cores() {
        let mut scaler = scaler();
        let decision = scaler.evaluate(SimTime::ZERO, ModelKind::ResNet18, 10.0);
        assert_eq!(decision.cores, 1);
        assert!(!decision.changed);
        assert!(!decision.saturated);
        assert!(decision.utilisation < 0.1);
    }

    #[test]
    fn heavy_load_scales_up_and_keeps_headroom() {
        let mut scaler = scaler();
        // 120 ResNet-152 updates per minute ≈ 464 MB/s of payload processing.
        let decision = scaler.evaluate(SimTime::ZERO, ModelKind::ResNet152, 120.0);
        assert!(decision.cores > 1, "should add cores: {}", decision.cores);
        assert!(decision.changed);
        assert!(
            decision.utilisation <= GatewayScalerConfig::default().target_utilisation + 1e-9,
            "utilisation {} must respect the target head-room",
            decision.utilisation
        );
        assert_eq!(scaler.scale_ups(), 1);
    }

    #[test]
    fn scale_down_requires_low_utilisation_hysteresis() {
        let mut scaler = scaler();
        scaler.evaluate(SimTime::ZERO, ModelKind::ResNet152, 120.0);
        let high = scaler.cores();
        // Load drops moderately: utilisation of the current assignment stays
        // above the scale-down threshold, so the assignment is kept.
        let moderate = scaler.evaluate(SimTime::from_secs(60.0), ModelKind::ResNet152, 65.0);
        assert_eq!(
            moderate.cores, high,
            "hysteresis should hold the assignment"
        );
        // Load collapses: now the gateway releases cores.
        let low = scaler.evaluate(SimTime::from_secs(120.0), ModelKind::ResNet152, 5.0);
        assert!(low.cores < high);
        assert_eq!(scaler.scale_downs(), 1);
    }

    #[test]
    fn saturation_is_reported_when_max_cores_is_not_enough() {
        let mut scaler = GatewayScaler::new(GatewayScalerConfig {
            max_cores: 2,
            ..GatewayScalerConfig::default()
        })
        .unwrap();
        let decision = scaler.evaluate(SimTime::ZERO, ModelKind::ResNet152, 600.0);
        assert_eq!(decision.cores, 2);
        assert!(decision.saturated);
        assert!(decision.utilisation > 1.0);
    }

    #[test]
    fn offered_load_scales_with_model_size_and_rate() {
        let small = GatewayScaler::offered_bytes_per_sec(ModelKind::ResNet18, 60.0);
        let large = GatewayScaler::offered_bytes_per_sec(ModelKind::ResNet152, 60.0);
        assert!(large > 4.0 * small);
        assert_eq!(
            GatewayScaler::offered_bytes_per_sec(ModelKind::ResNet18, 0.0),
            0.0
        );
        assert_eq!(
            GatewayScaler::offered_bytes_per_sec(ModelKind::ResNet18, -5.0),
            0.0
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for bad in [
            GatewayScalerConfig {
                min_cores: 0,
                ..GatewayScalerConfig::default()
            },
            GatewayScalerConfig {
                max_cores: 0,
                ..GatewayScalerConfig::default()
            },
            GatewayScalerConfig {
                scale_down_threshold: 0.9,
                target_utilisation: 0.7,
                ..GatewayScalerConfig::default()
            },
            GatewayScalerConfig {
                bytes_per_core_per_sec: 0.0,
                ..GatewayScalerConfig::default()
            },
        ] {
            assert!(
                GatewayScaler::new(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }
}
