//! Model specifications.
//!
//! The evaluation in the paper uses three ResNet variants whose *update sizes*
//! drive all data-plane costs: ResNet-18 (~44 MB), ResNet-34 (~83 MB) and
//! ResNet-152 (~232 MB) (§4.1, §6.1). The reproduction keeps those byte sizes
//! for every system-level cost even though the training substrate uses a much
//! smaller synthetic model (the softmax-regression task of `lifl-fl`).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of one f32 parameter in bytes.
pub const BYTES_PER_PARAM: u64 = 4;

/// The model families used in the paper's evaluation plus a custom escape hatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// ResNet-18, ~44 MB update.
    ResNet18,
    /// ResNet-34, ~83 MB update.
    ResNet34,
    /// ResNet-152, ~232 MB update.
    ResNet152,
    /// A custom model with an explicit update size in bytes.
    Custom {
        /// Serialized update size in bytes.
        update_bytes: u64,
    },
}

impl ModelKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::ResNet18 => "ResNet-18",
            ModelKind::ResNet34 => "ResNet-34",
            ModelKind::ResNet152 => "ResNet-152",
            ModelKind::Custom { .. } => "custom",
        }
    }

    /// Number of trainable parameters.
    pub fn parameters(self) -> u64 {
        match self {
            ModelKind::ResNet18 => 11_689_512,
            ModelKind::ResNet34 => 21_797_672,
            ModelKind::ResNet152 => 60_192_808,
            ModelKind::Custom { update_bytes } => update_bytes / BYTES_PER_PARAM,
        }
    }

    /// Serialized update size in bytes.
    pub fn update_bytes(self) -> u64 {
        match self {
            ModelKind::ResNet18 => 44 * 1024 * 1024,
            ModelKind::ResNet34 => 83 * 1024 * 1024,
            ModelKind::ResNet152 => 232 * 1024 * 1024,
            ModelKind::Custom { update_bytes } => update_bytes,
        }
    }

    /// Serialized update size in mebibytes.
    pub fn update_mib(self) -> f64 {
        self.update_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// The three paper models in increasing size order.
    pub fn paper_models() -> [ModelKind; 3] {
        [
            ModelKind::ResNet18,
            ModelKind::ResNet34,
            ModelKind::ResNet152,
        ]
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match() {
        assert_eq!(ModelKind::ResNet18.update_mib().round() as u64, 44);
        assert_eq!(ModelKind::ResNet34.update_mib().round() as u64, 83);
        assert_eq!(ModelKind::ResNet152.update_mib().round() as u64, 232);
    }

    #[test]
    fn sizes_are_monotone() {
        let [r18, r34, r152] = ModelKind::paper_models();
        assert!(r18.update_bytes() < r34.update_bytes());
        assert!(r34.update_bytes() < r152.update_bytes());
    }

    #[test]
    fn custom_model_derives_param_count() {
        let custom = ModelKind::Custom { update_bytes: 400 };
        assert_eq!(custom.parameters(), 100);
        assert_eq!(custom.name(), "custom");
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(ModelKind::ResNet152.to_string(), "ResNet-152");
    }

    #[test]
    fn kind_serde_roundtrip_preserves_the_name() {
        for kind in [ModelKind::ResNet34, ModelKind::Custom { update_bytes: 400 }] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: ModelKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
            assert_eq!(back.name(), kind.name());
        }
    }
}
