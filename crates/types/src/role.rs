//! Aggregator roles.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Role of an aggregator inside the aggregation hierarchy (§2.2, §5.2).
///
/// LIFL's runtimes are homogeneous, so a single instance may change role over
/// its lifetime (opportunistic reuse, §5.3): a leaf is promoted to middle, and
/// a middle to top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AggregatorRole {
    /// Aggregates raw client updates.
    Leaf,
    /// Aggregates intermediate updates from leaves on the same node.
    Middle,
    /// Produces the new global model version.
    Top,
}

impl fmt::Display for AggregatorRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggregatorRole::Leaf => "leaf",
            AggregatorRole::Middle => "middle",
            AggregatorRole::Top => "top",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(AggregatorRole::Leaf < AggregatorRole::Middle);
        assert!(AggregatorRole::Middle < AggregatorRole::Top);
        assert!(AggregatorRole::Leaf < AggregatorRole::Top);
    }

    #[test]
    fn role_display() {
        assert_eq!(AggregatorRole::Middle.to_string(), "middle");
    }
}
