//! The systems the evaluation compares (§6).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The systems compared in the evaluation (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// LIFL with its full data plane and orchestration.
    Lifl,
    /// Serverful system following Google's FL stack / PAPAYA (Fig. 2(a)), gRPC channels.
    Serverful,
    /// Serverless system following FedKeeper/AdaFed on Knative (Fig. 2(b)).
    Serverless,
    /// Serverless control plane with hierarchical aggregation and LIFL's data plane
    /// but Knative "least connection" load balancing and lazy aggregation (Fig. 8 baseline).
    SlHierarchical,
    /// Monolithic serverful message-queuing setup (Fig. 5, Appendix F).
    SfMono,
    /// Microservice-based serverful setup with a message broker (Fig. 5, Appendix F).
    SfMicro,
    /// Basic serverless setup with broker + sidecar (Fig. 5, Appendix F).
    SlBasic,
}

impl SystemKind {
    /// Short label used in experiment tables (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Lifl => "LIFL",
            SystemKind::Serverful => "SF",
            SystemKind::Serverless => "SL",
            SystemKind::SlHierarchical => "SL-H",
            SystemKind::SfMono => "SF-mono",
            SystemKind::SfMicro => "SF-micro",
            SystemKind::SlBasic => "SL-B",
        }
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(SystemKind::Lifl.label(), "LIFL");
        assert_eq!(SystemKind::Serverful.label(), "SF");
        assert_eq!(SystemKind::Serverless.label(), "SL");
        assert_eq!(SystemKind::SlHierarchical.label(), "SL-H");
    }
}
