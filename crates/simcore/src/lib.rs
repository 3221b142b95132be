//! # lifl-simcore
//!
//! The deterministic helpers the rest of the workspace shares:
//!
//! * [`SimRng`], the seeded random-number generator behind every client
//!   population, data partition, local-training shuffle and arrival trace
//!   (`lifl-fl`, `lifl-core`'s training driver, `lifl-sim` and the
//!   benchmark);
//! * [`TimeSeries`] and [`Gantt`], the collectors `lifl-sim`'s workload
//!   driver and platform fill for the time-to-accuracy curves (Fig. 9/10)
//!   and the round timelines (Fig. 4 / Fig. 7(c)).
//!
//! ```
//! use lifl_simcore::SimRng;
//!
//! let mut a = SimRng::from_seed(7);
//! let mut b = SimRng::from_seed(7);
//! assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
//! assert!(a.index(5) < 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod stats;

pub use rng::SimRng;
pub use stats::{Gantt, GanttSegment, TimeSeries};
