//! # lifl-experiments
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§4.1, §6, Appendix F), each exposing a `run()` function that
//! regenerates the figure's rows/series from the simulation and a formatter
//! that prints them the way the paper reports them. The binaries under
//! `src/bin/` are thin wrappers; `all_experiments` runs everything in
//! sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "the orchestration-overhead experiment measures wall-clock time"
)]

pub mod ablation;
pub mod fig11_async;
pub mod fig13;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod fig9_fig10;
pub mod fig_codec;
pub mod orchestration_overhead;
pub mod report;
