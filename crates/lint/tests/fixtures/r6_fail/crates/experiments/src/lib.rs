#![forbid(unsafe_code)]
//! Every name PR 24 retired, as code: each line below is one finding.

use lifl_baselines::WorkloadDriver;
use lifl_core::async_round::AsyncAggregator;
use lifl_fl::rounds::{FlDriver, FlDriverConfig};
mod bench_ingest;
