#![forbid(unsafe_code)]
//! Every retired name, as code: each name below is one finding.

use lifl_baselines::WorkloadDriver;
use lifl_core::async_round::AsyncAggregator;
use lifl_fl::rounds::{FlDriver, FlDriverConfig};
mod bench_ingest;
use lifl_fl::async_driver::{AsyncAggregator, AsyncDriverConfig, AsyncFlDriver};
pub fn outcomes() -> Vec<lifl_fl::AsyncVersionOutcome> {
    Vec::new()
}
