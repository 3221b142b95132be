#![forbid(unsafe_code)]
//! Prose may say FlDriver, FlDriverConfig, async_round, lifl_baselines and
//! bench_ingest; longer identifiers that merely contain one are different
//! names. So may prose about AsyncAggregator, AsyncFlDriver,
//! AsyncDriverConfig, AsyncVersionOutcome and async_driver.

use lifl_core::training::{AsyncCommit, TrainingDriver};
use lifl_sim::WorkloadDriver;

pub fn note() -> &'static str {
    "FlDriver, lifl_core::async_round and lifl_fl::async_driver are gone"
}
