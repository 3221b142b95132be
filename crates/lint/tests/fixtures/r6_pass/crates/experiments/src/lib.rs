#![forbid(unsafe_code)]
//! Prose may say FlDriver, FlDriverConfig, async_round, lifl_baselines and
//! bench_ingest; longer identifiers that merely contain one are different
//! names.

use lifl_fl::async_driver::{AsyncAggregator, AsyncFlDriver};
use lifl_sim::WorkloadDriver;

pub fn note() -> &'static str {
    "FlDriver and lifl_core::async_round are gone"
}
