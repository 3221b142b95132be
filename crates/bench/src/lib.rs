//! # lifl-bench
//!
//! The persisted kernel baseline: [`baseline`] measures the aggregation hot
//! path (codec encode, fused fold, batch fold) and the `bench_baseline`
//! binary writes — or schema-checks — the versioned `BENCH_aggregation.json`
//! committed at the repo root. Whole rounds are measured by `benchmark/`
//! (`BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "the kernel baseline times the engine's passes on the wall clock"
)]

pub mod baseline;
