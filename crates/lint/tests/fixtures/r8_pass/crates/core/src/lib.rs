//! Fixture: every engine item has a user.

pub mod helpers;

/// Used by a sibling crate's code.
pub fn used_by_sim() {}

/// Used by the benchmark.
pub fn benchmarked() {}

/// Used by an integration test.
pub fn integration_tested() {}

/// Used by another file's unit tests.
pub fn used_by_helper_tests() {}

/// Test scaffolding, gated on tests: not a public item of the engine.
#[cfg(test)]
pub fn scaffolding() {}

/// An input a deployment drives.
// lifl-lint: allow(dead-pub) — the operator's input; no test drives it.
pub fn operator_input() {}

/// Named by the crate's own code.
pub struct Used;

/// Returns the named type.
pub fn make() -> Used {
    Used
}
