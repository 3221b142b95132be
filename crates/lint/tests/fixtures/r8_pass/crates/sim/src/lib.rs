//! Fixture: a sibling crate calling into the engine.

/// Used by an integration test.
pub fn run() -> lifl_core::Used {
    lifl_core::used_by_sim();
    lifl_core::make()
}
