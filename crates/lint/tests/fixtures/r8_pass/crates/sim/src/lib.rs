//! Fixture: a sibling crate calling into the engine.

/// Never checked: not an engine crate.
pub fn run() -> lifl_core::Used {
    lifl_core::used_by_sim();
    lifl_core::make()
}
