//! Fixture: a simulator crate. Its items are checked like the engine's, and
//! naming Orphan in prose or a string is no use of it.

pub use lifl_core::{benchmarked, ReexportedOnly};

/// Nothing names it: a finding, in a crate outside the engine too.
pub fn simulator_only() {}

/// Orphan, in a string literal; nothing names the constant either.
pub const NAME: &str = "Orphan";
