//! Fixture: a non-engine crate. Its own items are never checked, and naming
//! Orphan in prose or a string is no use of it.

/// Not an engine item, so never a finding.
pub fn simulator_only() {}

/// Orphan, in a string literal.
pub const NAME: &str = "Orphan";
