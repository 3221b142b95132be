//! Fixture: engine items without a user.

/// Used by the benchmark.
pub fn benchmarked() {}

/// Used by an integration test.
pub fn integration_tested() {}

/// Only this file's own tests name it.
pub fn only_my_tests() {}

/// Nothing names it in code.
pub struct Orphan;

/// Crate-visible items are not checked.
pub(crate) fn internal() {}

/// An unjustified marker keeps nothing.
// lifl-lint: allow(dead-pub)
pub const UNJUSTIFIED: u32 = 1;

/// Only a re-export names it: another path to an item is not a use.
pub struct ReexportedOnly;

#[cfg(test)]
mod tests {
    #[test]
    fn uses_its_own() {
        super::only_my_tests();
    }
}
