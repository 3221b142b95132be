//! Fixture: unit tests that use an item of another file.

#[cfg(test)]
mod tests {
    #[test]
    fn reaches_across() {
        crate::used_by_helper_tests();
        crate::scaffolding();
    }
}
