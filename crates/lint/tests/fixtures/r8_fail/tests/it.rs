#[test]
fn drives_the_engine() {
    lifl_core::integration_tested();
}
