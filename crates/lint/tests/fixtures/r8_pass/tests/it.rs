#[test]
fn drives_the_engine() {
    lifl_core::integration_tested();
}

#[test]
fn drives_the_simulator() {
    lifl_sim::run();
}
