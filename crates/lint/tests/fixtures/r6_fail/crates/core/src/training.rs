//! The client re-send path of node failures.

pub fn resilient(driver: &mut Driver, rng: &mut Rng) -> Result<Round> {
    match driver.run_round_resilient(rng) {
        Err(LiflError::NodeFailure { .. }) => driver.backend_mut().take_lost_clients(),
        other => other,
    }
}
