//! A private worker set, and the client re-send path of node failures.

pub fn driver(backend: Backend) -> Driver {
    let workers = Workers::with_count(2);
    Driver::new(backend, workers)
}

pub fn resilient(driver: &mut Driver, rng: &mut Rng) -> Result<Round> {
    match driver.run_round_resilient(rng) {
        Err(LiflError::NodeFailure { .. }) => driver.backend_mut().take_lost_clients(),
        other => other,
    }
}
