//! A private worker set outside the station executor.

pub fn driver(backend: Backend) -> Driver {
    let workers = Workers::with_count(2);
    Driver::new(backend, workers)
}
