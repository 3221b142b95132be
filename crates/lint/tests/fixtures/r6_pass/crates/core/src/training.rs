//! Outside the move-only files the copying conveniences stay conveniences.
//! Engine code takes the shared worker set; prose may say
//! Workers::with_count, and tests may call it. Prose may also say
//! run_round_resilient, take_lost_clients and NodeFailure, and longer names
//! that merely contain one are different names.

pub fn checkpoint(store: &Store, model: &[f32], encoded: &Encoded, update: &Update) {
    let _ = store.put_f32(model);
    let _ = encoded.to_bytes();
    let _ = update.clone();
}

pub fn driver(backend: Backend) -> Driver {
    let _ = "no Workers::with_count here";
    Driver::new(backend, Workers::new())
}

pub fn round(driver: &mut Driver, rng: &mut Rng) -> Result<Round> {
    let _ = "run_round_resilient, take_lost_clients and NodeFailure are gone";
    let node_failures_seen = 0;
    driver.run_round(rng)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_pick_a_worker_count() {
        let driver = Driver::new(backend(), Workers::with_count(3));
    }
}
