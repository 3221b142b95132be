//! Outside the move-only files the copying conveniences stay conveniences.
//! Engine code takes the shared worker set; prose may say
//! Workers::with_count, and tests may call it.

pub fn checkpoint(store: &Store, model: &[f32], encoded: &Encoded, update: &Update) {
    let _ = store.put_f32(model);
    let _ = encoded.to_bytes();
    let _ = update.clone();
}

pub fn driver(backend: Backend) -> Driver {
    let _ = "no Workers::with_count here";
    Driver::new(backend, Workers::new())
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_pick_a_worker_count() {
        let driver = Driver::new(backend(), Workers::with_count(3));
    }
}
