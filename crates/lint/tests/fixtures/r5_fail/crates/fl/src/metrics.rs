use std::time::Instant;

pub fn timed_accuracy() -> f64 {
    let started = Instant::now();
    started.elapsed().as_secs_f64()
}
